"""Benchmark workloads; `run.py` starts this file in a child process.

Each workload is a closed loop with one caller: set up, then run identical
jobs back to back for up to `--seconds` of job time (at least one job, and no
job starts that would end after the deadline), checking every job; repeated
set-ups run between the jobs. Every job starts from the same inputs, so the
jobs of a run must give bit-identical results, and the work counts printed
per job repeat exactly between runs of one commit on one seed.

  decode_eval    `evaluation.eval_matrix` of a baseline and a doss overlay
                 variant on the desk eval sets
  pipeline_cold  a cold `doss run` of pipeline.ini in a new empty directory,
                 then a warm rerun that must hit the cache at every stage;
                 three quarters of the cold run are train steps
                 (full-parameter and masked), so it is also the workload on
                 which training speed shows

End-to-end metrics (`--trace 0`) are the same on every workload. Timings are
in adjusted seconds: wall seconds rescaled to a machine of fixed speed by the
calibration passes run right before and right after each job and set-up (see
`calibrate.py`); the wall timings are printed too.

  setup_s          median adjusted seconds of the run's set-ups
  peak_rss_mb      peak resident memory after the first set-up and job
  job_s            median adjusted seconds of the run's jobs; on
                   pipeline_cold the cold run alone (pipeline_s)
  tokens_per_s     the tokens a job produces per job_s: non-pad target
                   tokens trained (pipeline_cold) or tokens generated, EOS
                   included (decode_eval: decode_tokens_per_s)
  sentences_per_s  the same for sentence pairs trained, or for sentences
                   decoded and scored (decode_eval: eval_sentences_per_s)

A shared 2-vCPU machine switches between phases of full speed and phases
about 1.5x slower that last from seconds to minutes. Raw wall timings of one
seed's jobs spread by that much within a run, and the run's fastest or median
job by 15-30% between runs of ten seeds (quartiles over median); the kernel
slows down with the program, and the adjusted medians spread 6-8%.

`--trace 1` measures half the time untraced and half traced, reports the
per-layer metrics from the traced jobs, tracing overhead as traced minus
untraced for every end-to-end metric, and writes every span to
`.bench_out/<workload>-seed<seed>.spans.json`. A per-layer metric of a layer
that a workload never calls reads 0.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter as perf

import numpy as np

from calibrate import REF_S, Clock
from spans import STAGE_METHODS, STAGES, Probe, SpanIndex, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESK = HERE / "desk.ini"
PIPELINE = HERE / "pipeline.ini"

MASK_JITTER = 0.08    # log-normal jitter: desk-like mask overlap, Jaccard ~0.87
OVERLAY_JITTER = 1e-3  # doss variant of decode_eval: base plus small noise

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "job_s": ("s", "lower"),
    "tokens_per_s": ("tokens/s", "higher"),
    "sentences_per_s": ("sentences/s", "higher"),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


# ---------------------------------------------------------------------------
# shared set-up pieces
# ---------------------------------------------------------------------------


def render_manifest(template: Path, seed: int, path: Path) -> None:
    """`template` with [meta] seed and every domain seed drawn from --seed."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(template)
    parser["meta"]["seed"] = str(seed)
    for section in parser.sections():
        if section.startswith(("domain ", "extension ")):
            parser[section]["seed"] = str(int(parser[section]["seed"]) + 1000 * seed)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def jittered_masks(base, registry, man, seed: int):
    """One mask per domain with the manifest's prune fractions, from
    `masks.magnitude_prune` on a per-domain jittered copy of `base`."""
    from doss import masks
    from doss.autograd import Tensor
    from doss.model import ParamStore

    built = []
    for k, spec in enumerate(man.domains):
        rng = np.random.default_rng([seed, k])
        jittered = ParamStore({
            n: Tensor(t.data * np.exp(MASK_JITTER * rng.standard_normal(t.shape)), name=n)
            for n, t in base.items()})
        built.append(masks.magnitude_prune(jittered, registry, man.prune, spec.name))
    return masks.MaskSet(built)


def frozen_mismatches(trained, base, union_bits) -> list[str]:
    """Tensors whose elements outside the union mask (all elements for
    non-maskable tensors) are not bit-identical to the base."""
    bad = []
    for name, t in base.items():
        keep = ~union_bits[name].reshape(t.shape) if name in union_bits else np.ones(t.shape, bool)
        if bits(trained.array(name)[keep]) != bits(t.data[keep]):
            bad.append(name)
    return bad


class Workload:
    """Set-up state lives on the instance; `job` returns a result dict."""
    name = ""
    n_setups = 5
    template = DESK
    aliases: dict[str, str] = {}   # end-to-end metric: its name in the workload's terms

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def load_manifest(self):
        from doss import manifest
        path = self.workdir / "manifest.ini"
        render_manifest(self.template, self.seed, path)
        self.manifest_path = path
        self.man = manifest.load_manifest(path)
        return self.man


# ---------------------------------------------------------------------------
# decode_eval
# ---------------------------------------------------------------------------


class DecodeEval(Workload):
    name = "decode_eval"
    aliases = {"tokens_per_s": "decode_tokens_per_s",
               "sentences_per_s": "eval_sentences_per_s"}
    n_setups = 3

    def setup(self) -> str:
        from doss import training
        from doss.autograd import Tensor
        from doss.evaluation import Variant
        from doss.model import ParamStore, build_model

        man = self.load_manifest()
        train = [d.train_set() for d in man.domains]
        self.evals = [d.eval_set() for d in man.domains]
        init, registry = build_model(man.model, man.stage_seed("init"))
        # a briefly trained base decodes to EOS like a trained model does
        self.base = training.train_full(init, train, man.train["pretrain"], man.model)
        self.masks = jittered_masks(self.base, registry, man, self.seed)
        rng = np.random.default_rng([self.seed, 99])
        self.lam = ParamStore({
            n: Tensor(t.data + OVERLAY_JITTER * rng.standard_normal(t.shape), name=n)
            for n, t in self.base.items()})
        self.variants = [Variant("baseline", self.base),
                         Variant("doss", self.lam, base=self.base, masks=self.masks)]
        return self.base.checksum() + self.lam.checksum()

    def job(self, probe: Probe, clock: Clock) -> dict:
        from doss import evaluation

        n0 = len(probe.decodes)
        clock.start()
        report = evaluation.eval_matrix(self.variants, self.evals, self.man.model,
                                        self.man.eval_max_len, self.man.eval_batch)
        seconds, adjusted = clock.lap()
        return {"seconds": seconds, "adjusted": adjusted, "report": report.to_csv(),
                "hyps": probe.decodes[n0:]}

    def check(self, out: dict, counts: dict) -> tuple[int, int, list[str]]:
        from doss import masks

        man = self.man
        problems = []
        grid = [(v.name, ds) for v in self.variants for ds in self.evals]
        if len(out["hyps"]) != len(grid):
            problems.append(f"{len(out['hyps'])} decoded sets, expected {len(grid)}")
        attempted = failed = 0
        for (variant, ds), hyps in zip(grid, out["hyps"]):
            attempted += len(hyps)
            if len(hyps) != ds.size:
                problems.append(f"{variant}/{ds.domain_id}: {len(hyps)} of {ds.size} decoded")
            bad = sum(1 for h in hyps if len(h) > man.eval_max_len
                      or any(not 0 <= tok < man.model.vocab_size for tok in h))
            if bad:
                problems.append(f"{variant}/{ds.domain_id}: {bad} hypotheses too long "
                                "or out of vocabulary")
            failed += bad
        for ds in self.evals:
            mask = self.masks.get(ds.domain_id)
            eff = masks.overlay(self.base, self.lam, mask)
            for name, t in self.base.items():
                sel = (mask.bits[name].reshape(t.shape) if name in mask.bits
                       else np.zeros(t.shape, bool))
                want = np.where(sel, self.lam.array(name), t.data)
                if bits(eff.array(name)) != bits(want):
                    problems.append(f"overlay for {ds.domain_id} differs from base "
                                    f"where the mask is 0 in {name}")
                    failed += ds.size
                    break
        hyps = [h for group in out["hyps"] for h in group]
        out["fingerprint"] = out["report"] + repr(hyps)
        out["tokens"] = sum(len(h) for h in hyps)
        out["sentences"] = len(hyps)
        refs = sum(len(t) + 1 for ds in self.evals for _, t in ds.pairs)
        out["work"] = {"steps": 0, "data.target_tokens": refs * len(self.variants),
                       "decoded_sentences": len(hyps), "generated_tokens": out["tokens"]}
        return attempted, failed, problems


# ---------------------------------------------------------------------------
# pipeline_cold
# ---------------------------------------------------------------------------


class PipelineCold(Workload):
    name = "pipeline_cold"
    template = PIPELINE
    aliases = {"job_s": "pipeline_s"}
    n_setups = 9   # a set-up takes ~15 ms

    def setup(self) -> str:
        man = self.load_manifest()
        # the eval sets fix how many sentences report.csv must score
        self.eval_sizes = {d.name: d.eval_set().size for d in man.domains}
        self.train_pairs = sum(d.train_set().size for d in man.domains)
        self.jobs = 0
        return repr(sorted(self.eval_sizes.items())) + str(self.train_pairs)

    def job(self, probe: Probe, clock: Clock) -> dict:
        from doss import cli

        self.jobs += 1
        out_dir = self.workdir / f"run{self.jobs}"
        argv = ["run", "--config", str(self.manifest_path), "--out", str(out_dir)]
        n0, d0 = len(probe.stage_returns), len(probe.decodes)
        # a lap per stage: stages run 0.3-2.5 s, so the machine's speed is
        # measured close to each of them (a stage's own work is unchanged)
        laps = []
        losses = {}   # the train losses of each stage of the cold run
        saved = [(stage, m, getattr(cli.Pipeline, m)) for stage, m in STAGE_METHODS.items()]

        def lapped(stage, original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                k = len(probe.losses)
                try:
                    return original(*args, **kwargs)
                finally:
                    laps.append(clock.lap())
                    losses[stage] = probe.losses[k:]
            return wrapper

        with probe.span("bench.cold"):
            for stage, m, original in saved:
                setattr(cli.Pipeline, m, lapped(stage, original))
            try:
                clock.start()
                cold_rc = cli.main(argv)
                laps.append(clock.lap())
            finally:
                for _, m, original in saved:
                    setattr(cli.Pipeline, m, original)
        seconds, adjusted = (sum(t) for t in zip(*laps))
        n1, d1 = len(probe.stage_returns), len(probe.decodes)
        with probe.span("bench.warm"):
            t1 = perf()
            warm_rc = cli.main(argv)
            warm_s = perf() - t1
        return {"seconds": seconds, "adjusted": adjusted, "warm_s": warm_s, "out_dir": out_dir,
                "rc": (cold_rc, warm_rc), "hyps": probe.decodes[d0:d1], "losses": losses,
                "cold": probe.stage_returns[n0:n1],
                "warm": probe.stage_returns[n1:]}

    def check(self, out: dict, counts: dict) -> tuple[int, int, list[str]]:
        problems = []
        failed_stages = set()
        if out["rc"] != (0, 0):
            problems.append(f"doss run exit codes {out['rc']}")
            failed_stages.update(STAGES)
        cold, warm = dict(out["cold"]), dict(out["warm"])
        for stage, losses in out["losses"].items():
            bad = int(np.count_nonzero(~np.isfinite(losses)))
            if bad:
                problems.append(f"cold run: {bad} non-finite train losses in stage {stage}")
                failed_stages.add(stage)
        # the 100-step pretrain from a random init must lower the loss
        pre = np.array(out["losses"].get("pretrain", []))
        fifth = max(1, pre.size // 5)
        if not pre.size or not pre[-fifth:].mean() < pre[:fifth].mean():
            problems.append("cold run: pretrain loss did not fall")
            failed_stages.add("pretrain")
        for stage in STAGES:
            if cold.get(stage) is not True:
                problems.append(f"cold run: stage {stage} returned {cold.get(stage)!r}")
                failed_stages.add(stage)
            if warm.get(stage) is not False:
                problems.append(f"warm rerun: stage {stage} missed the cache")
                failed_stages.add("warm." + stage)
        d = out["out_dir"]
        try:
            found, bad_stages, out["fingerprint"] = self.check_artifacts(d)
        except (OSError, ValueError) as exc:  # missing or corrupt artifacts
            found, bad_stages, out["fingerprint"] = [f"cold run artifacts: {exc}"], STAGES, ""
        problems += found
        failed_stages.update(bad_stages)
        out["tokens"] = counts.get("target_tokens", 0)
        out["sentences"] = counts.get("pairs", 0)
        hyps = [h for group in out["hyps"] for h in group]
        out["work"] = {"steps": counts.get("steps", 0),
                       "data.target_tokens": out["tokens"],
                       "decoded_sentences": len(hyps),
                       "generated_tokens": sum(len(h) for h in hyps),
                       "stages": len(out["cold"]) + len(out["warm"]),
                       "cache_hits": sum(1 for _, r in out["warm"] if r is False)}
        shutil.rmtree(d, ignore_errors=True)
        return 2 * len(STAGES), len(failed_stages), problems

    def check_artifacts(self, d: Path) -> tuple[list[str], set[str], str]:
        """Problems, failed stages and a fingerprint of a cold run's output."""
        import hashlib

        from doss.masks import MaskSet, load_mask
        from doss.model import load_checkpoint

        problems, failed_stages = [], set()
        diffs = sorted(d.glob("extend_*/preservation_diff.txt"))
        if not diffs or any(p.read_text(encoding="utf-8") for p in diffs):
            problems.append("preservation_diff.txt missing or not empty")
            failed_stages.add("extend")
        base = load_checkpoint(d / "base.ckpt")
        union = MaskSet([load_mask(d / f"mask_{name}.mask")
                         for name in self.eval_sizes]).union_bits()
        doss_ckpt = d / "doss.ckpt"
        bad = frozen_mismatches(load_checkpoint(doss_ckpt), base, union)
        if bad:
            problems.append(f"doss.ckpt frozen elements differ from base.ckpt in {bad[:3]}")
            failed_stages.add("train_doss")
        report = (d / "report.csv").read_text(encoding="utf-8")
        rows = {}
        for line in report.splitlines()[2:]:
            cells = line.split(",")
            rows[(cells[0], cells[1])] = cells[4]
        variants = ["baseline"] + [f"ft_{n}" for n in self.eval_sizes] + ["ft_all", "doss"]
        for v in variants:
            for dom, size in self.eval_sizes.items():
                if rows.get((v, dom)) != str(size):
                    problems.append(f"report.csv: no {v} x {dom} row over {size} sentences")
                    failed_stages.add("eval")
            if (v, "average") not in rows:
                problems.append(f"report.csv: no {v} average row")
                failed_stages.add("eval")
        return problems, failed_stages, report + hashlib.sha256(doss_ckpt.read_bytes()).hexdigest()


WORKLOADS = {w.name: w for w in (DecodeEval, PipelineCold)}


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------


def measure(w: Workload, probe: Probe, seconds: float, n_setups: int) -> dict:
    """Jobs for `seconds` of job time, with the set-ups spread evenly over it:
    set-up k runs once k/n_setups of the job time has passed, and jobs use the
    latest set-up's state. Calibration passes right before and after every
    set-up and job (and between the stages of a pipeline_cold job) time each
    adjusted to the machine's speed (`calibrate.py`)."""
    start = perf()
    clock = Clock()
    setups, setup_prints = [], []
    setup_wall = 0.0

    def setup() -> None:
        nonlocal setup_wall
        clock.start()
        with probe.span("bench.setup"):
            setup_prints.append(w.setup())
        wall, adjusted = clock.lap()
        setups.append(adjusted)
        setup_wall += wall

    jobs = []
    problems = []

    def job_time() -> float:  # wall time of the jobs and their checks so far
        return perf() - start - setup_wall - clock.spent

    while True:
        if len(setups) < n_setups and job_time() >= len(setups) * seconds / n_setups:
            setup()
            continue
        before, n_tape = dict(probe.counts), len(probe.tape)
        probe.in_job = True
        with probe.span("bench.job"):
            out = w.job(probe, clock)
        probe.in_job = False
        counts = {k: v - before.get(k, 0) for k, v in probe.counts.items()}
        with probe.paused():
            attempted, failed, found = w.check(out, counts)
        tape = probe.tape[n_tape:]
        out["work"]["autograd.tape_op_nodes"] = tape[-1][0] if tape else 0
        out.update(attempted=attempted, failed=failed, counts=counts)
        problems += found
        jobs.append(out)
        if len(jobs) == 1:
            # the high-water mark after one set-up and one job does not depend
            # on how many jobs the machine's speed lets the run fit
            rss = peak_rss_mb()
        # stop before a job that would end after the deadline; run at least one
        if job_time() + out["seconds"] > seconds:
            break
    while len(setups) < n_setups:  # jobs longer than the time between set-ups
        setup()
    if len(set(setup_prints)) != 1:
        problems.append("repeated set-ups built different inputs")
    if len({j["fingerprint"] for j in jobs}) != 1:
        problems.append("identical jobs gave different results")
    if len({json.dumps(j["work"], sort_keys=True) for j in jobs}) != 1:
        problems.append("identical jobs did different amounts of work")
    return {"setups": setups, "jobs": jobs, "problems": problems, "rss": rss,
            "probe": probe, "passes": clock.passes}


def end_to_end(m: dict) -> dict[str, float]:
    # Timings are medians over the run of speed-adjusted seconds: the wall
    # time of each job rescaled by the calibration passes on both sides of it.
    job_s = statistics.median(j["adjusted"] for j in m["jobs"])
    work = m["jobs"][0]
    return {
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": m["rss"],
        "job_s": job_s,
        "tokens_per_s": work["tokens"] / job_s,
        "sentences_per_s": work["sentences"] / job_s,
    }


# ---------------------------------------------------------------------------
# per-layer metrics of a traced measurement
# ---------------------------------------------------------------------------

# per-layer metrics in other units than ms (lower is better) or s for *_s
LAYER_UNITS = {  # name: (unit, better)
    "autograd.tape_op_nodes": ("count", "lower"),
    "autograd.tape_leaves": ("count", "lower"),
    "training.steps": ("count", "higher"),
    "training.step_tail_percentile": ("percentile", "higher"),
    "data.pad_frac": ("frac", "lower"),
    "data.target_tokens": ("count", "higher"),
    "evaluation.decoded_sentences": ("count", "higher"),
    "evaluation.generated_tokens": ("count", "higher"),
    "evaluation.decode_useful_frac": ("frac", "higher"),
    "cli.cache_hits": ("count", "higher"),
}


def layer_unit(name: str) -> tuple[str, str]:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.startswith("trace_overhead."):
        return END_TO_END[name.split(".", 1)[1]]
    return ("s" if name.endswith("_s") or ".stage_s." in name else "ms"), "lower"


def per_layer(m: dict) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    probe = m["probe"]
    idx = SpanIndex(probe.spans)
    n = len(m["jobs"])
    ms = 1000.0

    def p50_ms(name):
        d = idx.durations(name)
        return float(np.median(d)) * ms if d.size else 0.0

    def per_job(name, scale=ms, phase="bench.job"):
        return float(idx.durations(name, phase).sum()) * scale / n

    counts = sum((Counter(j["counts"]) for j in m["jobs"]), Counter())
    steps = idx.step_breakdown()
    tail_pct, tail_ms = tail(steps["step"] * ms)
    tape = np.array(probe.tape or [(0, 0)])
    gen = counts.get("generated_tokens", 0)
    work = m["jobs"][0]["work"]
    out = {
        "autograd.backward_ms_p50": p50_ms("autograd.backward"),
        "autograd.tape_op_nodes": int(np.median(tape[:, 0])),
        "autograd.tape_leaves": int(np.median(tape[:, 1])),
        "model.forward_ms_p50": p50_ms("model.forward"),
        "model.encode_ms_p50": p50_ms("model.encode"),
        "model.decode_logits_ms_p50": p50_ms("model.decode_logits"),
        "model.checkpoint_io_ms": per_job("model.checkpoint_io"),
        "training.steps": work["steps"],
        "training.step_ms_p50": float(np.median(steps["step"])) * ms if steps["step"].size else 0.0,
        "training.step_ms_tail": tail_ms,
        "training.step_tail_percentile": tail_pct,
        "training.step_self_ms_p50": float(np.median(steps["self"])) * ms if steps["self"].size else 0.0,
        "training.adam_ms_p50": p50_ms("training.adam"),
        "training.clip_ms_p50": p50_ms("training.clip"),
        "training.train_full_s": per_job("training.train_full", 1.0),
        "training.train_doss_s": per_job("training.train_doss", 1.0),
        "data.batch_ms_p50": p50_ms("data.batch"),
        "data.pad_frac": counts.get("pad_positions", 0) / max(counts.get("positions", 0), 1),
        "data.target_tokens": work["data.target_tokens"],
        "masks.overlay_ms": per_job("masks.overlay"),
        "masks.prune_ms": per_job("masks.prune") + per_job("masks.prune_disjoint"),
        "masks.create_domain_mask_s": per_job("masks.create_domain_mask", 1.0),
        "masks.mask_io_ms": per_job("masks.mask_io"),
        "evaluation.decoded_sentences": counts.get("decoded_sentences", 0) // n,
        "evaluation.generated_tokens": gen // n,
        "evaluation.greedy_decode_ms_per_token":
            float(idx.durations("evaluation.greedy_decode").sum()) * ms / gen if gen else 0.0,
        "evaluation.bleu_ms": per_job("evaluation.bleu"),
        "evaluation.decode_useful_frac": gen / counts["decoder_positions"]
            if counts.get("decoder_positions") else 0.0,
        "manifest.load_ms": per_job("manifest.load"),
        "cli.artifact_valid_ms": per_job("cli.artifact_valid"),
        "cli.sha256_ms": per_job("cli.sha256"),
        "cli.warm_rerun_s": float(np.mean([j.get("warm_s", 0.0) for j in m["jobs"]])),
        "cli.cache_hits": work.get("cache_hits", 0),
    }
    for stage in STAGES:
        out[f"cli.stage_s.{stage}"] = per_job(f"cli.stage.{stage}", 1.0, "bench.cold")
    layer_self = idx.layer_self()
    for layer in ("autograd", "model", "training", "data", "masks", "evaluation",
                  "manifest", "cli"):
        out[f"self_ms.{layer}"] = layer_self.get(layer, 0.0) * ms / n
    return out, steps


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    import doss
    src = (ROOT / "src").resolve()
    if src not in Path(doss.__file__).resolve().parents:
        print(f"doss imported from {doss.__file__}, not from {src}", file=sys.stderr)
        return 2
    env = environment()
    if any(v != "1" for v in env["threads"].values()):
        print(f"BLAS threads not pinned to 1: {env['threads']}", file=sys.stderr)
        return 2
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " threads=" + "/".join(env["threads"].values()))

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        # (timing, seconds, set-ups): a traced run measures untraced first
        phases = ([(False, args.seconds / 2, 1), (True, args.seconds / 2, 1)] if args.trace
                  else [(False, args.seconds, w.n_setups)])
        runs = []
        for timing, seconds, n_setups in phases:
            probe = Probe(timing)
            probe.install()
            try:
                runs.append(measure(w, probe, seconds, n_setups))
            finally:
                probe.uninstall()
        plain, traced = runs[0], runs[-1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    problems = [p for m in runs for p in m["problems"]]
    prints = {j["fingerprint"] for m in runs for j in m["jobs"]}
    if len(prints) != 1:
        problems.append("traced and untraced jobs gave different results")
    attempted = sum(j["attempted"] for m in runs for j in m["jobs"])
    failed = sum(j["failed"] for m in runs for j in m["jobs"])
    e2e = end_to_end(plain)

    work = plain["jobs"][0]["work"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {len(plain['jobs'])} jobs, {len(plain['setups'])} set-ups")
    print("work per job (repeats exactly on one commit and seed): "
          + " ".join(f"{k}={v}" for k, v in work.items()))
    for name, value in e2e.items():
        alias = w.aliases.get(name)
        print(f"{name} {value:.6g} {END_TO_END[name][0]}"
              + (f"  ({alias} on this workload)" if alias else ""))
    for key, what in (("seconds", "wall"), ("adjusted", "adjusted")):
        times = sorted(j[key] for j in plain["jobs"])
        print(f"job_s {what} over {len(times)} jobs: min {times[0]:.4g} "
              f"p25 {float(np.percentile(times, 25)):.4g} "
              f"median {statistics.median(times):.4g} max {times[-1]:.4g}")
    passes = plain["passes"]
    print(f"calibration over {len(passes)} passes: min {min(passes):.4g} "
          f"median {statistics.median(passes):.4g} max {max(passes):.4g} s "
          f"(reference {REF_S:g} s)")

    if args.trace:
        layer, steps = per_layer(traced)
        traced_e2e = end_to_end(traced)
        for name, value in e2e.items():
            layer[f"trace_overhead.{name}"] = traced_e2e[name] - value
        if steps["step"].size:
            parts = {k: float(v.sum()) for k, v in steps.items()}
            listed = ("model.forward", "autograd.backward", "training.adam",
                      "training.clip", "data.batch", "other", "self")
            print(f"step accounting over {steps['step'].size} traced steps: "
                  + " + ".join(f"{k} {parts[k] / parts['step']:.1%}" for k in listed)
                  + f" = {sum(parts[k] for k in listed) / parts['step']:.1%} of step time")
        for name, value in layer.items():
            print(f"{name} {value:.6g} {layer_unit(name)[0]}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{args.workload}-seed{args.seed}.spans.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": traced["probe"].spans}, fh)
        metrics = {k: {"value": v, "unit": layer_unit(k)[0]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
