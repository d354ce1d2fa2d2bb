"""Experiment command line: a subcommand per stage of doss.STAGES, and run.

Every stage writes its artifacts plus a `<artifact>.meta` sidecar holding the
producing config hash, the stage seed, and the artifact's sha256. A stage is
skipped when all of its artifacts exist with matching sidecars, so `run` is
idempotent and a corrupted artifact makes exactly its producing stage rerun.
The key (config hash) covers what the stage reads: the package source, the seed,
the model, the base domains, the configs its body reads and its upstream files.
Set DOSS_LOG=DEBUG|INFO|WARNING for verbosity; --threads caps the BLAS
thread pools (it must be handled before numpy is first imported).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import os
from pathlib import Path

from . import BLAS_THREAD_VARS, EXTENSION_MODES, STAGES
from .errors import ConfigError, DossError, FormatError

log = logging.getLogger("doss")


# ---------------------------------------------------------------------------
# artifact metadata / caching
# ---------------------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@functools.cache
def _code_fingerprint() -> str:
    """sha256 over the names and bytes of the package's modules."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _domain_input(spec):
    """A domain spec as a stage-key input, with the sha256 of its text files."""
    if spec.synthetic:
        return spec
    return dataclasses.asdict(spec) | {
        "sha256": [_sha256_file(Path(f)) for f in (spec.src_file, spec.tgt_file)]}


def _meta_path(artifact: Path) -> Path:
    return artifact.with_name(artifact.name + ".meta")


def write_meta(artifact: Path, key: str, stage: str, seed: int) -> None:
    _meta_path(artifact).write_text(
        f"config_hash={key}\nstage={stage}\nseed={seed}\n"
        f"sha256={_sha256_file(artifact)}\n", encoding="utf-8")


def write_keyed(path: Path, key: str, body: str) -> None:
    """Write a text artifact: a first line naming the stage key, as a comment
    in the file's format (markdown or csv), then `body`."""
    header = f"<!-- config_hash={key} -->" if path.suffix == ".md" else f"# config_hash={key}"
    path.write_text(f"{header}\n{body}", encoding="utf-8")


def artifact_valid(artifact: Path, key: str) -> bool:
    meta = _meta_path(artifact)
    if not artifact.exists() or not meta.exists():
        return False
    try:
        lines = meta.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:  # a corrupted sidecar: the stage reruns
        return False
    fields = dict(line.split("=", 1) for line in lines if "=" in line)
    return fields.get("config_hash") == key and fields.get("sha256") == _sha256_file(artifact)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    """Wires manifest stages to artifacts under one output directory."""

    def __init__(self, man, out_dir: Path):
        self.man = man
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.base_ckpt, self.base_reg, self.doss_ckpt = (
            self.out / name for name in ("base.ckpt", "base.reg", "doss.ckpt"))
        # one finetune baseline per domain, plus one on all domains
        self.ft_names = [d.name for d in man.domains] + ["all"]

    # -- artifact paths ----------------------------------------------------

    def mask_path(self, domain: str) -> Path:
        return self.out / f"mask_{domain}.mask"

    def ft_ckpt(self, name: str) -> Path:
        return self.out / f"ft_{name}.ckpt"

    def extend_dir(self, mode: str) -> Path:
        return self.out / f"extend_{mode}"

    # -- data --------------------------------------------------------------

    @functools.cached_property
    def splits(self):
        """(train, eval) datasets of each base domain, then of the extension.

        Parallel-text domains, the extension included, are encoded with one
        vocabulary ranked over the base domains' text, so a word has the same
        id in every domain."""
        from .data import (N_RESERVED, DomainDataset, encode_pairs, filter_corpus,
                           load_parallel_text, vocab_from_pairs)

        man = self.man
        specs = man.domains + ([man.extension] if man.extension else [])
        filtered = [(None, None) if s.synthetic else
                    filter_corpus(load_parallel_text(s.src_file, s.tgt_file), s.filter)
                    for s in specs]
        base_text = [p for t, _ in filtered[:len(man.domains)] if t for p in t]
        vocab = vocab_from_pairs(base_text, man.model.vocab_size - N_RESERVED)
        out = []
        for spec, (text, stats) in zip(specs, filtered):
            if spec.synthetic:
                out.append((spec.train_set(), spec.eval_set()))
                continue
            if not base_text:
                raise ConfigError(f"domain {spec.name!r} is parallel text but no base "
                                  f"domain is: the vocabulary comes from their text")
            ds = encode_pairs(text, vocab, spec.name)
            need = spec.train_pairs + spec.eval_pairs
            if ds.size < need:
                raise ConfigError(f"domain {spec.name!r} has {ds.size} usable pairs, "
                                  f"needs {need}; filter: {stats}")
            out.append((DomainDataset(spec.name, ds.pairs[:spec.train_pairs]),
                        DomainDataset(spec.name, ds.pairs[spec.train_pairs:need])))
        return out

    def train_sets(self):
        return [train for train, _ in self.splits[:len(self.man.domains)]]

    def eval_sets(self):
        return [evals for _, evals in self.splits[:len(self.man.domains)]]

    def ext_sets(self):
        if self.man.extension is None:
            raise ConfigError("manifest has no [extension <name>] section")
        return self.splits[-1]

    # -- loading helpers ---------------------------------------------------

    def load_base(self):
        """The base store, after checking its registry record against the rule."""
        from .model import load_checkpoint, load_registry

        store = load_checkpoint(self.base_ckpt)
        load_registry(self.base_reg, store)
        return store

    def load_masks(self):
        from .masks import MaskSet, load_mask

        return MaskSet([load_mask(self.mask_path(d.name)) for d in self.man.domains])

    # -- caching -----------------------------------------------------------

    def _cached(self, stage: str, artifacts: list[Path], compute, **inputs) -> bool:
        """Run `compute(key)` unless every artifact is valid for the stage
        key, then stamp each artifact's sidecar. True when it ran. The key
        covers `inputs`, the configs the stage body reads, and the sha256 of
        the stage's upstream artifacts by role; the sidecar seed is that of
        the `train` config, else the global one."""
        man = self.man
        files = {"base": [self.base_ckpt], "doss": [self.doss_ckpt],
                 "masks": [self.mask_path(d.name) for d in man.domains],
                 "fts": [self.ft_ckpt(n) for n in self.ft_names]}
        payload = {"stage": stage, "code": _code_fingerprint(), "seed": man.seed,
                   "model": man.model, "domains": [_domain_input(d) for d in man.domains],
                   **inputs, **{role: [_sha256_file(f) for f in files[role]]
                                for role in STAGES[stage].upstream}}
        text = json.dumps(payload, sort_keys=True, default=dataclasses.asdict)
        key = hashlib.sha256(text.encode()).hexdigest()[:16]
        if all(artifact_valid(a, key) for a in artifacts):
            log.info("%s: cache hit (key %s) for %s, skipping", stage, key, artifacts[0].name)
            return False
        log.info("%s: running (key %s) for %s", stage, key, artifacts[0].name)
        compute(key)
        for a in artifacts:
            write_meta(a, key, stage, inputs.get("train", man).seed)
        return True

    # -- stages ------------------------------------------------------------

    def pretrain(self) -> bool:
        from .model import build_model, save_checkpoint, save_registry
        from .training import MetricsLog, train_full

        man = self.man
        metrics = self.out / "pretrain_metrics.csv"

        def compute(key):
            store, layout = build_model(man.model, man.stage_seed("init"))
            mlog = MetricsLog()
            lam0 = train_full(store, self.train_sets(), man.train["pretrain"],
                              man.model, log=mlog)
            save_checkpoint(lam0, self.base_ckpt)
            save_registry(layout, self.base_reg)
            mlog.write_csv(metrics)

        return self._cached("pretrain", [self.base_ckpt, self.base_reg, metrics], compute,
                            train=man.train["pretrain"])

    def _mask_finetune(self, lam0, spec, data, cfg):
        """`lam0` finetuned with `cfg` on `data`, `spec`'s train set, run once: mask_ft_*.npy."""
        import numpy as np

        from . import training

        path = self.out / f"mask_ft_{spec.name}.npy"

        def compute(key):  # float64: rounding can reorder near-tied magnitudes
            np.save(path, training.train_full(lam0, data, cfg, self.man.model).vector)

        self._cached("make_masks", [path], compute, train=cfg, domain=_domain_input(spec))
        try:
            vector = np.load(path, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise FormatError(f"{path} is not the base's float64 vector: {exc}") from exc
        if vector.dtype != np.float64 or vector.shape != lam0.vector.shape:
            raise FormatError(f"{path} is a {vector.dtype} {vector.shape}, not the base's vector")
        finetuned = lam0.copy()
        finetuned.vector[:] = vector
        return finetuned

    def _domain_masks(self, lam0, spec):
        """Each base domain's mask finetune pruned by `spec` (less earlier masks if disjoint)."""
        from .masks import MaskSet, magnitude_prune_disjoint

        man, built = self.man, MaskSet([])
        for d, ds in zip(man.domains, self.train_sets()):
            ft = self._mask_finetune(lam0, d, ds, man.train["masks"])
            claimed = built if man.masks_disjoint else MaskSet([])
            built = built.plus(magnitude_prune_disjoint(ft, lam0.layout, spec, claimed, d.name))
        return built

    def make_masks(self) -> bool:
        from .masks import overlap_stats, save_mask

        man = self.man
        stats_path = self.out / "mask_stats.csv"

        def compute(key):
            built = self._domain_masks(self.load_base(), man.prune)
            for mask in built:
                save_mask(mask, self.mask_path(mask.domain_id))
            write_keyed(stats_path, key, "\n".join(overlap_stats(built).to_lines()) + "\n")

        arts = [self.mask_path(d.name) for d in man.domains] + [stats_path]
        return self._cached("make_masks", arts, compute, train=man.train["masks"],
                            prune=man.prune, disjoint=man.masks_disjoint)

    def train_doss(self) -> bool:
        from .model import save_checkpoint
        from .training import MetricsLog, train_doss

        man = self.man
        metrics = self.out / "doss_metrics.csv"

        def compute(key):
            lam0 = self.load_base()
            mlog = MetricsLog()
            lam = train_doss(lam0, self.load_masks(), self.train_sets(),
                             man.train["doss"], man.model, log=mlog)
            save_checkpoint(lam, self.doss_ckpt)
            mlog.write_csv(metrics)

        return self._cached("train_doss", [self.doss_ckpt, metrics], compute,
                            train=man.train["doss"])

    def finetune(self) -> bool:
        from .model import save_checkpoint
        from .training import MetricsLog, train_full

        man = self.man

        def compute(key):
            lam0 = self.load_base()
            sets = self.train_sets()
            for name, data in zip(self.ft_names, [[ds] for ds in sets] + [sets]):
                log.info("finetune: %s", name)
                mlog = MetricsLog()
                trained = train_full(lam0, data, man.train["finetune"], man.model, log=mlog)
                save_checkpoint(trained, self.ft_ckpt(name))
                mlog.write_csv(self.out / f"ft_{name}_metrics.csv")

        arts = [self.ft_ckpt(name) for name in self.ft_names]
        arts += [self.out / f"ft_{name}_metrics.csv" for name in self.ft_names]
        return self._cached("finetune", arts, compute, train=man.train["finetune"])

    def extend(self, mode: str | None = None, steps: int | None = None) -> bool:
        from .evaluation import Variant, eval_matrix
        from .masks import save_mask
        from .model import count_params, load_checkpoint, save_checkpoint
        from .training import MetricsLog, extend_domain

        man = self.man
        mode = mode or man.extend_mode
        if mode not in EXTENSION_MODES:
            raise ConfigError(f"unknown extension mode {mode!r}: one of {EXTENSION_MODES}")
        cfg = man.train["extend"]
        if steps is not None:
            cfg = dataclasses.replace(cfg, max_steps=steps)
        if man.extension is None:
            raise ConfigError("manifest has no [extension <name>] section")
        edir = self.extend_dir(mode)
        edir.mkdir(parents=True, exist_ok=True)
        new_mask_path = edir / f"mask_{man.extension.name}.mask"
        ext_ckpt = edir / "extended.ckpt"
        metrics = edir / "extend_metrics.csv"
        diff_path = edir / "preservation_diff.txt"
        report_md = edir / "report.md"
        report_csv = edir / "report.csv"

        def compute(key):
            ext_train, ext_eval = self.ext_sets()
            log.info("extend[%s]: adding domain %s", mode, ext_train.domain_id)
            lam0 = self.load_base()
            lam = load_checkpoint(self.doss_ckpt)
            maskset = self.load_masks()
            mlog = MetricsLog()
            lam2, maskset2 = extend_domain(
                lam, lam0, maskset, ext_train, mode, man.extend_prune, cfg, model_cfg=man.model,
                finetuned=None if mode == "ft_all_ones" else self._mask_finetune(
                    lam0, man.extension, ext_train, man.train["extend_mask"]),
                existing_data=self.train_sets(), log=mlog)
            new_mask = maskset2.get(ext_train.domain_id)
            save_mask(new_mask, new_mask_path)
            save_checkpoint(lam2, ext_ckpt)
            lam2 = load_checkpoint(ext_ckpt)  # score the float32 model on disk
            mlog.write_csv(metrics)

            trained_count = (count_params(lam0.layout, maskset2.union_mask())["masked_ones"]
                             if mode == "all_masks_joint" else new_mask.popcount())
            ext_variant = Variant(f"extended[{mode}]", lam2, base=lam0, masks=maskset2,
                                  trainable=trained_count)
            # the pre-extension model has no mask for the new domain, so it is
            # scored on the old domains only
            rep_old = eval_matrix([Variant("doss", lam, base=lam0, masks=maskset), ext_variant],
                                  self.eval_sets(), man.model, man.eval_max_len, man.eval_batch)
            # old-domain decodes before vs after extension, token for token
            diffs = []
            for d in rep_old.domain_ids:
                pre, post = rep_old.cell("doss", d).hyps, rep_old.cell(ext_variant.name, d).hyps
                diffs += [f"{d}\t{i}\t{a}\t{b}" for i, (a, b) in enumerate(zip(pre, post))
                          if a != b]
            diff_path.write_text("\n".join(diffs) + ("\n" if diffs else ""), encoding="utf-8")
            rep_new = eval_matrix([ext_variant], [ext_eval], man.model,
                                  man.eval_max_len, man.eval_batch)
            write_keyed(report_md, key,
                        rep_old.to_markdown(f"Domain extension ({mode}): pre-existing domains")
                        + "\n" + rep_new.to_markdown(f"Domain extension ({mode}): new domain"))
            new_csv_rows = rep_new.to_csv().splitlines()[1:]
            write_keyed(report_csv, key, rep_old.to_csv() + "\n".join(new_csv_rows) + "\n")

        arts = [new_mask_path, ext_ckpt, metrics, diff_path, report_md, report_csv]
        return self._cached(
            "extend", arts, compute, train=cfg, mode=mode, prune=man.extend_prune,
            mask_cfg=man.train["extend_mask"], extension=_domain_input(man.extension),
            eval=(man.eval_max_len, man.eval_batch))

    def evaluate(self) -> bool:
        from .evaluation import Variant, eval_matrix
        from .model import count_params, load_checkpoint

        man = self.man
        report_md = self.out / "report.md"
        report_csv = self.out / "report.csv"

        def compute(key):
            lam0 = self.load_base()
            maskset = self.load_masks()
            total = count_params(lam0.layout)["total"]
            variants = [Variant("baseline", lam0, trainable=0)]
            for name in self.ft_names:
                variants.append(Variant(f"ft_{name}", load_checkpoint(self.ft_ckpt(name)),
                                        trainable=total))
            variants.append(Variant(
                "doss", load_checkpoint(self.doss_ckpt), base=lam0, masks=maskset,
                trainable=count_params(lam0.layout, maskset.union_mask())["masked_ones"]))
            report = eval_matrix(variants, self.eval_sets(), man.model,
                                 man.eval_max_len, man.eval_batch)
            write_keyed(report_md, key, report.to_markdown("Domain finetuning vs sub-networks"))
            write_keyed(report_csv, key, report.to_csv())

        return self._cached("eval", [report_md, report_csv], compute,
                            eval=(man.eval_max_len, man.eval_batch))

    def sweep(self) -> bool:
        from . import training
        from .evaluation import Variant, eval_matrix
        from .masks import PruneSpec

        man = self.man
        if not man.sweep_alphas or not man.sweep_betas:
            raise ConfigError("sweep needs non-empty alphas/betas grids in [sweep]")
        grid = sorted({(a, b) for a in man.sweep_alphas for b in man.sweep_betas})
        doss_cfg = dataclasses.replace(man.train["doss"], max_steps=man.sweep_steps)
        sweep_csv = self.out / "sweep.csv"
        corr_csv = self.out / "correlations.csv"

        def compute(key):
            lam0 = self.load_base()
            domain_ids = [d.name for d in man.domains]
            lines = [",".join(["alpha", "beta", "status", *(f"bleu_{d}" for d in domain_ids),
                               *(f"em_{d}" for d in domain_ids), "avg_bleu", "avg_em"])]
            ran = []  # (alpha, beta, avg_bleu) of each point that ran
            for alpha, beta in grid:
                log.info("sweep: alpha=%s beta=%s", alpha, beta)
                try:
                    masks = self._domain_masks(lam0, PruneSpec(alpha, beta))
                    lam = training.train_doss(lam0, masks, self.train_sets(), doss_cfg,
                                              man.model)
                    rep = eval_matrix([Variant("doss", lam, base=lam0, masks=masks)],
                                      self.eval_sets(), man.model,
                                      man.eval_max_len, man.eval_batch)
                    avg_bleu, avg_em = rep.averages("doss")
                    ran.append((alpha, beta, avg_bleu))
                    cells = [rep.cell("doss", d) for d in domain_ids]
                    scores = [c.bleu for c in cells] + [c.exact_match for c in cells]
                    cols = ["ok", *(f"{x!r}" for x in scores + [avg_bleu, avg_em])]
                except DossError as exc:  # keep the rest of the grid running
                    log.warning("sweep point (%s, %s) failed: %s", alpha, beta, exc)
                    cols = ["failed"] + [""] * (2 * len(domain_ids)) + ["nan", "nan"]
                lines.append(",".join([f"{alpha!r}", f"{beta!r}", *cols]))
            write_keyed(sweep_csv, key, "\n".join(lines) + "\n")
            rho = [sweep_correlation([(r[axis], r[2]) for r in ran]) for axis in (0, 1)]
            write_keyed(corr_csv, key, f"coefficient,value\nrho_alpha,{rho[0]!r}\n"
                                       f"rho_beta,{rho[1]!r}\n")

        return self._cached(
            "sweep", [sweep_csv, corr_csv], compute, grid=grid, doss_cfg=doss_cfg,
            mask_cfg=man.train["masks"], disjoint=man.masks_disjoint,
            eval=(man.eval_max_len, man.eval_batch))

    def run(self, stages: list[str] | None = None) -> None:
        """Run `stages` in the pipeline's order; by default every stage a plain
        run includes, but extend only when the manifest has an extension domain."""
        if stages is None:
            stages = [s.name for s in STAGES.values() if s.default]
            if self.man.extension is None:
                log.info("run: no extension domain configured, skipping extend")
                stages.remove("extend")
        for stage in STAGES.values():
            if stage.name in stages:
                getattr(self, stage.method)()


def sweep_correlation(points) -> float:
    """Pearson correlation between a prune fraction and the average score.

    Degenerate series (fewer than two successful grid points, or a constant
    fraction axis) yield nan rather than failing the sweep.
    """
    from .evaluation import pearson

    try:
        return pearson([p[0] for p in points], [p[1] for p in points])
    except DossError:
        return float("nan")


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doss",
        description="Domain-specific sub-network experiments on synthetic "
                    "sequence transduction benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="manifest path")
    common.add_argument("--out", help="output directory (overrides [meta] out)")
    common.add_argument("--seed", type=int, help="override the global seed")
    common.add_argument("--threads", type=int, help="cap BLAS thread pools")
    for stage in STAGES.values():
        p = sub.add_parser(stage.name.replace("_", "-"), parents=[common], help=stage.help)
        p.set_defaults(stages=[stage.name])
        if stage.name == "extend":
            p.add_argument("--mode", choices=EXTENSION_MODES,
                           help="extension protocol (default: manifest [extend] mode)")
            p.add_argument("--steps", type=int, help="override extension training steps")
    p = sub.add_parser("run", parents=[common], help="execute the full pipeline with caching")
    p.add_argument("--stages", nargs="+", choices=list(STAGES),
                   help="run a subset of stages, in pipeline order")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:  # BLAS reads a smaller count as no cap
            parser.error("--threads must be >= 1")
        # BLAS reads these when numpy is first imported, which is below
        for var in BLAS_THREAD_VARS:
            os.environ[var] = str(args.threads)
    logging.basicConfig(
        level=getattr(logging, os.environ.get("DOSS_LOG", "INFO").upper(), logging.INFO),
        format="%(levelname)s %(name)s: %(message)s")

    from .manifest import load_manifest

    try:
        man = load_manifest(args.config, seed=args.seed)
        out = Path(args.out or man.out or f"runs/{Path(args.config).stem}")
        pipe = Pipeline(man, out)
        if args.command == "extend":
            pipe.extend(mode=args.mode, steps=args.steps)
        else:
            pipe.run(args.stages)
    except DossError as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
