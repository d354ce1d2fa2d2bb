"""Experiment command line: pretrain | make-masks | train-doss | finetune |
extend | eval | sweep | run.

Every stage writes its artifacts plus a `<artifact>.meta` sidecar holding the
producing config hash, the stage seed, and the artifact's sha256. A stage is
skipped when all of its artifacts exist with matching sidecars, so `run` is
idempotent and a corrupted artifact makes exactly its producing stage rerun.
Set DOSS_LOG=DEBUG|INFO|WARNING for verbosity; --threads caps the BLAS
thread pools (it must be handled before numpy is first imported).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import logging
import os
from pathlib import Path

from .errors import ConfigError, DossError

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


def _meta_path(artifact: Path) -> Path:
    return artifact.with_name(artifact.name + ".meta")


def write_meta(artifact: Path, key: str, stage: str, seed: int) -> None:
    _meta_path(artifact).write_text(
        f"config_hash={key}\nstage={stage}\nseed={seed}\n"
        f"sha256={_sha256_file(artifact)}\n", encoding="utf-8")


def artifact_valid(artifact: Path, key: str) -> bool:
    meta = _meta_path(artifact)
    if not artifact.exists() or not meta.exists():
        return False
    fields = {}
    for line in meta.read_text(encoding="utf-8").splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            fields[k] = v
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

    # -- artifact paths ----------------------------------------------------

    @property
    def base_ckpt(self) -> Path:
        return self.out / "base.ckpt"

    @property
    def base_reg(self) -> Path:
        return self.out / "base.reg"

    @property
    def doss_ckpt(self) -> Path:
        return self.out / "doss.ckpt"

    def mask_path(self, domain: str) -> Path:
        return self.out / f"mask_{domain}.mask"

    def ft_ckpt(self, name: str) -> Path:
        return self.out / f"ft_{name}.ckpt"

    @property
    def ft_names(self) -> list[str]:
        """One finetune baseline per domain, plus one on all domains."""
        return [d.name for d in self.man.domains] + ["all"]

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
        texts = [None if s.synthetic else
                 filter_corpus(load_parallel_text(s.src_file, s.tgt_file), s.filter)[0]
                 for s in specs]
        base_text = [p for t in texts[:len(man.domains)] if t for p in t]
        vocab = vocab_from_pairs(base_text, man.model.vocab_size - N_RESERVED)
        out = []
        for spec, text in zip(specs, texts):
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
                                  f"needs {need}")
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
        from .model import load_checkpoint, load_registry

        store = load_checkpoint(self.base_ckpt)
        registry = load_registry(self.base_reg, store)
        return store, registry

    def load_masks(self):
        from .masks import MaskSet, load_mask

        return MaskSet([load_mask(self.mask_path(d.name)) for d in self.man.domains])

    # -- caching -----------------------------------------------------------

    def _upstream(self, *roles: str) -> dict:
        """sha256 of upstream artifacts by role, for a stage key."""
        files = {"base": self.base_ckpt, "doss": self.doss_ckpt,
                 "masks": [self.mask_path(d.name) for d in self.man.domains],
                 "fts": [self.ft_ckpt(n) for n in self.ft_names]}
        return {r: [_sha256_file(f) for f in files[r]] if isinstance(files[r], list)
                else _sha256_file(files[r]) for r in roles}

    def _cached(self, stage: str, artifacts: list[Path], compute,
                extra: dict | None = None) -> bool:
        """Run `compute(key)` unless every artifact is valid for the stage
        key, then stamp each artifact's sidecar. True when it ran."""
        man = self.man
        key = man.stage_key(stage, extra)
        if all(artifact_valid(a, key) for a in artifacts):
            log.info("%s: cache hit (key %s), skipping", stage, key)
            return False
        log.info("%s: running (key %s)", stage, key)
        compute(key)
        cfg = man.stage_train(stage)
        for a in artifacts:
            write_meta(a, key, stage, man.seed if cfg is None else cfg.seed)
        return True

    # -- stages ------------------------------------------------------------

    def pretrain(self) -> bool:
        from .model import build_model, save_checkpoint, save_registry
        from .training import MetricsLog, train_full

        man = self.man
        metrics = self.out / "pretrain_metrics.csv"

        def compute(key):
            store, registry = build_model(man.model, man.stage_seed("init"))
            mlog = MetricsLog()
            lam0 = train_full(store, self.train_sets(), man.train["pretrain"],
                              man.model, log=mlog)
            save_checkpoint(lam0, self.base_ckpt)
            save_registry(registry, self.base_reg)
            mlog.write_csv(metrics)

        return self._cached("pretrain", [self.base_ckpt, self.base_reg, metrics], compute)

    def make_masks(self, disjoint: bool | None = None) -> bool:
        from .masks import MaskSet, create_domain_mask, overlap_stats, save_mask

        man = self.man
        disjoint = man.masks_disjoint if disjoint is None else disjoint
        stats_path = self.out / "mask_stats.csv"

        def compute(key):
            lam0, registry = self.load_base()
            built = MaskSet([])
            for spec, ds in zip(man.domains, self.train_sets()):
                log.info("make_masks: domain %s%s", spec.name, " (disjoint)" if disjoint else "")
                mask = create_domain_mask(lam0, ds, man.prune, man.train["masks"], registry,
                                          man.model, disjoint_against=built if disjoint else None)
                built = built.plus(mask)
                save_mask(mask, self.mask_path(spec.name))
            stats = overlap_stats(built)
            stats_path.write_text(f"# config_hash={key}\n" + "\n".join(stats.to_lines()) + "\n",
                                  encoding="utf-8")

        arts = [self.mask_path(d.name) for d in man.domains] + [stats_path]
        return self._cached("make_masks", arts, compute,
                            {"disjoint": disjoint, **self._upstream("base")})

    def train_doss(self) -> bool:
        from .model import save_checkpoint
        from .training import MetricsLog, train_doss

        man = self.man
        metrics = self.out / "doss_metrics.csv"

        def compute(key):
            lam0, _ = self.load_base()
            mlog = MetricsLog()
            lam = train_doss(lam0, self.load_masks(), self.train_sets(),
                             man.train["doss"], man.model, log=mlog)
            save_checkpoint(lam, self.doss_ckpt)
            mlog.write_csv(metrics)

        return self._cached("train_doss", [self.doss_ckpt, metrics], compute,
                            self._upstream("base", "masks"))

    def finetune(self) -> bool:
        from .model import save_checkpoint
        from .training import MetricsLog, train_full

        man = self.man

        def compute(key):
            lam0, _ = self.load_base()
            sets = self.train_sets()
            for name, data in zip(self.ft_names, [[ds] for ds in sets] + [sets]):
                log.info("finetune: %s", name)
                mlog = MetricsLog()
                trained = train_full(lam0, data, man.train["finetune"], man.model, log=mlog)
                save_checkpoint(trained, self.ft_ckpt(name))
                mlog.write_csv(self.out / f"ft_{name}_metrics.csv")

        arts = [self.ft_ckpt(name) for name in self.ft_names]
        arts += [self.out / f"ft_{name}_metrics.csv" for name in self.ft_names]
        return self._cached("finetune", arts, compute, self._upstream("base"))

    def extend(self, mode: str | None = None, steps: int | None = None) -> bool:
        from .evaluation import Variant, eval_matrix
        from .masks import save_mask
        from .model import count_params, load_checkpoint, save_checkpoint
        from .training import MetricsLog, extend_domain

        man = self.man
        mode = mode or man.extend_mode
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
            lam0, registry = self.load_base()
            lam = load_checkpoint(self.doss_ckpt)
            maskset = self.load_masks()
            mlog = MetricsLog()
            lam2, maskset2 = extend_domain(
                lam, lam0, maskset, ext_train, mode, man.extend_prune, cfg,
                model_cfg=man.model, registry=registry, mask_cfg=man.train["masks"],
                existing_data=self.train_sets(), log=mlog)
            new_mask = maskset2.get(ext_train.domain_id)
            save_mask(new_mask, new_mask_path)
            save_checkpoint(lam2, ext_ckpt)
            lam2 = load_checkpoint(ext_ckpt)  # score the float32 model on disk
            mlog.write_csv(metrics)

            trained_count = (count_params(registry, maskset2.union_mask())["masked_ones"]
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
            report_md.write_text(
                f"<!-- config_hash={key} -->\n"
                + rep_old.to_markdown(f"Domain extension ({mode}): pre-existing domains")
                + "\n" + rep_new.to_markdown(f"Domain extension ({mode}): new domain"),
                encoding="utf-8")
            new_csv_rows = rep_new.to_csv().splitlines()[1:]
            report_csv.write_text(f"# config_hash={key}\n" + rep_old.to_csv()
                                  + "\n".join(new_csv_rows) + "\n", encoding="utf-8")

        arts = [new_mask_path, ext_ckpt, metrics, diff_path, report_md, report_csv]
        return self._cached("extend", arts, compute, {
            "mode": mode, "steps": cfg.max_steps, **self._upstream("base", "doss", "masks")})

    def evaluate(self) -> bool:
        from .evaluation import Variant, eval_matrix
        from .model import count_params, load_checkpoint

        man = self.man
        report_md = self.out / "report.md"
        report_csv = self.out / "report.csv"

        def compute(key):
            lam0, registry = self.load_base()
            maskset = self.load_masks()
            total = count_params(registry)["total"]
            variants = [Variant("baseline", lam0, trainable=0)]
            for name in self.ft_names:
                variants.append(Variant(f"ft_{name}", load_checkpoint(self.ft_ckpt(name)),
                                        trainable=total))
            variants.append(Variant(
                "doss", load_checkpoint(self.doss_ckpt), base=lam0, masks=maskset,
                trainable=count_params(registry, maskset.union_mask())["masked_ones"]))
            report = eval_matrix(variants, self.eval_sets(), man.model,
                                 man.eval_max_len, man.eval_batch)
            report_md.write_text(f"<!-- config_hash={key} -->\n"
                                 + report.to_markdown("Domain finetuning vs sub-networks"),
                                 encoding="utf-8")
            report_csv.write_text(f"# config_hash={key}\n" + report.to_csv(), encoding="utf-8")

        return self._cached("eval", [report_md, report_csv], compute, {
            "max_len": man.eval_max_len, "batch": man.eval_batch,
            **self._upstream("base", "doss", "fts", "masks")})

    def sweep(self) -> bool:
        from .evaluation import Variant, eval_matrix
        from .masks import MaskSet, PruneSpec, create_domain_mask
        from .training import train_doss

        man = self.man
        if not man.sweep_alphas or not man.sweep_betas:
            raise ConfigError("sweep needs non-empty alphas/betas grids in [sweep]")
        grid = sorted({(a, b) for a in man.sweep_alphas for b in man.sweep_betas})
        sweep_csv = self.out / "sweep.csv"
        corr_csv = self.out / "correlations.csv"

        def compute(key):
            lam0, registry = self.load_base()
            doss_cfg = dataclasses.replace(man.train["doss"], max_steps=man.sweep_steps)
            domain_ids = [d.name for d in man.domains]
            rows = []
            for alpha, beta in grid:
                log.info("sweep: alpha=%s beta=%s", alpha, beta)
                try:
                    spec = PruneSpec(alpha, beta, man.prune.ft_epochs)
                    masks = MaskSet([create_domain_mask(lam0, ds, spec, man.train["masks"],
                                                        registry, man.model)
                                     for ds in self.train_sets()])
                    lam = train_doss(lam0, masks, self.train_sets(), doss_cfg, man.model)
                    rep = eval_matrix([Variant("doss", lam, base=lam0, masks=masks)],
                                      self.eval_sets(), man.model,
                                      man.eval_max_len, man.eval_batch)
                    avg_bleu, avg_em = rep.averages("doss")
                    cells = [rep.cell("doss", d) for d in domain_ids]
                    rows.append((alpha, beta, "ok",
                                 [c.bleu for c in cells], [c.exact_match for c in cells],
                                 avg_bleu, avg_em))
                except DossError as exc:  # keep the rest of the grid running
                    log.warning("sweep point (%s, %s) failed: %s", alpha, beta, exc)
                    rows.append((alpha, beta, "failed", [], [], float("nan"), float("nan")))
            header = ["alpha", "beta", "status"]
            header += [f"bleu_{d}" for d in domain_ids] + [f"em_{d}" for d in domain_ids]
            header += ["avg_bleu", "avg_em"]
            lines = [f"# config_hash={key}", ",".join(header)]
            for alpha, beta, status, bleus, ems, avg_bleu, avg_em in rows:
                bleu_cols = [f"{x!r}" for x in bleus] or [""] * len(domain_ids)
                em_cols = [f"{x!r}" for x in ems] or [""] * len(domain_ids)
                lines.append(",".join([f"{alpha!r}", f"{beta!r}", status]
                                      + bleu_cols + em_cols + [f"{avg_bleu!r}", f"{avg_em!r}"]))
            sweep_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
            ok_rows = [r for r in rows if r[2] == "ok"]
            corr_lines = [f"# config_hash={key}", "coefficient,value"]
            corr_lines.append(f"rho_alpha,{sweep_correlation([(r[0], r[5]) for r in ok_rows])!r}")
            corr_lines.append(f"rho_beta,{sweep_correlation([(r[1], r[5]) for r in ok_rows])!r}")
            corr_csv.write_text("\n".join(corr_lines) + "\n", encoding="utf-8")

        return self._cached("sweep", [sweep_csv, corr_csv], compute, {
            "sweep": grid, "steps": man.sweep_steps, **self._upstream("base")})

    def run(self, stages: list[str] | None = None) -> None:
        order = stages or ["pretrain", "make_masks", "train_doss", "finetune",
                           "extend", "eval"]
        for stage in order:
            if stage == "extend" and self.man.extension is None:
                log.info("run: no extension domain configured, skipping extend")
                continue
            getattr(self, stage if stage != "eval" else "evaluate")()


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


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doss",
        description="Domain-specific sub-network experiments on synthetic "
                    "sequence transduction benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="manifest path")
        p.add_argument("--out", help="output directory (overrides [meta] out)")
        p.add_argument("--seed", type=int, help="override the global seed")
        p.add_argument("--threads", type=int, help="cap BLAS thread pools")

    common(sub.add_parser("pretrain", help="train the base model"))
    p = sub.add_parser("make-masks", help="create one mask per domain")
    common(p)
    p.add_argument("--disjoint", action="store_true",
                   help="constrain each mask to be disjoint from earlier ones")
    common(sub.add_parser("train-doss", help="structure-aware joint training"))
    common(sub.add_parser("finetune", help="per-domain and all-domain baselines"))
    p = sub.add_parser("extend", help="adapt the trained model to a new domain")
    common(p)
    p.add_argument("--mode", choices=["ft_all_ones", "new_only_unconstrained",
                                      "all_masks_joint", "new_only_disjoint"],
                   help="extension protocol (default: manifest [extend] mode)")
    p.add_argument("--steps", type=int, help="override extension training steps")
    common(sub.add_parser("eval", help="score all variants on all domains"))
    common(sub.add_parser("sweep", help="grid over prune fractions"))
    p = sub.add_parser("run", help="execute the full pipeline with caching")
    common(p)
    p.add_argument("--stages", nargs="+",
                   choices=["pretrain", "make_masks", "train_doss", "finetune",
                            "extend", "eval", "sweep"],
                   help="run a subset of stages in order")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        # BLAS reads these when numpy is first imported, which is below
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    logging.basicConfig(
        level=getattr(logging, os.environ.get("DOSS_LOG", "INFO").upper(), logging.INFO),
        format="%(levelname)s %(name)s: %(message)s")

    from .manifest import load_manifest

    try:
        man = load_manifest(args.config, seed=args.seed)
        out = Path(args.out or man.out or f"runs/{Path(args.config).stem}")
        pipe = Pipeline(man, out)
        command = args.command.replace("-", "_")
        if command == "make_masks":
            pipe.make_masks(disjoint=True if args.disjoint else None)
        elif command == "extend":
            pipe.extend(mode=args.mode, steps=args.steps)
        elif command == "eval":
            pipe.evaluate()
        elif command == "run":
            pipe.run(args.stages)
        else:
            getattr(pipe, command)()
    except DossError as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
