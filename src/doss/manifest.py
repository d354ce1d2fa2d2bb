"""Experiment manifests: sectioned key=value files describing a full run.

A manifest holds the model preset, the domain definitions (synthetic task
specs or parallel-text paths), per-stage training configs, the prune spec,
the extension plan, and the sweep grid. One global seed expands into
per-stage seeds via derive_seed(global_seed, stage_name), so every stage is
independently reproducible. Stage keys (config hashes) come from the JSON
canonicalization of everything the stage depends on.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .autograd import derive_seed
from .data import DomainDataset, FilterSpec, SyntheticTask, N_RESERVED, gen_domain
from .errors import ConfigError
from .masks import PruneSpec
from .model import ModelConfig
from .training import ExtensionMode, TrainConfig

@dataclass
class DomainSpec:
    """One domain: either a synthetic task or a pair of parallel text files."""
    name: str
    task: SyntheticTask | None = None
    train_pairs: int = 1500
    eval_pairs: int = 150
    src_file: str | None = None
    tgt_file: str | None = None
    filter: FilterSpec = field(default_factory=FilterSpec)

    @property
    def synthetic(self) -> bool:
        return self.task is not None

    def train_set(self) -> DomainDataset:
        if not self.synthetic:
            raise ConfigError(f"domain {self.name!r} is file-based; load it via the cli")
        return gen_domain(self.task, self.train_pairs, domain_id=self.name)

    def eval_set(self) -> DomainDataset:
        if not self.synthetic:
            raise ConfigError(f"domain {self.name!r} is file-based; load it via the cli")
        held_out = replace(self.task, seed=derive_seed("eval-split", self.task.seed))
        return gen_domain(held_out, self.eval_pairs, domain_id=self.name)


@dataclass
class Manifest:
    seed: int
    out: str | None
    model: ModelConfig
    domains: list[DomainSpec]
    prune: PruneSpec
    masks_disjoint: bool
    extension: DomainSpec | None
    extend_mode: str
    extend_prune: PruneSpec
    train: dict[str, TrainConfig]        # pretrain / masks / doss / finetune / extend
    sweep_alphas: list[float]
    sweep_betas: list[float]
    sweep_steps: int
    eval_max_len: int
    eval_batch: int

    def stage_seed(self, stage: str) -> int:
        return derive_seed(self.seed, stage) % (2 ** 31)

    def stage_train(self, stage: str) -> TrainConfig | None:
        """The training config a pipeline stage runs with, if it trains."""
        return self.train.get(_STAGE_TRAIN.get(stage, ""))

    def _fingerprint(self) -> dict:
        return {
            "seed": self.seed,
            "model": vars(self.model) | {},
            "domains": [_domain_dict(d) for d in self.domains],
            "extension": _domain_dict(self.extension) if self.extension else None,
        }

    def stage_key(self, stage: str, extra: dict | None = None) -> str:
        cfg = self.stage_train(stage)
        payload = {
            "stage": stage,
            "common": self._fingerprint(),
            "train": None if cfg is None else vars(cfg),
            "extra": extra or {},
        }
        if stage == "make_masks":
            payload["prune"] = vars(self.prune) | {"disjoint": self.masks_disjoint}
        if stage == "extend":
            payload["prune"] = vars(self.extend_prune) | {"mode": self.extend_mode}
        text = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# pipeline stage -> its [section] and key in Manifest.train
_STAGE_TRAIN = {"pretrain": "pretrain", "make_masks": "masks", "train_doss": "doss",
                "finetune": "finetune", "extend": "extend"}


def _domain_dict(d: DomainSpec | None) -> dict | None:
    if d is None:
        return None
    out = {"name": d.name, "train_pairs": d.train_pairs, "eval_pairs": d.eval_pairs}
    if d.task is not None:
        out["task"] = vars(d.task) | {}
    else:
        out["src_file"] = d.src_file
        out["tgt_file"] = d.tgt_file
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _floats(raw: str) -> list[float]:
    return [float(x) for x in raw.split()]


# every train section takes the optimizer keys; [masks] trains ft_epochs
# epochs instead of steps, and only the masked stages mix domains
_OPTIM = {"learning_rate": float, "warmup": int, "dropout": float, "batch_tokens": int,
          "grad_clip": float}
_TRAIN = _OPTIM | {"steps": int}
_MIXED = _TRAIN | {"mixing": str}
_PRUNE = {"alpha": float, "beta": float, "ft_epochs": int}

# section kind -> every key a section of that kind may hold -> its parser
_SCHEMA = {
    "meta": {"seed": int, "out": str},
    "model": {"vocab_content": int, "d_model": int, "ffn_dim": int, "enc_layers": int,
              "dec_layers": int, "heads": int, "dropout": float, "max_len": int,
              "tie_embeddings": _bool},
    "domain": {"kind": str, "shift": int, "min_len": int, "max_len": int,
               "train_pairs": int, "eval_pairs": int, "seed": int, "src_file": str,
               "tgt_file": str, "filter_max_len": int, "min_ratio": float,
               "max_ratio": float},
    "train": _TRAIN,
    "doss": _MIXED,
    "masks": _OPTIM | _PRUNE | {"disjoint": _bool},
    "extend": _MIXED | _PRUNE | {"domain": str, "mode": lambda raw: ExtensionMode(raw).value},
    "sweep": {"alphas": _floats, "betas": _floats, "steps": int},
    "eval": {"max_decode_len": int, "batch_size": int},
}

# a grad_clip <= 0 means no clipping
_TRAIN_DEFAULTS = {"batch_tokens": 256, "grad_clip": 1.0, "mixing": "round_robin"}


def _read(parser, section: str, kind: str, defaults: dict) -> dict:
    """The typed values of `section` over `defaults` (all of them when the
    section is absent). Keys outside the kind's schema and values that do not
    parse are ConfigErrors."""
    values = dict(defaults)
    if section not in parser:
        return values
    schema = _SCHEMA[kind]
    unknown = set(parser[section]) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    for key, raw in parser[section].items():
        try:
            values[key] = schema[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key} in [{section}]: {raw!r}") from exc
    return values


def _train_config(t: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=t["learning_rate"], warmup_steps=t["warmup"],
        batch_tokens=t["batch_tokens"], dropout=t["dropout"], max_steps=t["steps"], seed=seed,
        grad_clip=None if t["grad_clip"] <= 0 else t["grad_clip"], mixing=t["mixing"],
    ).validate()


def _parse_domain(parser, section: str, default_seed: int, content: int) -> DomainSpec:
    name = section.split(None, 1)[1]
    d = _read(parser, section, "domain", {
        "kind": "", "train_pairs": 1500, "eval_pairs": 150, "filter_max_len": 250,
        "min_ratio": 0.67, "max_ratio": 1.5, "min_len": 3, "max_len": 6, "shift": 1,
        "seed": default_seed, "src_file": None, "tgt_file": None})
    spec = DomainSpec(
        name=name, train_pairs=d["train_pairs"], eval_pairs=d["eval_pairs"],
        filter=FilterSpec(d["filter_max_len"], d["min_ratio"], d["max_ratio"]).validate())
    if d["kind"] == "parallel":
        for key in ("src_file", "tgt_file"):
            if d[key] is None:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            if not Path(d[key]).exists():
                raise ConfigError(f"domain {name!r} references missing file {d[key]}")
        spec.src_file, spec.tgt_file = d["src_file"], d["tgt_file"]
        return spec
    spec.task = SyntheticTask(
        kind=d["kind"] or "copy", content_lo=N_RESERVED, content_hi=N_RESERVED + content,
        min_len=d["min_len"], max_len=d["max_len"], shift=d["shift"], seed=d["seed"],
    ).validate()
    return spec


def load_manifest(path, seed: int | None = None) -> Manifest:
    """Parse a manifest. `seed` replaces [meta] seed before any stage seed is
    derived from it."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"manifest {path} does not parse: {exc}") from exc
    if not found:
        raise ConfigError(f"manifest not found: {path}")
    if "meta" not in parser:
        raise ConfigError("manifest needs a [meta] section with the global seed")
    meta = _read(parser, "meta", "meta", {"seed": 0, "out": ""})

    m = _read(parser, "model", "model", {
        "vocab_content": 16, "d_model": 64, "ffn_dim": 128, "enc_layers": 2,
        "dec_layers": 2, "heads": 4, "dropout": 0.1, "max_len": 24, "tie_embeddings": False})
    content = m["vocab_content"]
    model = ModelConfig(
        vocab_size=N_RESERVED + content, d_model=m["d_model"], ffn_dim=m["ffn_dim"],
        n_enc_layers=m["enc_layers"], n_dec_layers=m["dec_layers"], n_heads=m["heads"],
        dropout=m["dropout"], max_len=m["max_len"], tie_embeddings=m["tie_embeddings"],
    ).validate()

    domain_secs = [s for s in parser.sections() if s.startswith("domain ")]
    domains = [_parse_domain(parser, s, 10 + i, content) for i, s in enumerate(domain_secs)]
    if not domains:
        raise ConfigError("manifest defines no [domain <name>] sections")
    extension = None
    for sec in parser.sections():
        if sec.startswith("extension "):
            extension = _parse_domain(parser, sec, 90, content)

    # desk-scale defaults per training regime (dropout per regime; rates
    # scaled for the model size, see README)
    sections = {
        "pretrain": _read(parser, "pretrain", "train", _TRAIN_DEFAULTS | {
            "learning_rate": 2e-3, "warmup": 200, "dropout": 0.1, "steps": 7000}),
        "masks": _read(parser, "masks", "masks", _TRAIN_DEFAULTS | {
            "learning_rate": 1e-3, "warmup": 50, "dropout": 0.3, "steps": 1,
            "alpha": 0.6, "beta": 0.6, "ft_epochs": 5, "disjoint": False}),
        "doss": _read(parser, "doss", "doss", _TRAIN_DEFAULTS | {
            "learning_rate": 1e-3, "warmup": 50, "dropout": 0.1, "steps": 4500,
            "mixing": "proportional"}),
        "finetune": _read(parser, "finetune", "train", _TRAIN_DEFAULTS | {
            "learning_rate": 1e-3, "warmup": 50, "dropout": 0.3, "steps": 1200}),
        "extend": _read(parser, "extend", "extend", _TRAIN_DEFAULTS | {
            "learning_rate": 1.25e-3, "warmup": 100, "dropout": 0.1, "steps": 4500,
            "alpha": 0.1, "beta": 0.1, "ft_epochs": 5, "mode": "new_only_disjoint",
            "domain": None}),
    }
    masks, extend = sections["masks"], sections["extend"]
    ext_name = extend["domain"]
    if ext_name is not None and (extension is None or extension.name != ext_name):
        raise ConfigError(f"[extend] references domain {ext_name!r} without a "
                          f"matching [extension {ext_name}] section")
    sweep = _read(parser, "sweep", "sweep", {"alphas": [], "betas": [], "steps": 1500})
    evals = _read(parser, "eval", "eval", {"max_decode_len": 10, "batch_size": 64})

    man = Manifest(
        seed=meta["seed"] if seed is None else seed, out=meta["out"] or None,
        model=model, domains=domains,
        prune=PruneSpec(masks["alpha"], masks["beta"], masks["ft_epochs"]).validate(),
        masks_disjoint=masks["disjoint"], extension=extension, extend_mode=extend["mode"],
        extend_prune=PruneSpec(extend["alpha"], extend["beta"], extend["ft_epochs"]).validate(),
        train={}, sweep_alphas=sweep["alphas"], sweep_betas=sweep["betas"],
        sweep_steps=sweep["steps"], eval_max_len=evals["max_decode_len"],
        eval_batch=evals["batch_size"])
    for stage, name in _STAGE_TRAIN.items():
        man.train[name] = _train_config(sections[name], man.stage_seed(stage))
    return man
