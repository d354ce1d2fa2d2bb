"""Experiment manifests: sectioned key=value files describing a full run.

A manifest holds the model preset, the domain definitions (synthetic task
specs or parallel-text paths), per-stage training configs (the mask-creation
finetunes among them), the prune fractions, the extension plan, and the sweep
grid. One global seed expands into per-stage seeds via
derive_seed(global_seed, stage_name), so every stage is independently
reproducible.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import EXTENSION_MODES, STAGES
from .autograd import derive_seed
from .data import DomainDataset, FilterSpec, SyntheticTask, N_RESERVED, gen_domain
from .errors import ConfigError
from .masks import PruneSpec
from .model import ModelConfig
from .training import TrainConfig

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
    # each stage's train section (see doss.STAGES), and extend_mask: the
    # extension mask's finetune, [masks] trained [extend] ft_epochs epochs
    train: dict[str, TrainConfig]
    sweep_alphas: list[float]
    sweep_betas: list[float]
    sweep_steps: int
    eval_max_len: int
    eval_batch: int

    def stage_seed(self, stage: str) -> int:
        return derive_seed(self.seed, stage) % (2 ** 31)


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


def _mode(raw: str) -> str:
    if raw not in EXTENSION_MODES:
        raise ValueError(raw)
    return raw


# every train section takes the optimizer keys; [masks] trains ft_epochs
# epochs instead of steps, and only the masked stages mix domains
_OPTIM = {"learning_rate": float, "warmup": int, "dropout": float, "batch_tokens": int}
_TRAIN = _OPTIM | {"steps": int}
_MIXED = _TRAIN | {"mixing": str}
_PRUNE = {"alpha": float, "beta": float, "ft_epochs": int}

# section kind -> every key a section of that kind may hold -> its parser
_SCHEMA = {
    "meta": {"seed": int, "out": str},
    "model": {"vocab_content": int, "d_model": int, "ffn_dim": int, "enc_layers": int,
              "dec_layers": int, "heads": int, "dropout": float, "max_len": int},
    "domain": {"kind": str, "shift": int, "min_len": int, "max_len": int,
               "train_pairs": int, "eval_pairs": int, "seed": int, "src_file": str,
               "tgt_file": str, "filter_max_len": int, "min_ratio": float,
               "max_ratio": float},
    "train": _TRAIN,
    "doss": _MIXED,
    "masks": _OPTIM | _PRUNE | {"disjoint": _bool},
    "extend": _MIXED | _PRUNE | {"domain": str, "mode": _mode},
    "sweep": {"alphas": _floats, "betas": _floats, "steps": int},
    "eval": {"max_decode_len": int, "batch_size": int},
}

# the sections a manifest may hold besides [domain <name>] and [extension <name>]
_SECTIONS = {"meta", "model", "sweep", "eval", *(s.train for s in STAGES.values() if s.train)}

_TRAIN_DEFAULTS = {"batch_tokens": 256, "mixing": "round_robin"}


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


def _train_config(section: str, t: dict, seed: int) -> TrainConfig:
    """[section]'s TrainConfig: `steps` steps, or `ft_epochs` epochs for [masks]."""
    length = {"max_steps": t["steps"]} if "steps" in t else {"epochs": t["ft_epochs"]}
    cfg = TrainConfig(
        learning_rate=t["learning_rate"], warmup_steps=t["warmup"],
        batch_tokens=t["batch_tokens"], dropout=t["dropout"], seed=seed, mixing=t["mixing"],
        **length)
    try:
        return cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _parse_domain(parser, section: str, default_seed: int, content: int) -> DomainSpec:
    name = section.split(None, 1)[1]
    d = _read(parser, section, "domain", {
        "kind": "", "train_pairs": 1500, "eval_pairs": 150, "filter_max_len": 250,
        "min_ratio": 0.67, "max_ratio": 1.5, "min_len": 3, "max_len": 6, "shift": 1,
        "seed": default_seed, "src_file": None, "tgt_file": None})
    if d["train_pairs"] < 1 or d["eval_pairs"] < 1:
        raise ConfigError(f"[{section}] train_pairs and eval_pairs must be >= 1: "
                          f"{d['train_pairs']}, {d['eval_pairs']}")
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
        found = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"manifest {path} does not parse: {exc}") from exc
    if not found:
        raise ConfigError(f"manifest not found: {path}")
    if "meta" not in parser:
        raise ConfigError("manifest needs a [meta] section with the global seed")
    meta = _read(parser, "meta", "meta", {"seed": 0, "out": ""})

    m = _read(parser, "model", "model", {
        "vocab_content": 16, "d_model": 64, "ffn_dim": 128, "enc_layers": 2,
        "dec_layers": 2, "heads": 4, "dropout": 0.1, "max_len": 24})
    content = m["vocab_content"]
    model = ModelConfig(
        vocab_size=N_RESERVED + content, d_model=m["d_model"], ffn_dim=m["ffn_dim"],
        n_enc_layers=m["enc_layers"], n_dec_layers=m["dec_layers"], n_heads=m["heads"],
        dropout=m["dropout"], max_len=m["max_len"]).validate()

    named = {kind: [s for s in parser.sections() if s.startswith(kind + " ")]
             for kind in ("domain", "extension")}
    unknown = set(parser.sections()) - _SECTIONS - set(named["domain"] + named["extension"])
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    domains = [_parse_domain(parser, s, 10 + i, content) for i, s in enumerate(named["domain"])]
    if not domains:
        raise ConfigError("manifest defines no [domain <name>] sections")
    exts = [_parse_domain(parser, s, 90, content) for s in named["extension"]]
    if len(exts) > 1 or any(e.name == d.name for e in exts for d in domains):
        raise ConfigError(f"a manifest takes at most one [extension <name>] section, named "
                          f"unlike every [domain <name>]: {named['extension']}")
    extension = exts[0] if exts else None

    # desk-scale defaults per training regime (dropout per regime; rates
    # scaled for the model size, see README)
    sections = {
        "pretrain": _read(parser, "pretrain", "train", _TRAIN_DEFAULTS | {
            "learning_rate": 2e-3, "warmup": 200, "dropout": 0.1, "steps": 7000}),
        "masks": _read(parser, "masks", "masks", _TRAIN_DEFAULTS | {
            "learning_rate": 1e-3, "warmup": 50, "dropout": 0.3,
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
    if sweep["steps"] < 0 or not all(0.0 <= f <= 1.0 for f in sweep["alphas"] + sweep["betas"]):
        raise ConfigError(f"[sweep] needs steps >= 0 and alphas/betas in [0, 1]: {sweep}")
    evals = _read(parser, "eval", "eval", {"max_decode_len": 10, "batch_size": 64})
    if evals["max_decode_len"] < 1 or evals["batch_size"] < 1:
        raise ConfigError(f"[eval] max_decode_len and batch_size must be >= 1: {evals}")

    man = Manifest(
        seed=meta["seed"] if seed is None else seed, out=meta["out"] or None,
        model=model, domains=domains,
        prune=PruneSpec(masks["alpha"], masks["beta"]).validate(),
        masks_disjoint=masks["disjoint"], extension=extension, extend_mode=extend["mode"],
        extend_prune=PruneSpec(extend["alpha"], extend["beta"]).validate(),
        train={}, sweep_alphas=sweep["alphas"], sweep_betas=sweep["betas"],
        sweep_steps=sweep["steps"], eval_max_len=evals["max_decode_len"],
        eval_batch=evals["batch_size"])
    man.train = {s.train: _train_config(s.train, sections[s.train], man.stage_seed(s.name))
                 for s in STAGES.values() if s.train}
    man.train["extend_mask"] = _train_config("extend", {**masks, "ft_epochs": extend["ft_epochs"]},
                                             man.train["masks"].seed)
    return man
