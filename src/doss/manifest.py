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
from copy import copy
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


def _optim(learning_rate: float, warmup: int, dropout: float) -> dict:
    return {"learning_rate": (float, learning_rate), "warmup": (int, warmup),
            "dropout": (float, dropout), "batch_tokens": (int, 256)}


def _prune(fraction: float) -> dict:
    return {"alpha": (float, fraction), "beta": (float, fraction), "ft_epochs": (int, 5)}


# section -> every key it may hold -> (its parser, its value when the section
# does not set it). [domain <name>] and [extension <name>] read "domain", with
# the caller's seed default. Every train section takes the optimizer keys, at
# desk-scale defaults per training regime (dropout per regime; rates scaled
# for the model size, see README); [masks] trains ft_epochs epochs instead of
# steps, and only the masked stages take mixing.
_KEYS = {
    "meta": {"seed": (int, 0), "out": (str, "")},
    "model": {"vocab_content": (int, 16), "d_model": (int, 64), "ffn_dim": (int, 128),
              "enc_layers": (int, 2), "dec_layers": (int, 2), "heads": (int, 4),
              "dropout": (float, ModelConfig.dropout), "max_len": (int, 24)},
    "domain": {"kind": (str, ""), "shift": (int, SyntheticTask.shift), "min_len": (int, 3),
               "max_len": (int, 6), "train_pairs": (int, DomainSpec.train_pairs),
               "eval_pairs": (int, DomainSpec.eval_pairs), "seed": (int, None),
               "src_file": (str, None), "tgt_file": (str, None),
               "filter_max_len": (int, FilterSpec.max_len),
               "min_ratio": (float, FilterSpec.min_ratio),
               "max_ratio": (float, FilterSpec.max_ratio)},
    "pretrain": _optim(2e-3, 200, 0.1) | {"steps": (int, 7000)},
    "masks": _optim(1e-3, 50, 0.3) | _prune(0.6) | {"disjoint": (_bool, False)},
    "doss": _optim(1e-3, 50, 0.1) | {"steps": (int, 4500), "mixing": (str, "proportional")},
    "finetune": _optim(1e-3, 50, 0.3) | {"steps": (int, 1200)},
    "extend": _optim(1.25e-3, 100, 0.1) | _prune(0.1) | {
        "steps": (int, 4500), "mixing": (str, TrainConfig.mixing), "domain": (str, None),
        "mode": (_mode, "new_only_disjoint")},
    "sweep": {"alphas": (_floats, []), "betas": (_floats, []), "steps": (int, 1500)},
    "eval": {"max_decode_len": (int, 10), "batch_size": (int, 64)},
}

# the sections a manifest may hold besides [domain <name>] and [extension <name>]
_SECTIONS = _KEYS.keys() - {"domain"}


def _read(parser, section: str, kind: str | None = None, **defaults) -> dict:
    """The typed values of `section`, whose keys are those of `_KEYS[kind]`
    (`kind` defaults to `section`): each key the section does not set takes
    its `defaults` value, else (a copy of) its table default. Keys outside the
    table and values that do not parse are ConfigErrors."""
    keys = _KEYS[kind or section]
    values = {key: copy(default) for key, (_, default) in keys.items()} | defaults
    if section not in parser:
        return values
    unknown = set(parser[section]) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    for key, raw in parser[section].items():
        try:
            values[key] = keys[key][0](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key} in [{section}]: {raw!r}") from exc
    return values


def _train_config(section: str, t: dict, seed: int) -> TrainConfig:
    """[section]'s TrainConfig: `steps` steps, or `ft_epochs` epochs for [masks],
    and TrainConfig's own mixing when the section takes none."""
    length = {"max_steps": t["steps"]} if "steps" in t else {"epochs": t["ft_epochs"]}
    mixing = {"mixing": t["mixing"]} if "mixing" in t else {}
    try:
        return TrainConfig(
            learning_rate=t["learning_rate"], warmup_steps=t["warmup"],
            batch_tokens=t["batch_tokens"], dropout=t["dropout"], seed=seed, **length, **mixing)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _parse_domain(parser, section: str, default_seed: int, content: int) -> DomainSpec:
    name = section.split(None, 1)[1]
    d = _read(parser, section, "domain", seed=default_seed)
    if d["train_pairs"] < 1 or d["eval_pairs"] < 1:
        raise ConfigError(f"[{section}] train_pairs and eval_pairs must be >= 1: "
                          f"{d['train_pairs']}, {d['eval_pairs']}")
    spec = DomainSpec(
        name=name, train_pairs=d["train_pairs"], eval_pairs=d["eval_pairs"],
        filter=FilterSpec(d["filter_max_len"], d["min_ratio"], d["max_ratio"]))
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
        min_len=d["min_len"], max_len=d["max_len"], shift=d["shift"], seed=d["seed"])
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
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] would set {sorted(parser.defaults())} in every section; "
                          f"give each key in its own section")
    if "meta" not in parser:
        raise ConfigError("manifest needs a [meta] section with the global seed")
    meta = _read(parser, "meta")

    m = _read(parser, "model")
    content = m["vocab_content"]
    model = ModelConfig(
        vocab_size=N_RESERVED + content, d_model=m["d_model"], ffn_dim=m["ffn_dim"],
        n_enc_layers=m["enc_layers"], n_dec_layers=m["dec_layers"], n_heads=m["heads"],
        dropout=m["dropout"], max_len=m["max_len"])

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

    sections = {s.train: _read(parser, s.train) for s in STAGES.values() if s.train}
    masks, extend = sections["masks"], sections["extend"]
    ext_name = extend["domain"]
    if ext_name is not None and (extension is None or extension.name != ext_name):
        raise ConfigError(f"[extend] references domain {ext_name!r} without a "
                          f"matching [extension {ext_name}] section")
    sweep = _read(parser, "sweep")
    if sweep["steps"] < 0 or not all(0.0 <= f <= 1.0 for f in sweep["alphas"] + sweep["betas"]):
        raise ConfigError(f"[sweep] needs steps >= 0 and alphas/betas in [0, 1]: {sweep}")
    evals = _read(parser, "eval")
    if evals["max_decode_len"] < 1 or evals["batch_size"] < 1:
        raise ConfigError(f"[eval] max_decode_len and batch_size must be >= 1: {evals}")

    man = Manifest(
        seed=meta["seed"] if seed is None else seed, out=meta["out"] or None,
        model=model, domains=domains, prune=PruneSpec(masks["alpha"], masks["beta"]),
        masks_disjoint=masks["disjoint"], extension=extension, extend_mode=extend["mode"],
        extend_prune=PruneSpec(extend["alpha"], extend["beta"]),
        train={}, sweep_alphas=sweep["alphas"], sweep_betas=sweep["betas"],
        sweep_steps=sweep["steps"], eval_max_len=evals["max_decode_len"],
        eval_batch=evals["batch_size"])
    man.train = {s.train: _train_config(s.train, sections[s.train], man.stage_seed(s.name))
                 for s in STAGES.values() if s.train}
    man.train["extend_mask"] = _train_config("extend", {**masks, "ft_epochs": extend["ft_epochs"]},
                                             man.train["masks"].seed)
    return man
