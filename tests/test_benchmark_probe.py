"""The benchmark's recording contract with the package.

benchmarks/spans.py measures the program by rebinding `doss` module
attributes, and it times each train step from one batch pull through
`training.batch_iterator` or `training.epoch_batches` to the next. A rename,
or a train loop that pulls batches some other way, breaks only the traced
benchmark run, so it is pinned here.
"""

import importlib
import importlib.util
from pathlib import Path

from doss import training
from doss.data import SyntheticTask, epoch_batches, gen_domain
from doss.masks import MaskSet, full_mask
from doss.model import ModelConfig, build_model
from doss.training import TrainConfig

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"
MODULES = ("autograd", "model", "training", "data", "masks", "evaluation", "manifest", "cli")


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    mods = [importlib.import_module(f"doss.{n}") for n in MODULES]
    return mods + [importlib.import_module("doss.cli").Pipeline]


def test_probe_opens_one_step_span_per_train_step_and_uninstalls():
    spans = _load_spans()
    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    lam0, registry = build_model(cfg, seed=4)
    copy, rev = (gen_domain(SyntheticTask(kind, content_hi=14, min_len=3, max_len=5, seed=s),
                            40, domain_id=kind) for kind, s in (("copy", 1), ("reverse", 2)))
    by_epochs = TrainConfig(1e-3, 10, 64, 0.1, epochs=2, seed=3)
    by_steps = TrainConfig(1e-3, 10, 64, 0.1, max_steps=5, seed=3)
    masks = MaskSet([full_mask(registry, "copy"), full_mask(registry, "reverse")])
    expect = sum(len(epoch_batches(copy, 64, 3, e)) for e in range(2)) + 5 + 5

    before = [dict(vars(ns)) for ns in _namespaces()]
    probe = spans.Probe(timing=True)
    probe.install()
    try:
        training.train_full(lam0, copy, by_epochs, cfg)
        training.train_full(lam0, copy, by_steps, cfg)
        training.train_doss(lam0, masks, [copy, rev], by_steps, cfg)
    finally:
        probe.uninstall()
    after = [dict(vars(ns)) for ns in _namespaces()]

    steps = [s for s in probe.spans if s[0] == "training.step"]
    assert len(steps) == probe.counts["steps"] == expect
    assert all(s[2] is not None and s[2] >= s[1] for s in probe.spans)
    assert [b.keys() for b in before] == [a.keys() for a in after]
    assert all(a[k] is b[k] for b, a in zip(before, after) for k in b)
