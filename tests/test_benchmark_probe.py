"""The benchmark's recording contract with the package.

benchmarks/spans.py measures the program by rebinding `doss` module
attributes, and it times each train step from one batch pull through
`training.batch_iterator` or `training.epoch_batches` to the next. It counts
the decoder positions of greedy decoding, one per row still decoding and
step, from the token array passed as the fifth argument of
`evaluation.decode_logits`. A rename, or a train loop that
pulls batches some other way, breaks only the traced benchmark run, so it is
pinned here. So are the calls benchmarks/workloads.py makes outside the probe:
its manifests, `build_model`'s (store, layout) pair and `magnitude_prune`, and
spans.py's copy of the stage table's method names.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from doss import STAGES, evaluation, training
from doss.data import SyntheticTask, epoch_batches, gen_domain
from doss.manifest import load_manifest
from doss.masks import MaskSet, full_mask, on_store
from doss.model import DECODER, ENCODER, ModelConfig, build_model
from doss.training import TrainConfig
from support import pool_size

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SPANS = BENCHMARKS / "spans.py"
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
    lam0, layout = build_model(cfg, seed=4)
    copy, rev = (gen_domain(SyntheticTask(kind, content_hi=14, min_len=3, max_len=5, seed=s),
                            40, domain_id=kind) for kind, s in (("copy", 1), ("reverse", 2)))
    by_epochs = TrainConfig(1e-3, 10, 64, 0.1, epochs=2, seed=3)
    by_steps = TrainConfig(1e-3, 10, 64, 0.1, max_steps=5, seed=3)
    masks = MaskSet([full_mask(layout, "copy"), full_mask(layout, "reverse")])
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


def test_probe_counts_one_decoder_position_per_row_and_step():
    spans = _load_spans()
    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    store, _ = build_model(cfg, seed=5)  # its rows end at different steps
    src = np.array([[5, 6, 7], [8, 9, 0], [4, 0, 0]])
    probe = spans.Probe(timing=True)
    probe.install()
    try:
        out = evaluation.greedy_decode(store, cfg, src, max_len=9)
    finally:
        probe.uninstall()
    # the longest row ran for every step: it ended at the last one or hit max_len
    steps = max(len(row) for row in out)
    assert len([s for s in probe.spans if s[0] == "model.decode_logits"]) == steps
    # a row leaves the batch after its eos, but every step's batch keeps two rows
    ends = [len(row) for row in out]
    assert len(set(ends)) == 3
    assert probe.counts["decoder_positions"] == sum(
        max(sum(end >= step for end in ends), 2) for step in range(1, steps + 1))


def test_benchmark_stage_methods_match_the_stage_table():
    # the benchmark keeps its own copy of the stage -> cli.Pipeline method map
    expected = {s.name: s.method for s in STAGES.values() if s.default}
    assert _load_spans().STAGE_METHODS == expected


def test_workloads_untraced_api_on_a_tiny_store(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # workloads imports its siblings by name
    workloads = importlib.import_module("workloads")
    for template in (workloads.DESK, workloads.PIPELINE):
        assert load_manifest(template).domains
        rendered = tmp_path / template.name
        workloads.render_manifest(template, 3, rendered)
        assert load_manifest(rendered).seed == 3

    man = load_manifest(workloads.DESK)
    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    base, layout = build_model(cfg, seed=4)
    masks = workloads.jittered_masks(base, layout, man, 1)
    assert masks.ids() == [d.name for d in man.domains]
    ones = (round((1 - man.prune.alpha) * pool_size(layout, ENCODER))
            + round((1 - man.prune.beta) * pool_size(layout, DECODER)))
    for mask in masks:
        mask.require_matches(layout)
        assert mask.popcount() == ones
    assert len({m.vector.tobytes() for m in masks}) == len(masks)  # jittered per domain

    union = masks.union_bits()
    trained = base.copy()
    trained.vector[on_store(masks.union_mask(), trained).ones] += 1.0
    assert workloads.frozen_mismatches(trained, base, union) == []
    trained.array("enc.embed").flat[np.flatnonzero(~union["enc.embed"])[0]] += 1.0
    trained.array("enc.final_norm.b")[0] += 1.0
    assert workloads.frozen_mismatches(trained, base, union) == ["enc.embed", "enc.final_norm.b"]
