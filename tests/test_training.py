"""Schedule, optimizer, masked-update guarantees, joint training, extension."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doss import EXTENSION_MODES, autograd as ag
from doss import training
from doss.autograd import Tensor
from doss.data import MIXINGS, SyntheticTask, batch_iterator, gen_domain, make_batch
from doss.errors import ConfigError, NumericsError
from doss.masks import DomainMask, MaskSet, PruneSpec, full_mask, on_store, overlay
from doss.model import (EOS_ID, PAD_ID, DropCtx, ModelConfig, ParamStore, build_model, forward,
                        layout_views)
from doss.training import (MetricsLog, OptimizerState, TrainConfig,
                           _train_step, adam_step, clip_by_global_norm, extend_domain,
                           lr_schedule, train_doss, train_full)
from support import padded_forward, param_names, pool_size, random_mask


def test_lr_schedule_shape():
    assert lr_schedule(100, 100, 3e-4) == pytest.approx(3e-4)
    assert lr_schedule(400, 100, 3e-4) == pytest.approx(1.5e-4)
    assert lr_schedule(50, 100, 3e-4) == pytest.approx(1.5e-4)
    with pytest.raises(ConfigError):
        lr_schedule(0, 100, 3e-4)


def test_lr_schedule_continuous_at_peak():
    w, base = 137, 1e-3
    around = [lr_schedule(s, w, base) for s in (w - 1, w, w + 1)]
    assert max(around) == around[1]
    assert abs(around[0] - around[1]) < base / w * 1.01
    assert abs(around[2] - around[1]) < base / w * 1.01


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=500))
def test_lr_schedule_nonincreasing_after_warmup(step, warmup):
    s = max(step, warmup)
    assert lr_schedule(s + 1, warmup, 1.0) <= lr_schedule(s, warmup, 1.0) + 1e-15


def _scalar_store(value=1.0, maskable=True):
    name = "enc.w" if maskable else "enc.b"
    shape = (1, 1) if maskable else (1,)
    store = ParamStore({name: Tensor(np.full(shape, value), requires_grad=True, name=name)})
    return store, name


def test_adam_first_step_hand_value():
    store, name = _scalar_store(0.0)
    state = OptimizerState.zeros(store)
    adam_step(store, np.ones(1), state, lr=0.1)
    # step 1 with bias correction: m_hat = 1, v_hat = 1, delta = -0.1/(1+eps)
    assert store.array(name)[0, 0] == pytest.approx(-0.1, abs=1e-8)
    assert state.step == 1


def test_adam_masked_all_zeros_is_bitwise_noop():
    store, name = _scalar_store(-0.0)  # negative zero: +=0 would flip the sign bit
    state = OptimizerState.zeros(store)
    mask = DomainMask("d", {name: np.zeros(1, dtype=bool)}, PruneSpec(1, 1))
    adam_step(store, np.ones(1), state, lr=0.1, mask=on_store(mask, store))
    assert np.signbit(store.array(name))[0, 0]
    assert store.array(name).tobytes() == np.full((1, 1), -0.0).tobytes()


def test_adam_masked_all_ones_matches_unmasked():
    r = np.random.default_rng(0)
    w = r.normal(size=(3, 4))
    a = ParamStore({"enc.w": Tensor(w.copy(), requires_grad=True, name="enc.w")})
    b = ParamStore({"enc.w": Tensor(w.copy(), requires_grad=True, name="enc.w")})
    sa, sb = OptimizerState.zeros(a), OptimizerState.zeros(b)
    mask = on_store(DomainMask("d", {"enc.w": np.ones(12, dtype=bool)}, PruneSpec(0, 0)), b)
    for _ in range(3):
        g = r.normal(size=12)
        adam_step(a, g, sa, lr=0.01)
        adam_step(b, g, sb, lr=0.01, mask=mask)
    assert np.array_equal(a.array("enc.w"), b.array("enc.w"))


def test_adam_skips_nonmaskable_under_mask():
    store = ParamStore({
        "enc.w": Tensor(np.ones((2, 2)), requires_grad=True, name="enc.w"),
        "enc.b": Tensor(np.ones(2), requires_grad=True, name="enc.b"),
    })
    state = OptimizerState.zeros(store)
    mask = DomainMask("d", {"enc.w": np.ones(4, dtype=bool)}, PruneSpec(0, 0))
    adam_step(store, np.ones(6), state, lr=0.1, mask=on_store(mask, store))
    assert not np.array_equal(store.array("enc.w"), np.ones((2, 2)))
    assert np.array_equal(store.array("enc.b"), np.ones(2))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_adam_masked_elements_bit_frozen(seed):
    r = np.random.default_rng(seed)
    w = r.normal(size=(4, 5))
    store = ParamStore({"enc.w": Tensor(w.copy(), requires_grad=True, name="enc.w")})
    state = OptimizerState.zeros(store)
    bits = r.random(20) < 0.5
    mask = on_store(DomainMask("d", {"enc.w": bits}, PruneSpec(0.5, 0.5)), store)
    for _ in range(4):
        adam_step(store, r.normal(size=20), state, lr=0.05, mask=mask)
    frozen = ~bits.reshape(4, 5)
    assert np.array_equal(store.array("enc.w")[frozen], w[frozen])
    assert store.array("enc.w")[frozen].tobytes() == w[frozen].tobytes()


def test_adam_nan_gradient_aborts_with_tensor_name():
    store = ParamStore({"enc.w": Tensor(np.ones((2, 2))), "enc.b": Tensor(np.ones(3))})
    grad = np.zeros(7)
    grad[5] = np.nan
    with pytest.raises(NumericsError, match="'enc.b'"):
        adam_step(store, grad, OptimizerState.zeros(store), lr=0.1)


def _adam_reference(arrays, grads, m, v, t, lr, bits=None):
    """Adam per tensor, op by op: the reference the flat update must match
    bit for bit. `bits` maps the masked tensors to their 0/1 arrays."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    for name in arrays:
        if bits is not None and name not in bits:
            continue
        g = grads[name]
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
        delta = lr * (m[name] / (1.0 - b1 ** t)) / (np.sqrt(v[name] / (1.0 - b2 ** t)) + eps)
        arrays[name] = (arrays[name] - delta if bits is None
                        else np.where(bits[name], arrays[name] - delta, arrays[name]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), masked=st.booleans(),
       chunk=st.sampled_from([5, 28, training._ADAM_CHUNK]))
def test_flat_adam_matches_per_tensor_reference_bit_for_bit(seed, masked, chunk):
    # a chunk of 5 cuts the 28-element layout inside tensors and between mask ones
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "_ADAM_CHUNK", chunk)
        _check_flat_adam(seed, masked, chunk)


def _check_flat_adam(seed, masked, chunk):
    r = np.random.default_rng(seed)
    shapes = {"enc.w": (3, 4), "enc.b": (4,), "dec.w": (5, 2), "dec.g": (2,)}
    store = ParamStore({n: Tensor(r.normal(size=s)) for n, s in shapes.items()})
    arrays = {n: store.array(n).copy() for n in shapes}
    m = {n: np.zeros(s) for n, s in shapes.items()}
    v = {n: np.zeros(s) for n, s in shapes.items()}
    bits = ({n: r.random(s) < 0.5 for n, s in shapes.items() if len(s) == 2}
            if masked else None)
    mask = (on_store(DomainMask("d", bits, PruneSpec(0.5, 0.5)), store)
            if masked else None)
    state = OptimizerState.zeros(store)
    assert [s.size for s in state.scratch] == [chunk, chunk]
    for t in range(1, 6):
        # the caller's masking: 0 outside the ones, on unnamed tensors too
        grads = {n: r.normal(size=s) * (1.0 if bits is None else bits.get(n, 0.0))
                 for n, s in shapes.items()}
        lr = float(r.uniform(1e-4, 1e-1))
        adam_step(store, np.concatenate([g.ravel() for g in grads.values()]), state,
                  lr, mask=mask)
        _adam_reference(arrays, grads, m, v, t, lr, bits)
        for n in shapes:
            assert store.array(n).tobytes() == arrays[n].tobytes(), (t, n)
            assert layout_views(state.m, store.layout)[n].tobytes() == m[n].tobytes(), (t, n)
            assert layout_views(state.v, store.layout)[n].tobytes() == v[n].tobytes(), (t, n)


def test_clip_by_global_norm():
    grad = np.array([3.0, 4.0])
    norm = clip_by_global_norm(grad, {"b": grad[1:], "a": grad[:1]}, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.sqrt(np.sum(grad * grad)) == pytest.approx(1.0)
    small = np.array([0.3])
    clip_by_global_norm(small, {"a": small}, 1.0)
    assert small[0] == pytest.approx(0.3)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(1e-3, 10, 64, 0.1)  # neither steps nor epochs
    with pytest.raises(ConfigError):
        TrainConfig(1e-3, 10, 64, 0.1, max_steps=5, epochs=2)
    with pytest.raises(ConfigError):
        TrainConfig(-1e-3, 10, 64, 0.1, max_steps=5)


def test_train_config_and_batch_iterator_take_the_same_mixing_names():
    ds = gen_domain(SyntheticTask("copy", seed=1), 10, domain_id="A")
    for name in MIXINGS:
        TrainConfig(1e-3, 10, 64, 0.1, max_steps=5, mixing=name)
        assert next(batch_iterator([ds], name, 64, seed=0)).domain_id == "A"
    with pytest.raises(ConfigError, match="unknown mixing strategy 'nope'"):
        TrainConfig(1e-3, 10, 64, 0.1, max_steps=5, mixing="nope")
    with pytest.raises(ConfigError, match="unknown mixing strategy 'nope'"):
        next(batch_iterator([ds], "nope", 64, seed=0))


def _tiny_setup(seed=4):
    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    lam0, layout = build_model(cfg, seed=seed)
    mk = lambda kind, s, **kw: gen_domain(
        SyntheticTask(kind, content_hi=14, min_len=3, max_len=5, seed=s, **kw),
        40, domain_id=kind)
    return cfg, lam0, layout, mk


def test_train_full_zero_steps_returns_start_unchanged():
    cfg, lam0, _, mk = _tiny_setup()
    out = train_full(lam0, mk("copy", 1), TrainConfig(1e-3, 10, 64, 0.1, max_steps=0),
                     cfg)
    assert out.checksum() == lam0.checksum()
    assert out is not lam0


def test_train_full_decreases_loss_and_logs():
    cfg, lam0, _, mk = _tiny_setup()
    log = MetricsLog()
    train_full(lam0, mk("copy", 1), TrainConfig(2e-3, 20, 64, 0.1, max_steps=120, seed=2),
               cfg, log=log)
    steps = [r[0] for r in log.rows]
    assert steps == sorted(steps) and steps[0] == 1 and steps[-1] == 120
    first = np.mean([r[2] for r in log.rows[:20]])
    last = np.mean([r[2] for r in log.rows[-20:]])
    assert last < first
    lrs = [r[3] for r in log.rows]
    assert max(lrs) == pytest.approx(2e-3, rel=0.06)


def test_metrics_csv_format(tmp_path):
    log = MetricsLog()
    log.add(1, "copy", 1.25, 1e-3)
    log.write_csv(tmp_path / "m.csv")
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == "step,domain_id,loss,lr"
    assert lines[1] == "1,copy,1.25,0.001"


def test_train_doss_requires_matching_ids():
    cfg, lam0, layout, mk = _tiny_setup()
    mask = full_mask(layout, "other")
    with pytest.raises(ConfigError):
        train_doss(lam0, MaskSet([mask]), [mk("copy", 1)],
                   TrainConfig(1e-3, 10, 64, 0.1, max_steps=2), cfg)


def test_train_doss_total_mask_degenerates_to_train_full():
    # a hand-built mask covering every tensor (including biases/norms) makes
    # masked training reduce to full training, bit for bit
    cfg, lam0, layout, mk = _tiny_setup()
    ds = mk("copy", 1)
    bits = {name: np.ones(t.data.size, dtype=bool) for name, t in lam0.items()}
    total_mask = DomainMask("copy", bits, PruneSpec(0.0, 0.0))
    tcfg = TrainConfig(1e-3, 10, 64, 0.1, max_steps=25, seed=3)
    a = train_doss(lam0, MaskSet([total_mask]), [ds], tcfg, cfg)
    b = train_full(lam0, ds, tcfg, cfg)
    assert a.checksum() == b.checksum()


def test_train_doss_freezes_never_masked_elements():
    cfg, lam0, layout, mk = _tiny_setup()
    datasets = [mk("copy", 1), mk("reverse", 2)]
    r = np.random.default_rng(0)
    ms = MaskSet([random_mask(layout, ds.domain_id, r, 0.4) for ds in datasets])
    lam = train_doss(lam0, ms, datasets,
                     TrainConfig(1e-3, 10, 64, 0.1, max_steps=30, seed=5), cfg)
    union = ms.union_bits()
    for name, t in lam0.items():
        if name in union:
            never = ~union[name].reshape(t.data.shape)
            assert np.array_equal(lam.array(name)[never], t.data[never])
            assert lam.array(name)[never].tobytes() == t.data[never].tobytes()
        else:
            assert np.array_equal(lam.array(name), t.data)


def test_masked_train_step_leaves_moments_zero_outside_the_mask():
    # the only gradient masking is in _train_step: Adam never sees a gradient
    # where the mask is 0, nor on a non-maskable tensor
    cfg, lam0, layout, mk = _tiny_setup()
    ds = mk("copy", 1)
    mask = random_mask(layout, "copy", np.random.default_rng(7), 0.5)
    params, state = lam0.copy(), OptimizerState.zeros(lam0)
    tcfg = TrainConfig(1e-3, 10, 64, 0.1, max_steps=1, seed=3)
    batch = next(batch_iterator([ds], "round_robin", 64, 3))
    loss = _train_step(params, cfg, batch, 1, tcfg, state, on_store(mask, params), None)
    assert np.isfinite(loss)
    moments = [layout_views(s, params.layout) for s in (state.m, state.v)]
    moved = 0
    for name, t in lam0.items():
        flat = mask.bits.get(name)
        off = np.ones(t.data.shape, bool) if flat is None else ~flat.reshape(t.data.shape)
        assert all(np.all(mom[name][off] == 0.0) for mom in moments), name
        moved += int(np.count_nonzero(moments[0][name][~off]))
    assert moved > 0


def test_masked_train_step_clips_only_the_mask_ones(monkeypatch):
    # the clip sees a gradient that is 0 outside the mask's ones, on the
    # tensors the mask does not name too, so its norm covers only what the
    # step trains
    cfg, lam0, layout, mk = _tiny_setup()
    mask = random_mask(layout, "copy", np.random.default_rng(7), 0.5)
    tcfg = TrainConfig(1e-3, 10, 64, 0.1, max_steps=1, seed=3)
    batch = next(batch_iterator([mk("copy", 1)], "round_robin", 64, 3))
    seen = []

    def spy(grad, grads, max_norm):
        copies = {n: g.copy() for n, g in grads.items()}
        seen.append((copies, clip_by_global_norm(grad, grads, max_norm)))
        return seen[-1][1]

    monkeypatch.setattr(training, "clip_by_global_norm", spy)
    for m in (None, on_store(mask, lam0)):
        _train_step(lam0.copy(), cfg, batch, 1, tcfg, OptimizerState.zeros(lam0), m, None)
    (full, _), (masked, norm) = seen
    unnamed = [n for n in full if n not in mask.bits]
    assert unnamed and any(np.any(full[n] != 0.0) for n in unnamed)
    for name, g in masked.items():
        bits = (mask.bits[name].reshape(g.shape) if name in mask.bits
                else np.zeros(g.shape, bool))
        assert np.all(g[~bits] == 0.0), name
        assert np.array_equal(g[bits], full[name][bits]), name
    ones = np.concatenate([full[n][mask.bits[n].reshape(full[n].shape)] for n in mask.bits])
    assert norm == pytest.approx(np.sqrt(np.sum(ones * ones)), rel=1e-12)
    assert norm < np.sqrt(sum(float(np.sum(g * g)) for g in full.values()))


def _poison_loss(params):
    # the final norm writes ones, and the logits are +-1.5e308, finite, but
    # log-softmax overflows at EOS, a target of every row
    params.array("dec.final_norm.g")[:] = 0.0
    params.array("dec.final_norm.b")[:] = 1.0
    w = params.array("dec.out_proj")
    w[:] = 0.0
    w[:, EOS_ID] = -1.5e308 / w.shape[0]
    w[:, 5] = 1.5e308 / w.shape[0]


@pytest.mark.parametrize("op, poison", [
    ("embedding", lambda p: p.array("enc.embed").fill(1e308)),  # overflows at the scale
    ("linear", lambda p: p.array("enc.L0.ffn.w1").fill(1e308)),
    ("layer_norm", lambda p: p.array("enc.L0.sa_norm.g").fill(1e308)),
    ("cross_entropy", _poison_loss),
])
def test_train_step_names_the_op_whose_output_turns_non_finite(op, poison):
    # the forward ops check nothing; the step checks its loss before backward
    # and walks the tape to the first op whose output is not finite
    cfg, lam0, _, mk = _tiny_setup()
    params = lam0.copy()
    poison(params)
    before = params.vector.copy()
    state = OptimizerState.zeros(params)
    batch = next(batch_iterator([mk("copy", 1)], "round_robin", 64, 3))
    tcfg = TrainConfig(1e-3, 10, 64, 0.0, max_steps=1)
    with np.errstate(all="ignore"), pytest.raises(NumericsError, match=f"produced by {op}$"):
        _train_step(params, cfg, batch, 1, tcfg, state, None, None)
    assert params.vector.tobytes() == before.tobytes() and state.step == 0


def test_train_step_reuses_and_zeroes_one_gradient_vector():
    # the optimizer state holds the step's gradient vector and its views, made
    # once; each step zeroes the vector, so a tensor the tape does not reach
    # gets a zero gradient however stale the vector is
    cfg, lam0, _, mk = _tiny_setup()
    ds = mk("copy", 1)
    start = ParamStore(dict(lam0.items()) | {"enc.unused": Tensor(np.ones(3), name="enc.unused")})
    params, state = start.copy(), OptimizerState.zeros(start)
    grad, views = state.grad, state.grad_views
    assert list(views) == [n for n, _ in start.layout]
    assert all(np.shares_memory(v, grad) for v in views.values())
    tcfg = TrainConfig(1e-3, 10, 64, 0.1, max_steps=3, seed=3)
    for step, batch in enumerate(islice(batch_iterator([ds], "round_robin", 64, 3), 3), 1):
        grad.fill(np.nan)
        _train_step(params, cfg, batch, step, tcfg, state, None, None)
    assert state.grad is grad and state.grad_views is views
    assert params.checksum() == train_full(start, ds, tcfg, cfg).checksum()


def test_train_doss_bit_reproducible():
    cfg, lam0, layout, mk = _tiny_setup()
    datasets = [mk("copy", 1), mk("reverse", 2)]
    spec = PruneSpec(0.5, 0.5)
    masks = MaskSet([full_mask(layout, ds.domain_id) for ds in datasets])
    tcfg = TrainConfig(1e-3, 10, 64, 0.1, max_steps=20, seed=6)
    a = train_doss(lam0, masks, datasets, tcfg, cfg)
    b = train_doss(lam0, masks, datasets, tcfg, cfg)
    assert a.checksum() == b.checksum()


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_one_dropout_generator_per_train_step(rate, monkeypatch):
    cfg, lam0, _, mk = _tiny_setup()
    ds = mk("copy", 1)
    calls = []

    def spy(*parts):
        calls.append(parts)
        return real(*parts)

    real = ag.derived_rng
    monkeypatch.setattr(ag, "derived_rng", spy)
    tcfg = TrainConfig(1e-3, 10, 64, rate, max_steps=6, seed=3)
    a, b = (train_full(lam0, ds, tcfg, cfg).checksum() for _ in range(2))
    assert calls == ([(3, step) for step in range(1, 7)] * 2 if rate else [])
    assert a == b


def test_backward_into_the_step_vector_is_the_concatenation_bit_for_bit():
    # the train step has backward write each gradient into its view of one
    # zeroed vector; it holds the bits of concatenating the per-tensor gradients
    cfg, lam0, _, mk = _tiny_setup()
    batch = next(batch_iterator([mk("copy", 1)], "round_robin", 64, 2))

    def loss():
        logits = forward(lam0, cfg, batch.src, batch.tgt_in, DropCtx(0.1, ag.derived_rng(3, 1)))
        return ag.cross_entropy(logits, batch.tgt_out[batch.tgt_in != PAD_ID])

    grads = ag.backward(loss())
    concatenated = np.concatenate([grads[n].ravel() if n in grads else np.zeros(t.data.size)
                                   for n, t in lam0.items()])
    vector = np.zeros(lam0.vector.size)
    written = ag.backward(loss(), layout_views(vector, lam0.layout))
    assert vector.tobytes() == concatenated.tobytes()
    assert list(written) == list(grads)
    assert all(np.shares_memory(g, vector) for g in written.values())


def test_train_step_loss_is_the_mean_over_live_targets():
    # the step scores each logit row against tgt_out at the same live position
    # of tgt_in, in row-major order; the padded reference computes every position
    cfg, lam0, _, mk = _tiny_setup()
    batch = make_batch("reverse", mk("reverse", 2).pairs[:8])
    live = batch.tgt_in != PAD_ID
    assert len(set(live.sum(axis=1).tolist())) > 1
    ref = padded_forward(lam0, cfg, batch.src, batch.tgt_in).data.reshape(*live.shape, -1)
    rows, targets = ref[live], batch.tgt_out[live]
    top = rows.max(axis=1)
    nll = top + np.log(np.exp(rows - top[:, None]).sum(axis=1)) - rows[np.arange(rows.shape[0]),
                                                                       targets]
    loss = _train_step(lam0.copy(), cfg, batch, 1, TrainConfig(1e-3, 10, 64, 0.0, max_steps=1),
                       OptimizerState.zeros(lam0), None, None)
    assert abs(loss - nll.mean()) <= 1e-12


def _extension_setup():
    cfg, lam0, layout, mk = _tiny_setup()
    datasets = [mk("copy", 1), mk("reverse", 2)]
    r = np.random.default_rng(1)
    masks = MaskSet([random_mask(layout, ds.domain_id, r, 0.4) for ds in datasets])
    tcfg = TrainConfig(1e-3, 10, 64, 0.1, max_steps=20, seed=7)
    lam = train_doss(lam0, masks, datasets, tcfg, cfg)
    new_data = mk("sort", 9)
    # the base's mask finetune on the new domain, which every mask-creating mode prunes
    finetuned = train_full(lam0, new_data, TrainConfig(1e-3, 10, 64, 0.3, epochs=1, seed=8), cfg)
    return cfg, layout, lam0, lam, masks, datasets, new_data, tcfg, finetuned


def test_extend_disjoint_mask_and_preservation():
    cfg, layout, lam0, lam, masks, datasets, new_data, tcfg, finetuned = _extension_setup()
    lam2, ms2 = extend_domain(lam, lam0, masks, new_data, "new_only_disjoint",
                              PruneSpec(0.2, 0.2), tcfg,
                              model_cfg=cfg, finetuned=finetuned)
    new_mask = ms2.get("sort")
    union = masks.union_bits()
    for name, bits in new_mask.bits.items():
        assert not np.any(bits & union[name])
    # every pre-existing domain's effective parameters are bit-identical
    for m in masks:
        pre = overlay(lam0, lam, m)
        post = overlay(lam0, lam2, m)
        for name in param_names(pre):
            assert pre.array(name).tobytes() == post.array(name).tobytes()
    assert ms2.ids() == ["copy", "reverse", "sort"]


def test_extend_ft_all_ones_records_full_mask():
    cfg, layout, lam0, lam, masks, datasets, new_data, tcfg, finetuned = _extension_setup()
    lam2, ms2 = extend_domain(lam, lam0, masks, new_data, "ft_all_ones",
                              PruneSpec(0.6, 0.6), tcfg,
                              model_cfg=cfg)
    assert ms2.get("sort").popcount() == pool_size(layout)
    assert lam2.checksum() != lam.checksum()


def test_extend_all_masks_joint_needs_existing_data():
    cfg, layout, lam0, lam, masks, datasets, new_data, tcfg, finetuned = _extension_setup()
    with pytest.raises(ConfigError):
        extend_domain(lam, lam0, masks, new_data, "all_masks_joint",
                      PruneSpec(0.6, 0.6), tcfg,
                      model_cfg=cfg, finetuned=finetuned)
    lam2, ms2 = extend_domain(lam, lam0, masks, new_data, "all_masks_joint",
                              PruneSpec(0.6, 0.6), tcfg,
                              model_cfg=cfg, finetuned=finetuned,
                              existing_data=datasets)
    assert len(ms2) == 3


def test_extend_unconstrained_trains_more_than_disjoint():
    cfg, layout, lam0, lam, masks, datasets, new_data, tcfg, finetuned = _extension_setup()
    spec = PruneSpec(0.5, 0.5)
    _, ms_unc = extend_domain(lam, lam0, masks, new_data, "new_only_unconstrained",
                              spec, tcfg, model_cfg=cfg, finetuned=finetuned)
    _, ms_dis = extend_domain(lam, lam0, masks, new_data, "new_only_disjoint",
                              spec, tcfg, model_cfg=cfg, finetuned=finetuned)
    assert ms_dis.get("sort").popcount() < ms_unc.get("sort").popcount()
    # the disjoint mask is the unconstrained one less the existing masks' ones
    expect = ms_unc.get("sort").vector & ~masks.union_mask().vector
    assert np.array_equal(ms_dis.get("sort").vector, expect)


def test_extend_mask_modes_need_the_finetune():
    cfg, layout, lam0, lam, masks, datasets, new_data, tcfg, finetuned = _extension_setup()
    for mode in ("new_only_unconstrained", "new_only_disjoint", "all_masks_joint"):
        with pytest.raises(ConfigError, match="mask finetune"):
            extend_domain(lam, lam0, masks, new_data, mode, PruneSpec(0.6, 0.6), tcfg,
                          model_cfg=cfg, existing_data=datasets)


def test_extend_takes_exactly_the_extension_modes():
    cfg, layout, lam0, lam, masks, datasets, new_data, tcfg, finetuned = _extension_setup()
    for mode in EXTENSION_MODES:  # a known mode gets as far as the duplicate-domain check
        with pytest.raises(ConfigError, match="already has a mask"):
            extend_domain(lam, lam0, masks, datasets[0], mode, PruneSpec(0.6, 0.6), tcfg,
                          model_cfg=cfg, finetuned=finetuned, existing_data=datasets)
    with pytest.raises(ConfigError, match="unknown extension mode 'bogus'"):
        extend_domain(lam, lam0, masks, new_data, "bogus", PruneSpec(0.6, 0.6), tcfg,
                      model_cfg=cfg, finetuned=finetuned, existing_data=datasets)


def test_extend_rejects_duplicate_domain():
    cfg, layout, lam0, lam, masks, datasets, new_data, tcfg, finetuned = _extension_setup()
    with pytest.raises(ConfigError):
        extend_domain(lam, lam0, masks, datasets[0], "ft_all_ones",
                      PruneSpec(0.6, 0.6), tcfg, model_cfg=cfg)
