"""Transformer construction, registry tagging, forward contracts, checkpoints."""

import re
import struct

import numpy as np
import pytest

from doss import autograd as ag
from doss.errors import (ConfigError, DossError, FormatError, NumericsError,
                         RegistryMismatchError, ShapeError)
from doss.data import SyntheticTask, gen_domain, make_batch
from doss.model import (BOS_ID, DECODER, ENCODER, PAD_ID, DropCtx, ModelConfig, ParamStore,
                        build_model, causal_mask, count_params, decode_logits, encode,
                        forward, keep_decoding, key_mask, load_checkpoint, load_registry,
                        param_shapes, save_checkpoint, save_registry)
from support import (full_scale_config, mini_config, padded_forward, param_names, pool_size,
                     region_ones, take_rows)


def analytic_count(cfg: ModelConfig) -> dict[str, int]:
    """Hand formula for total/encoder/decoder/non-embedding parameter counts."""
    d, f, v = cfg.d_model, cfg.ffn_dim, cfg.vocab_size
    attn = 4 * d * d + 3 * d  # q, v and output biases; keys have none
    norm = 2 * d
    ffn = d * f + f + f * d + d
    enc_layer = attn + 2 * norm + ffn
    dec_layer = 2 * attn + 3 * norm + ffn
    enc = v * d + cfg.n_enc_layers * enc_layer + norm
    dec = v * d + cfg.n_dec_layers * dec_layer + norm + d * v
    embed = 3 * v * d
    return {"total": enc + dec, "encoder": enc, "decoder": dec,
            "non_embedding": enc + dec - embed}


def test_mini_registry_counts_match_analytic_formula():
    cfg = mini_config()
    store, registry = build_model(cfg, seed=3)
    counts = count_params(registry)
    expect = analytic_count(cfg)
    assert counts["total"] == expect["total"]
    assert counts["encoder"] == expect["encoder"]
    assert counts["decoder"] == expect["decoder"]
    assert counts["encoder"] + counts["decoder"] == counts["total"]
    # every tensor tagged exactly once, and the store matches the registry
    assert sorted(param_names(store)) == sorted(i.name for i in registry.infos)
    store.require_matches(registry)


def test_registry_maskability_rule():
    _, registry = build_model(mini_config(), seed=3)
    for info in registry.infos:
        assert info.maskable == (len(info.shape) == 2)
        if info.name.startswith("enc."):
            assert info.region == ENCODER
        else:
            assert info.region == DECODER


def test_full_scale_counts():
    cfg = full_scale_config()
    infos = param_shapes(cfg)  # counting only; never allocated
    total = sum(i.size for i in infos)
    expect = analytic_count(cfg)
    assert total == expect["total"]
    # the conventional ~270M size for this architecture matches the
    # non-embedding count; a sanity bound, not an exact target
    non_embed = sum(i.size for i in infos
                    if not (i.name.endswith(".embed") or i.name == "dec.out_proj"))
    assert non_embed == expect["non_embedding"]
    assert abs(non_embed - 270e6) / 270e6 <= 0.05


def test_build_model_deterministic():
    cfg = mini_config()
    s1, _ = build_model(cfg, seed=11)
    s2, _ = build_model(cfg, seed=11)
    s3, _ = build_model(cfg, seed=12)
    assert s1.checksum() == s2.checksum()
    assert s1.checksum() != s3.checksum()


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(32, 30, 64, 2, 2, 4).validate()  # d_model % heads != 0
    with pytest.raises(ConfigError):
        ModelConfig(0, 32, 64, 2, 2, 2).validate()
    with pytest.raises(ConfigError):
        ModelConfig(32, 32, 64, 2, 2, 2, dropout=1.0).validate()


def _toy_batch():
    src = np.array([[5, 6, 7, 0], [8, 9, 0, 0]])
    tgt_in = np.array([[BOS_ID, 5, 6], [BOS_ID, 8, 9]])
    return src, tgt_in


def test_forward_shape_contract():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src = np.array([[5, 6, 7]])
    tgt_in = np.array([[BOS_ID, 5, 6], [BOS_ID, 8, PAD_ID]])
    logits = forward(store, cfg, np.repeat(src, 2, axis=0), tgt_in)
    assert logits.shape == (5, cfg.vocab_size)  # one row per live target position


def test_forward_eval_deterministic():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src, tgt_in = _toy_batch()
    a = forward(store, cfg, src, tgt_in).data
    b = forward(store, cfg, src, tgt_in).data
    assert np.array_equal(a, b)


def test_forward_batch_permutation_equivariant():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src, tgt_in = _toy_batch()
    grid = (*tgt_in.shape, cfg.vocab_size)  # every target position is live
    base = forward(store, cfg, src, tgt_in).data.reshape(grid)
    perm = forward(store, cfg, src[::-1].copy(), tgt_in[::-1].copy()).data.reshape(grid)
    assert np.array_equal(base, perm[::-1])


def test_forward_causality():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src = np.array([[5, 6, 7]])
    tgt_a = np.array([[BOS_ID, 5, 6, 7]])
    tgt_b = tgt_a.copy()
    tgt_b[0, 2] = 9  # change position 2: logits at positions < 2 must not move
    la = forward(store, cfg, src, tgt_a).data
    lb = forward(store, cfg, src, tgt_b).data
    assert np.array_equal(la[:2], lb[:2])
    assert not np.array_equal(la[2:], lb[2:])


def test_forward_rejects_bad_tokens():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    with pytest.raises(ShapeError):
        forward(store, cfg, np.array([[cfg.vocab_size]]), np.array([[BOS_ID]]))


def test_dropout_ctx_determinism():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src, tgt_in = _toy_batch()
    a = forward(store, cfg, src, tgt_in, drop=DropCtx(0.2, ag.derived_rng(9, 3))).data
    b = forward(store, cfg, src, tgt_in, drop=DropCtx(0.2, ag.derived_rng(9, 3))).data
    c = forward(store, cfg, src, tgt_in, drop=DropCtx(0.2, ag.derived_rng(9, 4))).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_decoder_state_in_chunks_matches_full_prefix():
    # chunks of 3, 2 and 1 positions: the first two use offset causal masks
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src = np.array([[5, 6, 7, 0], [8, 9, 0, 0]])
    tgt_in = np.array([[BOS_ID, 5, 6, 7, 9, 4], [BOS_ID, 8, 9, 2, 2, 2]])
    with ag.no_grad():
        memory, pad_mask = encode(store, cfg, src)
        full = decode_logits(store, cfg, memory, pad_mask, tgt_in).data
        state = {}
        parts = [decode_logits(store, cfg, memory, pad_mask, tgt_in[:, a:b], state=state)
                 for a, b in ((0, 3), (3, 5), (5, 6))]
    assert all(not part.requires_grad and not part._parents for part in parts)
    grid = (2, -1, cfg.vocab_size)
    chained = np.concatenate([p.data.reshape(grid) for p in parts], axis=1)
    np.testing.assert_allclose(chained.reshape(full.shape), full, rtol=0, atol=1e-12)
    # the memory's rows and key mask, built by the first call for all three
    src_rows, src_mask = state.pop("src")
    assert src_rows.index.tolist() == [0, 1, 2, 4, 5]
    assert np.array_equal(src_mask, key_mask(pad_mask))
    assert {k: tuple(x.shape for x in kv) for k, kv in state.items()} == {
        **{f"dec.L{i}.sa": ((2, 6, cfg.d_model),) * 2 for i in range(cfg.n_dec_layers)},
        **{f"dec.L{i}.ca": ((2, 4, cfg.d_model),) * 2 for i in range(cfg.n_dec_layers)}}


@pytest.mark.parametrize("seed", [3, 4])
def test_forward_matches_the_padded_reference_on_mixed_lengths(seed):
    # the pad-free pass against the padded one it replaces: logits at live
    # target positions and every parameter gradient agree to rounding
    cfg = mini_config()
    store, _ = build_model(cfg, seed=seed)
    ds = gen_domain(SyntheticTask("reverse", content_hi=32, min_len=1, max_len=9, seed=seed),
                    12, domain_id="r")
    batch = make_batch("r", ds.pairs)
    live = batch.tgt_in != PAD_ID
    assert (batch.src == PAD_ID).any() and not live.all()
    logits = forward(store, cfg, batch.src, batch.tgt_in)
    ref = take_rows(padded_forward(store, cfg, batch.src, batch.tgt_in), np.flatnonzero(live))
    assert logits.shape == ref.shape == (live.sum(), cfg.vocab_size)
    np.testing.assert_allclose(logits.data, ref.data, rtol=0, atol=1e-12)
    grads = ag.backward(ag.cross_entropy(logits, batch.tgt_out[live]))
    ref_grads = ag.backward(ag.cross_entropy(ref, batch.tgt_out[live]))
    assert sorted(grads) == sorted(ref_grads) == sorted(param_names(store))
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-10, err_msg=name)


def test_keep_decoding_narrows_memory_and_state_to_the_kept_rows():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src = np.array([[5, 6, 7, 0], [8, 9, 0, 0], [4, 4, 4, 4]])
    tgt_in = np.array([[BOS_ID, 5], [BOS_ID, 8], [BOS_ID, 4]])
    keep = np.array([0, 2])
    with ag.no_grad():
        memory, live = encode(store, cfg, src)
        state = {}
        decode_logits(store, cfg, memory, live, tgt_in[:, :1], state=state)
        memory, live = keep_decoding(memory, live, state, keep)
        narrowed = decode_logits(store, cfg, memory, live, tgt_in[keep, 1:], state=state).data
        sub_memory, sub_live = encode(store, cfg, src[keep])
        full = decode_logits(store, cfg, sub_memory, sub_live, tgt_in[keep]).data
    assert np.array_equal(memory.data, sub_memory.data) and np.array_equal(live, sub_live)
    # the memory's rows and key mask, rebuilt for the kept rows
    src_rows, src_mask = state.pop("src")
    assert src_rows.index.tolist() == [0, 1, 2, 4, 5, 6, 7]
    assert np.array_equal(src_mask, key_mask(sub_live))
    assert {k: [x.shape[0] for x in kv] for k, kv in state.items()} == {k: [2, 2] for k in state}
    np.testing.assert_allclose(narrowed, full.reshape(2, 2, -1)[:, 1], rtol=0, atol=1e-12)


def test_keep_decoding_selects_the_memory_rows_of_the_isin_form():
    # memory rows are row-major over the live source positions; the kept
    # rows are those whose batch row is in `keep`
    rng = np.random.default_rng(3)
    src_live = np.arange(4) < np.array([3, 1, 4, 2, 4, 1])[:, None]
    memory = ag.Tensor(rng.normal(size=(int(src_live.sum()), 5)))
    for keep in ([0, 2, 5], [1, 3], [0, 1, 2, 3, 4, 5], [4, 5], [2], []):
        keep = np.array(keep, dtype=np.int64)
        state = {"dec.L0.sa": [rng.normal(size=(6, 2, 5)) for _ in range(2)]}
        old = [x.copy() for x in state["dec.L0.sa"]]
        got, live = keep_decoding(memory, src_live, state, keep)
        want = memory.data[np.isin(np.nonzero(src_live)[0], keep)]
        assert got.data.tobytes() == want.tobytes()
        assert np.array_equal(live, src_live[keep])
        assert all(np.array_equal(x, o[keep]) for x, o in zip(state["dec.L0.sa"], old))


def test_causal_mask_offset_rows_are_the_full_masks_last_rows():
    full = causal_mask(6)
    assert full.shape == (1, 1, 6, 6)
    for start in range(6):
        assert np.array_equal(causal_mask(6 - start, start), full[:, :, start:, :])
    assert not causal_mask(1, 5).any()  # the newest position sees every key


def test_decoder_state_guards():
    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=4)
    store, _ = build_model(cfg, seed=5)
    src = np.array([[5, 6]])
    memory, pad_mask = encode(store, cfg, src)
    # a state would cut the cached keys and values off the tape
    with pytest.raises(DossError):
        decode_logits(store, cfg, memory, pad_mask, np.array([[BOS_ID]]), state={})
    with ag.no_grad():
        memory, pad_mask = encode(store, cfg, src)
        state = {}
        decode_logits(store, cfg, memory, pad_mask, np.array([[BOS_ID, 5, 6]]), state=state)
        decode_logits(store, cfg, memory, pad_mask, np.array([[7]]), state=state)
        with pytest.raises(ShapeError):  # position 4 is past max_len
            decode_logits(store, cfg, memory, pad_mask, np.array([[8]]), state=state)
        with pytest.raises(ShapeError):
            decode_logits(store, cfg, memory, pad_mask, np.ones((1, 5), dtype=int), state={})


def test_tape_op_nodes_match_analytic_count():
    # per op node: an encoder layer is norm, 4 linear + attention, residual add,
    # norm, linear, relu, linear, add (12); a decoder layer adds a norm,
    # 4 linear + attention and an add for cross-attention (19); then two
    # embeddings, two final norms, the output projection and the loss (6).
    # Attention scatters and gathers its rows inside its own node.
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src, tgt_in = _toy_batch()
    expect = 12 * cfg.n_enc_layers + 19 * cfg.n_dec_layers + 6
    # dropout sites: embedding, and after each sublayer and FFN activation
    dropouts = 1 + 3 * cfg.n_enc_layers + 1 + 4 * cfg.n_dec_layers
    for drop, n in ((None, expect), (DropCtx(0.2, ag.derived_rng(9, 3)), expect + dropouts)):
        loss = ag.cross_entropy(forward(store, cfg, src, tgt_in, drop=drop),
                                tgt_in[tgt_in != PAD_ID])
        order = ag.topo_order(loss)
        assert sum(1 for node in order if node._backward is not None) == n
    assert (expect, expect + dropouts) == (68, 84)


def test_count_params_with_mask_roundtrip():
    from doss.masks import full_mask

    _, registry = build_model(mini_config(), seed=3)
    mask = full_mask(registry, "d")
    counts = count_params(registry, mask)
    assert counts["masked_ones"] == counts["maskable"]
    assert "masked_ones" not in count_params(registry)


def test_count_params_masked_ones_at_point_six():
    from doss.masks import PruneSpec, magnitude_prune

    store, registry = build_model(mini_config(), seed=3)
    mask = magnitude_prune(store, registry, PruneSpec(0.6, 0.6), "d")
    counts = count_params(registry, mask)
    expect = 0
    for region in (ENCODER, DECODER):
        pool = pool_size(registry, region)
        ones = region_ones(mask, registry, region)
        assert abs(ones - round(0.4 * pool)) <= 1
        expect += ones
    assert counts["masked_ones"] == expect


def test_checkpoint_roundtrip(tmp_path):
    cfg = mini_config()
    store, registry = build_model(cfg, seed=8)
    path = tmp_path / "m.ckpt"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert param_names(loaded) == param_names(store)
    for name, t in store.items():
        # values survive the float32 on-disk representation exactly
        assert np.array_equal(loaded.array(name),
                              t.data.astype(np.float32).astype(np.float64))
    # a second save of the loaded store is byte-identical
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_format_errors(tmp_path):
    cfg = mini_config()
    store, _ = build_model(cfg, seed=8)
    path = tmp_path / "m.ckpt"
    save_checkpoint(store, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(FormatError):
        load_checkpoint(bad)
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(raw[:-5])
    with pytest.raises(FormatError):
        load_checkpoint(trunc)
    trailing = tmp_path / "trail.ckpt"
    trailing.write_bytes(raw + b"x")
    with pytest.raises(FormatError):
        load_checkpoint(trailing)
    name = next(store.items())[0].encode()
    not_utf8 = tmp_path / "name.ckpt"
    not_utf8.write_bytes(raw.replace(name, b"\xff\xfe" + name[2:], 1))
    with pytest.raises(FormatError, match="not UTF-8"):
        load_checkpoint(not_utf8)
    # extents whose product wraps in int64 and overflows the file: truncated
    wname, w = next((n, t) for n, t in store.items() if t.data.ndim == 2)
    head = struct.pack("<H", len(wname)) + wname.encode() + struct.pack("<B", 2)
    assert raw.count(head + struct.pack("<2I", *w.data.shape)) == 1
    huge = tmp_path / "huge.ckpt"
    huge.write_bytes(raw.replace(head + struct.pack("<2I", *w.data.shape),
                                 head + struct.pack("<2I", 2**32 - 1, 2**32 - 1)))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(huge)


def test_checkpoint_refuses_values_that_are_not_finite(tmp_path):
    cfg = mini_config()
    store, _ = build_model(cfg, seed=8)
    name = list(store.layout)[-1][0]
    path = tmp_path / "m.ckpt"
    save_checkpoint(store, path)
    raw = path.read_bytes()
    # the last float32 of the file is the last tensor's last value
    inf = tmp_path / "inf.ckpt"
    inf.write_bytes(raw[:-4] + np.array(np.inf, dtype="<f4").tobytes())
    with pytest.raises(FormatError, match=re.escape(repr(name))):
        load_checkpoint(inf)
    # a float64 value past float32's range would be written as inf
    store.array(name).flat[0] = 1e39
    with pytest.raises(NumericsError, match=re.escape(repr(name))):
        save_checkpoint(store, tmp_path / "big.ckpt")
    assert not (tmp_path / "big.ckpt").exists()


def test_registry_sidecar_roundtrip(tmp_path):
    cfg = mini_config()
    store, registry = build_model(cfg, seed=8)
    path = tmp_path / "m.reg"
    save_registry(registry, path)
    loaded = load_registry(path, store)
    assert loaded == registry


def test_registry_sidecar_rejects_unknown_tensor(tmp_path):
    cfg = mini_config()
    store, registry = build_model(cfg, seed=8)
    path = tmp_path / "m.reg"
    save_registry(registry, path)
    text = path.read_text() + "ghost.tensor encoder 1\n"
    path.write_text(text)
    with pytest.raises(RegistryMismatchError):
        load_registry(path, store)


def test_store_structure_checks():
    cfg = mini_config()
    s1, registry = build_model(cfg, seed=1)
    s2, _ = build_model(cfg, seed=2)
    s1.require_same_structure(s2)
    partial = ParamStore(dict(list(s2.items())[:-1]))
    with pytest.raises(RegistryMismatchError):
        s1.require_same_structure(partial)
    with pytest.raises(RegistryMismatchError):
        partial.require_matches(registry)


def test_store_tensors_are_views_of_one_vector():
    from doss.data import SyntheticTask, batch_iterator, gen_domain
    from doss.masks import full_mask, on_store
    from doss.training import OptimizerState, TrainConfig, _train_step

    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    built, registry = build_model(cfg, seed=4)
    store = ParamStore(dict(built.items()))  # copies into a new vector
    assert not np.shares_memory(store.vector, built.vector)
    assert store.checksum() == built.checksum()
    assert store.vector.size == sum(t.data.size for _, t in store.items())

    def all_views(s):
        return all(np.shares_memory(t.data, s.vector) for _, t in s.items())

    before = store.vector.copy()
    data = gen_domain(SyntheticTask("copy", content_hi=14, min_len=3, max_len=5, seed=1),
                      40, domain_id="copy")
    tcfg = TrainConfig(1e-3, 10, 64, 0.1, max_steps=3, seed=2)
    state = OptimizerState.zeros(store)
    batches = batch_iterator([data], "round_robin", 64, 2)
    mask = on_store(full_mask(registry, "copy"), store)
    for step in range(1, 5):  # unmasked, then masked steps
        _train_step(store, cfg, next(batches), step, tcfg, state,
                    mask if step > 2 else None, None)
    assert all_views(store) and all_views(built)
    assert not np.array_equal(store.vector, before)  # trained through the views
    copy = store.copy()
    assert copy.checksum() == store.checksum()
    assert not any(np.shares_memory(t.data, store.vector) for _, t in copy.items())
    assert all_views(copy)
