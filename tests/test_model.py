"""Transformer construction, registry tagging, forward contracts, checkpoints."""

import numpy as np
import pytest

from doss import autograd as ag
from doss.errors import ConfigError, FormatError, RegistryMismatchError, ShapeError
from doss.model import (BOS_ID, DECODER, ENCODER, DropCtx, ModelConfig, ParamStore,
                        build_model, count_params, forward, load_checkpoint,
                        load_registry, param_shapes, save_checkpoint, save_registry)
from support import full_scale_config, mini_config, pool_size, region_ones


def analytic_count(cfg: ModelConfig) -> dict[str, int]:
    """Hand formula for total/encoder/decoder/non-embedding parameter counts."""
    d, f, v = cfg.d_model, cfg.ffn_dim, cfg.vocab_size
    attn = 4 * (d * d + d)
    norm = 2 * d
    ffn = d * f + f + f * d + d
    enc_layer = attn + 2 * norm + ffn
    dec_layer = 2 * attn + 3 * norm + ffn
    enc = v * d + cfg.n_enc_layers * enc_layer + norm
    dec = v * d + cfg.n_dec_layers * dec_layer + norm
    if not cfg.tie_embeddings:
        dec += d * v
    embed = v * d * (2 if cfg.tie_embeddings else 3)
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
    assert sorted(store.names()) == sorted(registry.names())
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
    logits = forward(store, cfg, src, np.array([[BOS_ID]]))
    assert logits.shape == (1, 1, cfg.vocab_size)


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
    base = forward(store, cfg, src, tgt_in).data
    perm = forward(store, cfg, src[::-1].copy(), tgt_in[::-1].copy()).data
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
    assert np.array_equal(la[:, :2], lb[:, :2])
    assert not np.array_equal(la[:, 2:], lb[:, 2:])


def test_forward_rejects_bad_tokens():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    with pytest.raises(ShapeError):
        forward(store, cfg, np.array([[cfg.vocab_size]]), np.array([[BOS_ID]]))


def test_dropout_ctx_determinism():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src, tgt_in = _toy_batch()
    a = forward(store, cfg, src, tgt_in, drop=DropCtx(9, 3, 0.2)).data
    b = forward(store, cfg, src, tgt_in, drop=DropCtx(9, 3, 0.2)).data
    c = forward(store, cfg, src, tgt_in, drop=DropCtx(9, 4, 0.2)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tied_embeddings_variant():
    cfg = ModelConfig(vocab_size=16, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=8, tie_embeddings=True)
    store, registry = build_model(cfg, seed=2)
    assert "dec.out_proj" not in store
    logits = forward(store, cfg, np.array([[5, 6]]), np.array([[BOS_ID, 5]]))
    assert logits.shape == (1, 2, 16)
    assert count_params(registry)["total"] == analytic_count(cfg)["total"]


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
    assert loaded.names() == store.names()
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
