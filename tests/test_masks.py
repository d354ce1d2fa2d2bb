"""Mask creation, pruning density, disjointness, overlay, and the file format."""

import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doss.autograd import Tensor
from doss.errors import ConfigError, FormatError, RegistryMismatchError
from doss.masks import (DomainMask, MaskSet, PruneSpec, full_mask,
                        load_mask, magnitude_prune, magnitude_prune_disjoint,
                        overlap_stats, overlay, save_mask)
from doss.model import ParamStore, region
from support import capacity, is_pairwise_disjoint, pool_size, region_ones, region_pool


def make_store(tensors: dict[str, tuple[np.ndarray, str]]):
    """tensors: name -> (values, region); returns the store and its layout.
    The region must be the one the name gives; rank-2 arrays are maskable."""
    assert all(region(name) == pool for name, (_, pool) in tensors.items())
    store = ParamStore({name: Tensor(arr, requires_grad=True, name=name)
                        for name, (arr, _) in tensors.items()})
    return store, store.layout


def sort_oracle_keep(store, layout, pool, fraction_pruned):
    """Independent oracle: full sort of (|w|, name, index) tuples."""
    entries = []
    for name, _ in sorted(region_pool(layout, pool)):
        flat = np.abs(store.array(name)).ravel()
        for idx, v in enumerate(flat):
            entries.append((-v, name, idx))
    entries.sort()
    keep = int(round((1 - fraction_pruned) * len(entries)))
    return {(name, idx) for _, name, idx in entries[:keep]}


def mask_ones_set(mask, layout, pool):
    out = set()
    for name, _ in region_pool(layout, pool):
        for idx in np.flatnonzero(mask.bits[name]):
            out.add((name, int(idx)))
    return out


def two_region_store(enc_vals, dec_vals):
    return make_store({
        "enc.w": (np.asarray(enc_vals, dtype=float).reshape(1, -1), "encoder"),
        "dec.w": (np.asarray(dec_vals, dtype=float).reshape(1, -1), "decoder"),
    })


def test_prune_alpha_zero_keeps_everything():
    store, layout = two_region_store([1, 2, 3, 4], [5, 6])
    mask = magnitude_prune(store, layout, PruneSpec(0.0, 0.0), "d")
    assert mask.popcount() == 6


def test_prune_alpha_one_drops_everything():
    store, layout = two_region_store([1, 2, 3, 4], [5, 6])
    mask = magnitude_prune(store, layout, PruneSpec(1.0, 1.0), "d")
    assert mask.popcount() == 0


def test_prune_keeps_four_largest_of_ten():
    vals = [3, -1, 10, 2, -7, 4, -9, 5, 6, -8]  # |v| = 1..10
    store, layout = two_region_store(vals, [1, 2])
    mask = magnitude_prune(store, layout, PruneSpec(0.6, 0.0), "d")
    kept = mask_ones_set(mask, layout, "encoder")
    assert kept == sort_oracle_keep(store, layout, "encoder", 0.6)
    kept_vals = sorted(abs(vals[i]) for _, i in kept)
    assert kept_vals == [7, 8, 9, 10]


@pytest.mark.parametrize("alpha", [0.4, 0.5, 0.6, 0.8, 0.9])
@pytest.mark.parametrize("beta", [0.4, 0.5, 0.6, 0.8, 0.9])
def test_density_on_standard_grid(alpha, beta):
    r = np.random.default_rng(101)
    store, layout = make_store({
        "enc.a": (r.normal(size=(13, 7)), "encoder"),
        "enc.b": (r.normal(size=(5, 9)), "encoder"),
        "dec.a": (r.normal(size=(11, 6)), "decoder"),
        "dec.b": (r.normal(size=(4,)), "decoder"),
        "dec.c": (r.normal(size=(8, 8)), "decoder"),
    })
    mask = magnitude_prune(store, layout, PruneSpec(alpha, beta), "d")
    for region, frac in (("encoder", alpha), ("decoder", beta)):
        pool = pool_size(layout, region)
        ones = region_ones(mask, layout, region)
        assert abs(ones - round((1 - frac) * pool)) <= 1
        assert (mask_ones_set(mask, layout, region)
                == sort_oracle_keep(store, layout, region, frac))


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(min_value=0, max_value=1),
       beta=st.floats(min_value=0, max_value=1),
       seed=st.integers(min_value=0, max_value=2**16))
def test_density_invariant_any_fraction(alpha, beta, seed):
    r = np.random.default_rng(seed)
    store, layout = make_store({
        "enc.a": (r.normal(size=(6, 5)), "encoder"),
        "dec.a": (r.normal(size=(7, 4)), "decoder"),
    })
    mask = magnitude_prune(store, layout, PruneSpec(alpha, beta), "d")
    for region, frac in (("encoder", alpha), ("decoder", beta)):
        pool = pool_size(layout, region)
        assert abs(region_ones(mask, layout, region) - round((1 - frac) * pool)) <= 1


def test_tie_break_by_name_then_index():
    # equal magnitudes everywhere: the keep set must be the lexicographically
    # first (name, index) pairs
    store, layout = make_store({
        "enc.b": (np.ones((1, 4)), "encoder"),
        "enc.a": (np.ones((1, 4)), "encoder"),
        "dec.w": (np.ones((1, 2)), "decoder"),
    })
    mask = magnitude_prune(store, layout, PruneSpec(0.5, 0.0), "d")
    assert mask.bits["enc.a"].tolist() == [True] * 4
    assert mask.bits["enc.b"].tolist() == [False] * 4


def stable_argsort_keep(absvals: np.ndarray, keep: int) -> np.ndarray:
    """The former keep rule: the first `keep` of a stable descending argsort."""
    flags = np.zeros(absvals.size, dtype=bool)
    flags[np.argsort(-absvals, kind="stable")[:keep]] = True
    return flags


@pytest.mark.parametrize("keep", [0, 1, 137, 300])
def test_prune_keeps_the_stable_argsort_rule_on_a_tie_heavy_pool(keep):
    # one decimal gives ~20 distinct magnitudes in a pool of 300, signed zeros
    # included; the ties at the cut must go to the first in pool order
    r = np.random.default_rng(11)
    values = {name: np.round(r.normal(size=shape), 1)
              for name, shape in (("enc.b", (10, 12)), ("enc.a", (9, 20)), ("dec.w", (4, 5)))}
    store, layout = make_store({name: (v, "decoder" if name.startswith("dec") else "encoder")
                             for name, v in values.items()})
    mask = magnitude_prune(store, layout, PruneSpec(1.0 - keep / 300, 0.5), "d")
    pool = np.abs(np.concatenate([values["enc.a"].ravel(), values["enc.b"].ravel()]))
    got = np.concatenate([mask.bits["enc.a"].ravel(), mask.bits["enc.b"].ravel()])
    assert got.sum() == keep
    assert np.array_equal(got, stable_argsort_keep(pool, keep))
    assert np.array_equal(mask.bits["dec.w"].ravel(),
                          stable_argsort_keep(np.abs(values["dec.w"].ravel()), 10))


def test_prune_invariant_to_registry_order():
    r = np.random.default_rng(3)
    a, b, d = r.normal(size=(3, 3)), r.normal(size=(2, 5)), r.normal(size=(2, 2))
    s1, r1 = make_store({"enc.a": (a, "encoder"), "enc.b": (b, "encoder"),
                         "dec.w": (d, "decoder")})
    s2, r2 = make_store({"dec.w": (d, "decoder"), "enc.b": (b, "encoder"),
                         "enc.a": (a, "encoder")})
    m1 = magnitude_prune(s1, r1, PruneSpec(0.7, 0.3), "d")
    m2 = magnitude_prune(s2, r2, PruneSpec(0.7, 0.3), "d")
    assert m1 == m2


def test_empty_region_pool_is_error():
    store, layout = make_store({"enc.w": (np.ones((2, 2)), "encoder"),
                             "dec.b": (np.ones(3), "decoder")})
    with pytest.raises(RegistryMismatchError):
        magnitude_prune(store, layout, PruneSpec(0.5, 0.5), "d")


def test_disjoint_with_no_claims_equals_unconstrained():
    store, layout = two_region_store([3, -1, 10, 2, -7, 4, -9, 5, 6, -8], [1, 2])
    spec = PruneSpec(0.6, 0.0)
    assert magnitude_prune_disjoint(store, layout, spec, MaskSet([]), "d") == \
        magnitude_prune(store, layout, spec, "d")


def test_disjoint_with_full_claim_is_empty():
    store, layout = two_region_store([1, 2, 3, 4], [1, 2])
    spec = PruneSpec(0.0, 0.0)
    claimed = MaskSet([magnitude_prune(store, layout, spec, "a")])
    mask = magnitude_prune_disjoint(store, layout, spec, claimed, "b")
    assert mask.popcount() == 0


def test_disjoint_skips_claimed_top_positions():
    vals = [3, -1, 10, 2, -7, 4, -9, 5, 6, -8]  # |v| = 1..10
    store, layout = two_region_store(vals, [1, 2])
    claimed_bits = {
        "enc.w": np.isin(np.abs(np.asarray(vals, dtype=float)), [10.0, 9.0]),
        "dec.w": np.zeros(2, dtype=bool),
    }
    claimed = MaskSet([DomainMask("a", claimed_bits, PruneSpec(0.6, 0.0))])
    mask = magnitude_prune_disjoint(store, layout, PruneSpec(0.6, 0.0), claimed, "b")
    kept_vals = sorted(abs(vals[i]) for _, i in mask_ones_set(mask, layout, "encoder"))
    assert kept_vals == [7.0, 8.0]  # no padding back to the nominal four


def test_capacity_formula_grid():
    for alpha in (0.4, 0.5, 0.6, 0.8, 0.9):
        for beta in (0.4, 0.5, 0.6, 0.8, 0.9):
            got = capacity(PruneSpec(alpha, beta))
            expect = min(Fraction(1) / (1 - Fraction(alpha)),
                         Fraction(1) / (1 - Fraction(beta)))
            assert got == int(expect.__floor__())
    assert capacity(PruneSpec(0.6, 0.6)) == 2
    assert capacity(PruneSpec(0.5, 0.75)) == 2
    assert capacity(PruneSpec(0.9, 0.9)) == 10
    with pytest.raises(ConfigError):
        capacity(PruneSpec(1.0, 0.5))


def test_overlap_stats_cases():
    bits_a = {"w": np.array([1, 1, 0, 0], dtype=bool)}
    bits_b = {"w": np.array([0, 1, 1, 0], dtype=bool)}
    spec = PruneSpec(0.5, 0.5)
    stats = overlap_stats(MaskSet([DomainMask("a", bits_a, spec),
                                   DomainMask("b", bits_b, spec)]))
    assert stats.shared_ones[0, 1] == 1
    assert stats.jaccard[0, 1] == pytest.approx(1 / 3)
    assert stats.jaccard[0, 0] == 1.0
    same = overlap_stats(MaskSet([DomainMask("a", bits_a, spec)]))
    assert same.jaccard[0, 0] == 1.0
    disjoint = overlap_stats(MaskSet([
        DomainMask("a", {"w": np.array([1, 0], dtype=bool)}, spec),
        DomainMask("b", {"w": np.array([0, 1], dtype=bool)}, spec)]))
    assert disjoint.shared_ones[0, 1] == 0


def test_overlay_elementwise():
    base, layout = make_store({"enc.w": (np.array([[1.0, 1.0, 1.0, 1.0]]), "encoder"),
                            "dec.w": (np.array([[2.0, 2.0]]), "decoder")})
    trained, _ = make_store({"enc.w": (np.array([[9.0, 9.0, 9.0, 9.0]]), "encoder"),
                             "dec.w": (np.array([[7.0, 7.0]]), "decoder")})
    mask = DomainMask("d", {"enc.w": np.array([1, 0, 1, 0], dtype=bool),
                            "dec.w": np.zeros(2, dtype=bool)}, PruneSpec(0.5, 1.0))
    out = overlay(base, trained, mask)
    assert out.array("enc.w").tolist() == [[9.0, 1.0, 9.0, 1.0]]
    assert out.array("dec.w").tolist() == [[2.0, 2.0]]


def test_overlay_all_ones_and_all_zeros():
    r = np.random.default_rng(5)
    base, layout = make_store({"enc.w": (r.normal(size=(3, 3)), "encoder"),
                            "enc.b": (r.normal(size=(3,)), "encoder"),
                            "dec.w": (r.normal(size=(2, 2)), "decoder")})
    trained = ParamStore({n: Tensor(t.data + 1.0, name=n) for n, t in base.items()})
    ones = overlay(base, trained, full_mask(layout, "d"))
    assert np.array_equal(ones.array("enc.w"), trained.array("enc.w"))
    assert np.array_equal(ones.array("enc.b"), base.array("enc.b"))  # non-maskable
    zeros_mask = DomainMask("z", {"enc.w": np.zeros(9, dtype=bool),
                                  "dec.w": np.zeros(4, dtype=bool)}, PruneSpec(1, 1))
    zeroed = overlay(base, trained, zeros_mask)
    for name, t in base.items():
        assert np.array_equal(zeroed.array(name), t.data)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_overlay_idempotent_on_base(seed):
    r = np.random.default_rng(seed)
    base, layout = make_store({"enc.w": (r.normal(size=(4, 3)), "encoder"),
                            "dec.w": (r.normal(size=(2, 5)), "decoder")})
    bits = {"enc.w": r.random(12) < 0.5, "dec.w": r.random(10) < 0.5}
    mask = DomainMask("d", bits, PruneSpec(0.5, 0.5))
    out = overlay(base, base, mask)
    for name, t in base.items():
        assert np.array_equal(out.array(name), t.data)


def test_mask_file_roundtrip(tmp_path):
    r = np.random.default_rng(9)
    store, layout = make_store({"enc.w": (r.normal(size=(4, 5)), "encoder"),
                             "dec.w": (r.normal(size=(3, 3)), "decoder")})
    mask = magnitude_prune(store, layout, PruneSpec(0.35, 0.6), "mydomain")
    path = tmp_path / "m.mask"
    save_mask(mask, path)
    loaded = load_mask(path)
    assert loaded == mask
    assert loaded.domain_id == "mydomain"
    assert loaded.spec.alpha == 0.35 and loaded.spec.beta == 0.6


def test_mask_file_rewrite_is_byte_identical(tmp_path):
    from doss.model import ModelConfig, build_model

    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    store, layout = build_model(cfg, seed=4)
    for mask in (magnitude_prune(store, layout, PruneSpec(0.6, 0.4), "pruned"),
                 full_mask(layout, "full")):
        first, second = tmp_path / "a.mask", tmp_path / "b.mask"
        save_mask(mask, first)
        loaded = load_mask(first)
        assert loaded == mask and loaded.layout == mask.layout
        save_mask(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    # equality ignores layout order, the file keeps it
    reordered = DomainMask("full", dict(reversed(full_mask(layout, "full").bits.items())),
                           PruneSpec(0.0, 0.0))
    assert reordered == full_mask(layout, "full")
    assert reordered.layout != full_mask(layout, "full").layout


def test_masks_with_different_layouts_do_not_combine():
    spec = PruneSpec(0.5, 0.5)
    a = DomainMask("a", {"enc.w": np.array([1, 0], dtype=bool),
                         "dec.w": np.array([0, 1, 1], dtype=bool)}, spec)
    swapped = DomainMask("b", {"dec.w": np.array([1, 0, 0], dtype=bool),
                               "enc.w": np.array([0, 1], dtype=bool)}, spec)
    shorter = DomainMask("c", {"enc.w": np.array([1, 0], dtype=bool),
                               "dec.w": np.array([0, 1], dtype=bool)}, spec)
    for other in (swapped, shorter):
        pair = MaskSet([a, other])
        for combine in (pair.union_bits, pair.union_mask, lambda: overlap_stats(pair)):
            with pytest.raises(RegistryMismatchError):
                combine()


def test_mask_file_bit_packing(tmp_path):
    # 12-bit bitset packs LSB-first into 2 bytes
    bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0], dtype=bool)
    mask = DomainMask("x", {"w": bits}, PruneSpec(0.25, 0.5))
    path = tmp_path / "m.mask"
    save_mask(mask, path)
    raw = path.read_bytes()
    byte0 = sum(int(bits[i]) << i for i in range(8))
    byte1 = sum(int(bits[8 + i]) << i for i in range(4))
    assert raw[-2:] == bytes([byte0, byte1])
    assert load_mask(path) == mask


def test_mask_file_errors(tmp_path):
    mask = DomainMask("x", {"w": np.ones(5, dtype=bool)}, PruneSpec(0.2, 0.2))
    path = tmp_path / "m.mask"
    save_mask(mask, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.mask"
    bad.write_bytes(b"WRONGMAG" + raw[8:])
    with pytest.raises(FormatError):
        load_mask(bad)
    trunc = tmp_path / "t.mask"
    trunc.write_bytes(raw[:-1])
    with pytest.raises(FormatError):
        load_mask(trunc)
    for field in (b"\x01\x00x", b"\x01\x00w"):  # the domain id, then the tensor name
        assert raw.count(field) == 1
        not_utf8 = tmp_path / "s.mask"
        not_utf8.write_bytes(raw.replace(field, b"\x01\x00\xff"))
        with pytest.raises(FormatError, match="not UTF-8"):
            load_mask(not_utf8)
    # an element count of 2**64 - 1 would ask for 2**61 bytes: truncated
    count = b"\x01\x00w" + struct.pack("<Q", 5)
    assert raw.count(count) == 1
    huge = tmp_path / "h.mask"
    huge.write_bytes(raw.replace(count, b"\x01\x00w" + struct.pack("<Q", 2**64 - 1)))
    with pytest.raises(FormatError, match="truncated"):
        load_mask(huge)


def test_mask_file_refuses_a_repeated_tensor_name(tmp_path):
    spec = PruneSpec(0.5, 0.5)
    mask = DomainMask("x", {"enc.a": np.ones(256, dtype=bool),
                            "enc.b": np.ones(256, dtype=bool)}, spec)
    path = tmp_path / "m.mask"
    save_mask(mask, path)
    raw = path.read_bytes()
    assert raw.count(b"enc.b") == 1
    twice = tmp_path / "twice.mask"
    twice.write_bytes(raw.replace(b"enc.b", b"enc.a"))
    with pytest.raises(FormatError, match=re.escape("'enc.a' twice")):
        load_mask(twice)


def test_maskset_unique_ids_and_union():
    spec = PruneSpec(0.5, 0.5)
    a = DomainMask("a", {"w": np.array([1, 0], dtype=bool)}, spec)
    b = DomainMask("b", {"w": np.array([0, 1], dtype=bool)}, spec)
    ms = MaskSet([a, b])
    assert is_pairwise_disjoint(ms)
    assert ms.union_bits()["w"].tolist() == [True, True]
    assert ms.union_mask().popcount() == 2
    with pytest.raises(RegistryMismatchError):
        MaskSet([a, DomainMask("a", {"w": np.array([1, 1], dtype=bool)}, spec)])
    with pytest.raises(KeyError):
        ms.get("zzz")


def test_create_domain_mask_behaviour():
    from doss.data import SyntheticTask, gen_domain
    from doss.masks import create_domain_mask
    from doss.model import ModelConfig, build_model
    from doss.training import TrainConfig

    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    lam0, layout = build_model(cfg, seed=4)
    data = gen_domain(SyntheticTask("reverse", content_hi=14, min_len=3, max_len=5,
                                    seed=2), 40, domain_id="rev")
    tcfg = TrainConfig(1e-3, 10, 64, 0.1, epochs=2, seed=6)
    before = lam0.checksum()
    spec = PruneSpec(0.5, 0.5)
    m1 = create_domain_mask(lam0, data, spec, tcfg, cfg)
    m2 = create_domain_mask(lam0, data, spec, tcfg, cfg)
    assert lam0.checksum() == before  # the base is never mutated
    assert m1 == m2                   # same seed -> identical masks
    all_ones = create_domain_mask(lam0, data, PruneSpec(0.0, 0.0), tcfg, cfg)
    assert all_ones.popcount() == pool_size(layout)
    m1.require_matches(layout)
