"""BLEU/exact-match oracles, greedy decoding, and evaluation matrices."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doss.autograd import Tensor
from doss.data import SyntheticTask, gen_domain
from doss.errors import ConfigError, DossError
from doss.evaluation import (EvalCell, Variant, corpus_bleu, decode_dataset,
                             eval_matrix, exact_match, greedy_decode, pearson,
                             trim_eos)
from doss.masks import DomainMask, MaskSet, PruneSpec
from doss.model import EOS_ID, ModelConfig, ParamStore, build_model


def oracle_bleu(hyps, refs, max_n=4):
    """Independent n-gram-counting oracle, written from the scoring formula."""
    precisions = []
    for n in range(1, max_n + 1):
        match = total = 0
        for hyp, ref in zip(hyps, refs):
            hyp_ngrams = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            ref_ngrams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            for g, c in hyp_ngrams.items():
                match += min(c, ref_ngrams.get(g, 0))
            total += max(len(hyp) - n + 1, 0)
        smooth = 1 if n >= 2 else 0
        if match + smooth == 0 or total + smooth == 0:
            return 0.0
        precisions.append((match + smooth) / (total + smooth))
    c = sum(len(h) for h in hyps)
    r = sum(len(r_) for r_ in refs)
    if c == 0:
        return 0.0
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / max_n)


def test_bleu_perfect_match_is_100():
    hyps = [[1, 2, 3, 4, 5], [6, 7]]
    assert corpus_bleu(hyps, [list(h) for h in hyps]) == pytest.approx(100.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=10),
                min_size=1, max_size=6))
def test_bleu_identity_and_oracle_agreement(corpus):
    score = corpus_bleu(corpus, [list(s) for s in corpus])
    assert score == pytest.approx(100.0)
    hyps = [s[::-1] for s in corpus]
    assert corpus_bleu(hyps, corpus) == pytest.approx(oracle_bleu(hyps, corpus), abs=1e-9)


def test_bleu_clipped_counts_hand_example():
    # "the the the" vs "the cat": clipped p1 = 1/3, smoothed higher orders
    hyp = [["the", "the", "the"]]
    ref = [["the", "cat"]]
    got = corpus_bleu(hyp, ref)
    expect = oracle_bleu(hyp, ref)
    assert got == pytest.approx(expect, abs=1e-9)
    # closed form: p = (1/3, 1/3, 1/2, 1), BP = 1
    assert got == pytest.approx(100 * (1 / 3 * 1 / 3 * 1 / 2) ** 0.25, abs=1e-9)


def test_bleu_brevity_penalty():
    # hyp half the ref length with perfect precision: BP = exp(1 - 2) = e^-1
    got = corpus_bleu([["a"]], [["a", "a"]])
    assert got == pytest.approx(100 * math.exp(-1.0), abs=1e-9)


def test_bleu_permutation_invariant():
    hyps = [[1, 2, 3], [4, 5], [6]]
    refs = [[1, 2, 4], [4, 5], [7]]
    a = corpus_bleu(hyps, refs)
    b = corpus_bleu(hyps[::-1], refs[::-1])
    assert a == pytest.approx(b, abs=1e-12)


def test_bleu_errors_and_edge_cases():
    with pytest.raises(DossError):
        corpus_bleu([], [])
    with pytest.raises(DossError):
        corpus_bleu([[1]], [[1], [2]])
    assert corpus_bleu([[]], [[1, 2]]) == 0.0  # empty hypothesis corpus
    assert corpus_bleu([[9, 9]], [[1, 2]]) == 0.0  # zero unigram overlap


def test_exact_match_fractions():
    assert exact_match([[1, 2]], [[1, 2]]) == 1.0
    assert exact_match([[1]], [[2]]) == 0.0
    hyps = [[1], [2], [3], [4]]
    refs = [[1], [9], [9], [9]]
    assert exact_match(hyps, refs) == 0.25
    with pytest.raises(DossError):
        exact_match([], [])


def test_exact_match_trims_eos():
    assert exact_match([[5, 7, EOS_ID, 99]], [[5, 7]]) == 1.0
    assert trim_eos([5, EOS_ID, 7]) == [5]


def test_pearson():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    with pytest.raises(DossError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(DossError):
        pearson([1], [2])


def _mini():
    cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, max_len=16)
    store, registry = build_model(cfg, seed=11)
    return cfg, store, registry


def test_greedy_decode_reproducible():
    cfg, store, _ = _mini()
    src = np.array([[5, 6, 7], [8, 9, 4]])
    a = greedy_decode(store, cfg, src, max_len=6)
    b = greedy_decode(store, cfg, src, max_len=6)
    assert a == b
    with pytest.raises(ConfigError):
        greedy_decode(store, cfg, src, max_len=0)


def test_greedy_decode_argmax_tie_breaks_low():
    cfg, store, _ = _mini()
    zeroed = ParamStore({n: Tensor(np.zeros_like(t.data), name=n)
                         for n, t in store.items()})
    out = greedy_decode(zeroed, cfg, np.array([[5, 6]]), max_len=3)
    # all logits equal -> argmax picks token id 0 every step
    assert out == [[0, 0, 0]]


def test_greedy_decode_length_bound():
    # without an eos, a row gets min(max_len, model max_len - 1) tokens, and
    # at least one: the decoder input may not outgrow the model's max_len
    for model_len, max_len, expect in ((1, 5, 1), (2, 5, 1), (4, 2, 2), (4, 9, 3)):
        cfg = ModelConfig(vocab_size=14, d_model=16, ffn_dim=32, n_enc_layers=1,
                          n_dec_layers=1, n_heads=2, max_len=model_len)
        store, _ = build_model(cfg, seed=1)
        zeroed = ParamStore({n: Tensor(np.zeros_like(t.data), name=n)
                             for n, t in store.items()})
        out = greedy_decode(zeroed, cfg, np.array([[5], [6]]), max_len=max_len)
        assert out == [[0] * expect] * 2


def test_greedy_decode_batch_independence():
    cfg, store, _ = _mini()
    src = np.array([[5, 6, 7], [8, 9, 4], [4, 4, 4]])
    batch = greedy_decode(store, cfg, src, max_len=6)
    singles = [greedy_decode(store, cfg, src[i:i + 1], max_len=6)[0]
               for i in range(3)]
    assert batch == singles
    perm = greedy_decode(store, cfg, src[::-1].copy(), max_len=6)
    assert perm == batch[::-1]


def test_decode_dataset_order_and_shapes():
    cfg, store, _ = _mini()
    ds = gen_domain(SyntheticTask("copy", content_hi=14, min_len=2, max_len=5, seed=3),
                    10, domain_id="c")
    hyps = decode_dataset(store, cfg, ds, max_len=6, batch_size=4)
    assert len(hyps) == 10


@pytest.fixture(scope="module")
def trained_copy():
    from doss.training import TrainConfig, train_full

    cfg, store, registry = _mini()
    ds = gen_domain(SyntheticTask("copy", content_hi=14, min_len=2, max_len=4, seed=5),
                    120, domain_id="copy")
    lam = train_full(store, ds, TrainConfig(3e-3, 30, 96, 0.1, max_steps=1500, seed=7), cfg)
    return cfg, store, registry, lam, ds


def test_trained_copy_model_decodes_with_eos(trained_copy):
    cfg, _, _, lam, ds = trained_copy
    src = np.array([[5, 7, 9]])
    out = greedy_decode(lam, cfg, src, max_len=6)[0]
    assert out == [5, 7, 9, EOS_ID]


def test_greedy_decode_cuts_each_row_after_its_first_eos(trained_copy):
    cfg, _, _, lam, _ = trained_copy
    src = np.array([[5, 7, 0, 0], [5, 7, 9, 0], [5, 7, 9, 11]])
    out = greedy_decode(lam, cfg, src, max_len=8)
    # rows stop at different steps; each keeps its eos and nothing after it
    assert len({len(row) for row in out}) > 1
    assert all(row.count(EOS_ID) == 1 and row[-1] == EOS_ID for row in out)
    assert out == [greedy_decode(lam, cfg, src[i:i + 1], max_len=8)[0] for i in range(3)]


def test_eval_matrix_single_cell_and_averages(trained_copy):
    cfg, store, registry, lam, ds = trained_copy
    report = eval_matrix([Variant("m", lam, trainable=123)], [ds], cfg, max_len=6)
    assert report.domain_ids == ["copy"]
    cell = report.cell("m", "copy")
    assert isinstance(cell, EvalCell)
    assert cell.n_sentences == ds.size
    assert cell.exact_match >= 0.9  # trained on exactly this task
    avg_bleu, avg_em = report.averages("m")
    assert avg_bleu == pytest.approx(cell.bleu)
    assert avg_em == pytest.approx(cell.exact_match)
    assert "123" in report.to_markdown()
    assert "copy" in report.to_csv().splitlines()[0] or "domain" in report.to_csv().splitlines()[0]


def test_eval_matrix_average_is_mean_over_domains(trained_copy):
    cfg, store, registry, lam, ds = trained_copy
    other = gen_domain(SyntheticTask("reverse", content_hi=14, min_len=2, max_len=4,
                                     seed=6), 20, domain_id="reverse")
    report = eval_matrix([Variant("m", lam)], [ds, other], cfg, max_len=6)
    avg_bleu, avg_em = report.averages("m")
    cells = [report.cell("m", d) for d in ("copy", "reverse")]
    assert avg_bleu == pytest.approx(sum(c.bleu for c in cells) / 2)
    assert avg_em == pytest.approx(sum(c.exact_match for c in cells) / 2)


def test_eval_matrix_uses_matching_mask_per_domain(trained_copy):
    cfg, lam0, registry, lam, ds = trained_copy
    r = np.random.default_rng(2)
    bits_a = {i.name: r.random(i.size) < 0.5 for i in registry.maskable_infos()}
    bits_b = {i.name: ~bits_a[i.name] for i in registry.maskable_infos()}
    masks = MaskSet([DomainMask("copy", bits_a, PruneSpec(0.5, 0.5)),
                     DomainMask("other", bits_b, PruneSpec(0.5, 0.5))])
    v = Variant("doss", lam, base=lam0, masks=masks)
    report = eval_matrix([v], [ds], cfg, max_len=6)
    # cross-mask probe: scoring the same domain under the other domain's mask
    # must change the outcome when the masks differ and lam != lam0
    swapped = MaskSet([DomainMask("copy", bits_b, PruneSpec(0.5, 0.5))])
    report_swapped = eval_matrix([Variant("doss", lam, base=lam0, masks=swapped)],
                                 [ds], cfg, max_len=6)
    a = report.cell("doss", "copy")
    b = report_swapped.cell("doss", "copy")
    assert (a.bleu, a.exact_match) != (b.bleu, b.exact_match)


def test_eval_matrix_missing_mask_is_error(trained_copy):
    cfg, lam0, registry, lam, ds = trained_copy
    masks = MaskSet([DomainMask("other", {i.name: np.ones(i.size, dtype=bool)
                                          for i in registry.maskable_infos()},
                                PruneSpec(0, 0))])
    with pytest.raises(DossError):
        eval_matrix([Variant("doss", lam, base=lam0, masks=masks)], [ds], cfg, max_len=6)
    with pytest.raises(DossError):
        eval_matrix([Variant("doss", lam, masks=masks)], [ds], cfg, max_len=6)
