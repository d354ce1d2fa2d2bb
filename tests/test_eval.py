"""BLEU/exact-match oracles, greedy decoding, and evaluation matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doss import evaluation, model
from doss.autograd import Tensor
from doss.data import SyntheticTask, gen_domain, make_batch
from doss.errors import ConfigError, DossError, NumericsError
from doss.evaluation import (EvalCell, Variant, bleu_stats, corpus_bleu, decode_dataset,
                             eval_matrix, exact_match, greedy_decode, pearson,
                             rows_to_decode, trim_eos)
from doss.masks import DomainMask, MaskSet, PruneSpec
from doss.model import EOS_ID, PAD_ID, ModelConfig, ParamStore, build_model
from support import (full_prefix_decode, oracle_bleu, oracle_bleu_from_sums,
                     oracle_sentence_stats)


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
    # integer counts and one order of float operations: equal to the last bit
    assert corpus_bleu(hyps, corpus) == oracle_bleu(hyps, corpus)


def test_bleu_clipped_counts_hand_example():
    # "the the the" vs "the cat": clipped p1 = 1/3, smoothed higher orders
    hyp = [["the", "the", "the"]]
    ref = [["the", "cat"]]
    got = corpus_bleu(hyp, ref)
    assert got == oracle_bleu(hyp, ref)
    # closed form: p = (1/3, 1/3, 1/2, 1), BP = 1
    assert got == pytest.approx(100 * (1 / 3 * 1 / 3 * 1 / 2) ** 0.25, abs=1e-9)


def _corpus_pairs(token):
    """(hyps, refs) of 1-6 sentence pairs of 0-8 tokens drawn from `token`."""
    sentence = st.lists(token, max_size=8)
    return st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(sentence, min_size=n, max_size=n), st.lists(sentence, min_size=n, max_size=n)))


# a few ids up to 2**62 per corpus, so that n-grams repeat and match
_BIG_IDS = st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=4, unique=True)
_CORPORA = {"ints": _BIG_IDS.flatmap(lambda ids: _corpus_pairs(st.sampled_from(ids))),
            "strings": _corpus_pairs(st.sampled_from(["the", "cat", "a", "ab", ""]))}


@pytest.mark.parametrize("kind", sorted(_CORPORA))
@settings(deadline=None)
@given(data=st.data(), max_n=st.integers(1, 4))
def test_bleu_stats_rows_match_the_counter_oracle(kind, data, max_n):
    hyps, refs = data.draw(_CORPORA[kind])
    stats = bleu_stats(hyps, refs, max_n)
    assert stats.dtype == np.int64 and stats.shape == (len(hyps), 2 + 2 * max_n)
    assert stats.tolist() == [oracle_sentence_stats(h, r, max_n) for h, r in zip(hyps, refs)]
    # the corpus score is the formula over the column sums, as a Python float
    score = corpus_bleu(hyps, refs, max_n)
    assert type(score) is float
    assert score == oracle_bleu_from_sums(stats.sum(axis=0).tolist(), max_n)
    assert score == oracle_bleu(hyps, refs, max_n)


def test_bleu_stats_of_a_vocabulary_whose_4_gram_codes_overflow_int64():
    # ids 0..69,999 all occur, so each ranks as itself; a base-V code of a
    # 4-gram reaches V**4 > 2**64, and the last pair's 4-grams have codes
    # exactly 2**64 apart: equal after an int64 wrap, yet no match
    n_ids = 70_000
    rest, apart = 2 ** 64, []
    for _ in range(4):
        rest, digit = divmod(rest, n_ids)
        apart.insert(0, digit)
    ref_gram = [5, 6, 7, 8]
    hyp_gram = [r + d for r, d in zip(ref_gram, apart)]
    assert max(hyp_gram) < n_ids and rest == 0
    rng = np.random.default_rng(9)
    ids = rng.permutation(n_ids).tolist()
    cuts = np.cumsum(rng.integers(1, 13, size=n_ids))
    refs = [ids[a:b] for a, b in zip(np.r_[0, cuts], cuts) if a < n_ids] + [ref_gram]
    hyps = [r[::-1] if i % 3 == 0 else r[:len(r) // 2] + ids[i:i + 3] if i % 3 == 1 else list(r)
            for i, r in enumerate(refs[:-1])] + [hyp_gram]
    stats = bleu_stats(hyps, refs)
    assert len({t for seq in hyps + refs for t in seq}) == n_ids
    assert stats[-1].tolist() == [4, 4, 0, 4, 0, 3, 0, 2, 0, 1]
    assert stats.tolist() == [oracle_sentence_stats(h, r) for h, r in zip(hyps, refs)]
    assert corpus_bleu(hyps, refs) == oracle_bleu(hyps, refs)


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
    assert exact_match([[5, 7]], [np.array([5, 7, EOS_ID])]) == 1.0
    assert type(exact_match([[5]], [[5]])) is float
    assert trim_eos([5, EOS_ID, 7]) == [5]
    got = trim_eos(np.array([5, 6, EOS_ID, 7]))
    assert got == [5, 6] and all(type(t) is int for t in got)
    seq = [5, 6]
    assert trim_eos(seq) is seq  # nothing to trim: no copy


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


def test_rows_to_decode_keeps_two_rows_while_the_batch_had_two():
    def keep(*finished):
        return rows_to_decode(np.array(finished, dtype=bool)).tolist()

    assert keep(False, True, False) == [0, 2]
    assert keep(True, False, True) == [0, 1]  # the first finished row stays
    assert keep(False, True) == [0, 1]
    assert keep(True, True) == []
    assert keep(False) == [0] and keep(True) == []


def test_decode_dataset_order_and_shapes():
    cfg, store, _ = _mini()
    ds = gen_domain(SyntheticTask("copy", content_hi=14, min_len=2, max_len=5, seed=3),
                    10, domain_id="c")
    hyps = decode_dataset(store, cfg, ds, max_len=6, batch_size=4)
    assert len(hyps) == 10


def test_decode_dataset_decodes_the_sources_of_make_batch(monkeypatch):
    cfg, store, _ = _mini()
    ds = gen_domain(SyntheticTask("copy", content_hi=14, min_len=1, max_len=6, seed=4),
                    11, domain_id="c")
    seen = []
    real = evaluation.greedy_decode
    monkeypatch.setattr(evaluation, "greedy_decode",
                        lambda p, c, src, n: seen.append(src) or real(p, c, src, n))
    decode_dataset(store, cfg, ds, max_len=3, batch_size=4)
    want = [make_batch("c", ds.pairs[ofs:ofs + 4]).src for ofs in (0, 4, 8)]
    assert len(seen) == 3 and len({a.shape[1] for a in want}) > 1
    for got, src in zip(seen, want):
        assert got.dtype == src.dtype and np.array_equal(got, src)


@pytest.mark.parametrize("name", ["enc.L0.ffn.b1", "dec.out_proj"])
def test_greedy_decode_refuses_non_finite_logits(name):
    # no op checks its output; each decode step checks its logits once
    cfg, store, _ = _mini()
    store.array(name).flat[0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="decode step 0$"):
        greedy_decode(store, cfg, np.array([[5, 6, 7], [8, 9, 0]]), max_len=6)


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


def test_greedy_decode_matches_full_prefix_reference(trained_copy, monkeypatch):
    # the cached decoder state feeds one position per step; its tokens equal
    # the full-prefix loop's, and its logits match to the last bits
    cfg, store, _, lam, ds = trained_copy
    src = make_batch("copy", ds.pairs[:24]).src
    assert (src == PAD_ID).any() and len({int((row != PAD_ID).sum()) for row in src}) > 1
    seen = []
    decode_logits = evaluation.decode_logits

    def recording(*args, **kwargs):
        logits = decode_logits(*args, **kwargs)
        seen.append(logits.data)
        return logits

    monkeypatch.setattr(evaluation, "decode_logits", recording)
    for params in (lam, store):  # trained: rows end at eos; untrained: rows run long
        seen.clear()
        tokens = greedy_decode(params, cfg, src, max_len=12)
        ref_tokens, ref_steps = full_prefix_decode(params, cfg, src, max_len=12)
        assert tokens == ref_tokens
        assert len(seen) == len(ref_steps)
        for got, ref in zip(seen, ref_steps):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            assert np.array_equal(got.argmax(axis=1), ref.argmax(axis=1))
    assert len(ref_steps) > 6


def test_greedy_decode_builds_the_memory_mask_once_per_batch_composition(trained_copy,
                                                                        monkeypatch):
    # rows leave the batch at different steps; the memory's rows and key mask
    # are built when the batch starts and again only after keep_decoding
    cfg, _, _, lam, ds = trained_copy
    src = make_batch("copy", ds.pairs[:24]).src
    calls = {"key_mask": 0, "keep_decoding": 0, "decode_logits": 0}

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    spy(model, "key_mask")  # encode's and decode_logits'
    spy(evaluation, "keep_decoding")
    spy(evaluation, "decode_logits")
    tokens = greedy_decode(lam, cfg, src, max_len=12)
    assert len({len(row) for row in tokens}) > 2 and calls["keep_decoding"] > 1
    assert calls["key_mask"] == 1 + (1 + calls["keep_decoding"])
    assert calls["decode_logits"] > 1 + calls["keep_decoding"]
    monkeypatch.undo()
    assert tokens == full_prefix_decode(lam, cfg, src, max_len=12)[0]


def test_greedy_decode_tokens_match_in_batches_of_2_and_64(trained_copy):
    # each source decoded beside one other row and inside a 64-row batch,
    # where other rows finish earlier or later and leave the batch
    cfg, store, _, lam, ds = trained_copy
    pairs = ds.pairs[:64]
    src = make_batch("copy", pairs).src
    for params in (lam, store):
        batch = greedy_decode(params, cfg, src, max_len=8)
        for i in range(32):
            j = 63 - i
            two = greedy_decode(params, cfg, make_batch("copy", [pairs[i], pairs[j]]).src, 8)
            assert two == [batch[i], batch[j]], (i, j)
    lengths = {len(row) for row in greedy_decode(lam, cfg, src, max_len=8)}
    assert len(lengths) > 1  # the trained model's rows end at different steps


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
