"""Synthetic task generation, filtering, vocabulary, caching, and batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doss.data import (Batch, DomainDataset, FilterSpec, SyntheticTask, Vocab,
                       batch_iterator, concat_datasets, encode_pairs, epoch_batches,
                       filter_corpus, gen_domain, load_parallel_text, vocab_from_pairs)
from doss.errors import ConfigError, FormatError
from doss.model import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from support import checksum_bytes


def test_task_functions_hand_examples():
    src = np.array([5, 7, 9])
    assert SyntheticTask("copy").apply(src).tolist() == [5, 7, 9]
    assert SyntheticTask("reverse").apply(src).tolist() == [9, 7, 5]


def test_shift_wraps_within_content_range():
    task = SyntheticTask("shift", content_lo=4, content_hi=20, shift=1)
    src = np.array([5, 7, 19])
    # independent modular-arithmetic oracle
    expect = [(t - 4 + 1) % 16 + 4 for t in src]
    assert task.apply(src).tolist() == expect == [6, 8, 4]


def test_sort_task():
    assert SyntheticTask("sort").apply(np.array([9, 4, 7])).tolist() == [4, 7, 9]


def test_task_validation():
    with pytest.raises(ConfigError):
        SyntheticTask("nope").validate()
    with pytest.raises(ConfigError):
        SyntheticTask("copy", content_lo=8, content_hi=8).validate()
    with pytest.raises(ConfigError):
        SyntheticTask("copy", content_lo=2).validate()  # collides with reserved ids
    with pytest.raises(ConfigError):
        gen_domain(SyntheticTask("copy"), 0)


def test_gen_domain_deterministic_and_seed_sensitive():
    t = SyntheticTask("reverse", seed=5)
    a = gen_domain(t, 50)
    b = gen_domain(t, 50)
    c = gen_domain(SyntheticTask("reverse", seed=6), 50)
    assert checksum_bytes(a) == checksum_bytes(b)
    assert checksum_bytes(a) != checksum_bytes(c)
    for src, tgt in a.pairs:
        assert tgt.tolist() == src[::-1].tolist()
        assert t.min_len <= len(src) <= t.max_len


def test_shared_source_distribution_across_kinds():
    # same seed -> identical sources regardless of the task kind
    a = gen_domain(SyntheticTask("copy", seed=3), 30)
    b = gen_domain(SyntheticTask("sort", seed=3), 30)
    for (sa, _), (sb, _) in zip(a.pairs, b.pairs):
        assert np.array_equal(sa, sb)


@pytest.mark.parametrize("kind", ["reverse", "shift", "sort"])
def test_conflict_guarantee_at_default_parameters(kind):
    """Non-copy tasks move >= 99% of random length >= 2 inputs off the identity."""
    task = SyntheticTask(kind)
    rng = np.random.default_rng(77)
    n, same = 20000, 0
    for _ in range(n):
        length = int(rng.integers(task.min_len, task.max_len + 1))
        src = rng.integers(task.content_lo, task.content_hi, size=length)
        if task.apply(src).tolist() == src.tolist():
            same += 1
    assert same / n <= 0.01


def test_filter_corpus_rules():
    spec = FilterSpec(max_len=250, min_ratio=0.67, max_ratio=1.5)
    pairs = [(list(range(10)), list(range(10))),   # kept
             (list(range(300)), list(range(10))),  # dropped: length
             (list(range(20)), list(range(10))),   # dropped: ratio 2.0
             (list(range(3)), [])]                 # dropped: empty target
    kept, stats = filter_corpus(pairs, spec)
    assert len(kept) == 1 and stats.kept == 1
    assert stats.dropped_length == 2 and stats.dropped_ratio == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=30))
def test_filter_corpus_idempotent(lengths):
    spec = FilterSpec(max_len=25, min_ratio=0.67, max_ratio=1.5)
    pairs = [([0] * a, [0] * b) for a, b in lengths]
    once, _ = filter_corpus(pairs, spec)
    twice, stats = filter_corpus(once, spec)
    assert twice == once
    assert stats.dropped_length == 0 and stats.dropped_ratio == 0


def test_vocab_roundtrip_and_reserved_ids():
    vocab = Vocab(tuple(f"w{i}" for i in range(6)))
    assert PAD_ID == 0 and vocab.size == 10
    assert vocab.encode(["w0", "w3", "w5"]) == [4, 7, 9]
    assert vocab.encode(["nope"]) == [UNK_ID]


def test_vocab_from_pairs_frequency_ranked():
    pairs = [(["b", "a", "a"], ["c"]), (["a"], ["b"])]
    vocab = vocab_from_pairs(pairs, 2)
    assert vocab.content == ("a", "b")


def test_parallel_text_ingestion(tmp_path):
    (tmp_path / "s.txt").write_text("ein haus\nder hund lauft\n", encoding="utf-8")
    (tmp_path / "t.txt").write_text("a house\nthe dog runs\n", encoding="utf-8")
    pairs = load_parallel_text(tmp_path / "s.txt", tmp_path / "t.txt")
    assert pairs[0] == (["ein", "haus"], ["a", "house"])
    vocab = vocab_from_pairs(pairs, 20)
    ds = encode_pairs(pairs, vocab, "de-en")
    assert ds.size == 2
    assert all(i >= 4 for s, t in ds.pairs for i in list(s) + list(t))
    # only "\n" ends a line; U+2028, a form feed or a lone CR inside one does not
    (tmp_path / "s2.txt").write_bytes("ein\u2028haus\r\nder\x0chund\rlauft\n".encode())
    (tmp_path / "t2.txt").write_bytes(b"a house\r\nthe dog runs\n")
    assert load_parallel_text(tmp_path / "s2.txt", tmp_path / "t2.txt") == [
        (["ein", "haus"], ["a", "house"]), (["der", "hund", "lauft"], ["the", "dog", "runs"])]
    (tmp_path / "bad.txt").write_text("only one line\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_parallel_text(tmp_path / "s.txt", tmp_path / "bad.txt")


def test_batches_are_padded_teacher_forcing():
    ds = gen_domain(SyntheticTask("copy", seed=1, min_len=3, max_len=6), 40)
    batches = epoch_batches(ds, batch_tokens=64, seed=0)
    seen = 0
    for b in batches:
        assert isinstance(b, Batch)
        assert b.src.shape[0] == b.tgt_in.shape[0] == b.tgt_out.shape[0]
        assert np.all(b.tgt_in[:, 0] == BOS_ID)
        for i in range(b.src.shape[0]):
            tgt = [t for t in b.tgt_out[i] if t != PAD_ID]
            assert tgt[-1] == EOS_ID
            seen += 1
    assert seen == ds.size


def test_epoch_batches_cover_each_pair_once():
    ds = gen_domain(SyntheticTask("copy", seed=1), 30)
    srcs = sorted(tuple(map(int, b.src[i][b.src[i] != PAD_ID]))
                  for b in epoch_batches(ds, 128, seed=3)
                  for i in range(b.src.shape[0]))
    expect = sorted(tuple(map(int, s)) for s, _ in ds.pairs)
    assert srcs == expect


def test_round_robin_alternates_domains():
    a = gen_domain(SyntheticTask("copy", seed=1), 30, domain_id="A")
    b = gen_domain(SyntheticTask("reverse", seed=2), 30, domain_id="B")
    stream = batch_iterator([a, b], "round_robin", 128, seed=0)
    ids = [next(stream).domain_id for _ in range(8)]
    assert ids == ["A", "B", "A", "B", "A", "B", "A", "B"]


def test_batch_iterator_runs_each_domain_through_its_epochs():
    a = gen_domain(SyntheticTask("copy", seed=1), 30, domain_id="A")
    b = gen_domain(SyntheticTask("reverse", seed=2), 70, domain_id="B")
    per_domain = {ds.domain_id: [bt for e in range(4) for bt in epoch_batches(ds, 128, 5, e)]
                  for ds in (a, b)}
    stream = batch_iterator([a, b], "round_robin", 128, seed=5)
    n = 2 * len(per_domain["A"])  # A: 4 epochs of 3 batches; B: 7 batches, then 5 more
    got = [next(stream) for _ in range(n)]
    for domain_id, offset in (("A", 0), ("B", 1)):
        expect = per_domain[domain_id][:n // 2]
        assert [(bt.src.tobytes(), bt.tgt_out.tobytes()) for bt in got[offset::2]] == \
            [(bt.src.tobytes(), bt.tgt_out.tobytes()) for bt in expect]


def test_single_domain_stream():
    a = gen_domain(SyntheticTask("copy", seed=1), 10, domain_id="A")
    stream = batch_iterator([a], "round_robin", 128, seed=0)
    assert {next(stream).domain_id for _ in range(6)} == {"A"}


def test_proportional_mixing_tracks_sizes():
    a = gen_domain(SyntheticTask("copy", seed=1), 100, domain_id="A")
    b = gen_domain(SyntheticTask("reverse", seed=2), 300, domain_id="B")
    stream = batch_iterator([a, b], "proportional", 256, seed=4)
    counts = {"A": 0, "B": 0}
    for _ in range(400):
        counts[next(stream).domain_id] += 1
    assert abs(counts["B"] - 300) <= 30  # within 10% of the 3:1 expectation


def test_batch_iterator_deterministic():
    a = gen_domain(SyntheticTask("copy", seed=1), 40, domain_id="A")
    b = gen_domain(SyntheticTask("sort", seed=2), 40, domain_id="B")

    def take(n):
        stream = batch_iterator([a, b], "proportional", 96, seed=9)
        return [(bt.domain_id, bt.src.tobytes(), bt.tgt_out.tobytes())
                for bt in (next(stream) for _ in range(n))]

    assert take(12) == take(12)


def test_batch_budget_error():
    ds = gen_domain(SyntheticTask("copy", seed=1, min_len=8, max_len=10), 5)
    with pytest.raises(ConfigError):
        epoch_batches(ds, batch_tokens=6, seed=0)
    with pytest.raises(ConfigError):
        next(batch_iterator([ds], "round_robin", 6, seed=0))
    with pytest.raises(ConfigError):
        next(batch_iterator([ds], "bogus", 64, seed=0))
    with pytest.raises(ConfigError):
        next(batch_iterator([], "round_robin", 64, seed=0))


def test_empty_dataset_is_a_config_error_naming_the_domain():
    empty = DomainDataset("x", [])
    with pytest.raises(ConfigError, match="'x'"):
        epoch_batches(empty, batch_tokens=64, seed=0)
    with pytest.raises(ConfigError, match="'x'"):
        next(batch_iterator([empty], "round_robin", 64, seed=0))


def test_concat_datasets():
    a = gen_domain(SyntheticTask("copy", seed=1), 10, domain_id="A")
    b = gen_domain(SyntheticTask("sort", seed=2), 15, domain_id="B")
    merged = concat_datasets([a, b])
    assert merged.size == 25
    assert merged.domain_id == "A+B"
    with pytest.raises(ConfigError):
        concat_datasets([])


def test_dataset_rejects_empty_sequences():
    with pytest.raises(ConfigError):
        DomainDataset("x", [(np.array([1]), np.array([], dtype=int))])
