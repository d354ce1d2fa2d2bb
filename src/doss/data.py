"""Synthetic multi-domain sequence tasks, parallel-text ingestion, corpus
filtering, the vocabulary, and deterministic single-domain batching.

All domains draw sources from the same content-token distribution, so domain
identity is only recoverable from the input->output mapping. That is what
makes joint finetuning without domain information ambiguous while per-domain
sub-networks stay learnable.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .autograd import derive_seed
from .errors import ConfigError, FormatError
from .model import BOS_ID, EOS_ID, PAD_ID, UNK_ID

RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
N_RESERVED = len(RESERVED_TOKENS)

TASK_KINDS = ("copy", "reverse", "shift", "sort")


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class DomainDataset:
    """Sentence pairs (source ids, target ids) for one domain."""
    domain_id: str
    pairs: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        for src, tgt in self.pairs:
            if len(src) == 0 or len(tgt) == 0:
                raise ConfigError(f"empty sequence in domain {self.domain_id!r}")

    @property
    def size(self) -> int:
        return len(self.pairs)

    def max_pair_tokens(self) -> int:
        # +1 on the target side accounts for bos/eos framing in batches
        return max(max(len(s), len(t) + 1) for s, t in self.pairs)


def concat_datasets(datasets: Sequence[DomainDataset],
                    domain_id: str | None = None) -> DomainDataset:
    if not datasets:
        raise ConfigError("cannot concatenate zero datasets")
    merged = []
    for ds in datasets:
        merged.extend(ds.pairs)
    return DomainDataset(domain_id or "+".join(d.domain_id for d in datasets), merged)


# ---------------------------------------------------------------------------
# synthetic tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticTask:
    """Deterministic target function over uniformly drawn source sequences.

    Default lengths start at 6 so that every non-copy task maps at least 99%
    of random inputs to a target different from the source (fixed points:
    palindromes for reverse, already-sorted sequences for sort)."""
    kind: str
    content_lo: int = N_RESERVED
    content_hi: int = N_RESERVED + 16  # exclusive
    min_len: int = 6
    max_len: int = 10
    shift: int = 1
    seed: int = 0

    def validate(self) -> "SyntheticTask":
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.content_hi <= self.content_lo:
            raise ConfigError("empty content-token range")
        if self.content_lo < N_RESERVED:
            raise ConfigError("content range overlaps reserved token ids")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError("bad length range")
        return self

    def apply(self, src: np.ndarray) -> np.ndarray:
        if self.kind == "copy":
            return src.copy()
        if self.kind == "reverse":
            return src[::-1].copy()
        if self.kind == "shift":
            span = self.content_hi - self.content_lo
            return (src - self.content_lo + self.shift) % span + self.content_lo
        if self.kind == "sort":
            return np.sort(src)
        raise ConfigError(f"unknown task kind {self.kind!r}")


def gen_domain(task: SyntheticTask, n_pairs: int, domain_id: str | None = None) -> DomainDataset:
    """Generate `n_pairs` (source, target) pairs; deterministic under seed."""
    task.validate()
    if n_pairs < 1:
        raise ConfigError("n_pairs must be >= 1")
    rng = np.random.Generator(np.random.PCG64(derive_seed("gen-domain", task.seed)))
    pairs = []
    for _ in range(n_pairs):
        length = int(rng.integers(task.min_len, task.max_len + 1))
        src = rng.integers(task.content_lo, task.content_hi, size=length)
        pairs.append((src, task.apply(src)))
    return DomainDataset(domain_id or task.kind, pairs)


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterSpec:
    max_len: int = 250
    min_ratio: float = 0.67
    max_ratio: float = 1.5

    def validate(self) -> "FilterSpec":
        if not 0 < self.min_ratio < self.max_ratio:
            raise ConfigError(f"bad ratio bounds: {self}")
        return self


@dataclass
class FilterStats:
    kept: int = 0
    dropped_length: int = 0
    dropped_ratio: int = 0


def filter_corpus(pairs, spec: FilterSpec):
    """Keep pairs with both sides non-empty and within the length cap, and
    within the source/target length ratio bounds."""
    spec.validate()
    kept = []
    stats = FilterStats()
    for src, tgt in pairs:
        if not src or not tgt or len(src) > spec.max_len or len(tgt) > spec.max_len:
            stats.dropped_length += 1
            continue
        ratio = len(src) / len(tgt)
        if not spec.min_ratio <= ratio <= spec.max_ratio:
            stats.dropped_ratio += 1
            continue
        kept.append((src, tgt))
        stats.kept += 1
    return kept, stats


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocab:
    """Reserved ids 0..3 (pad, bos, eos, unk) + content tokens from id 4."""
    content: tuple[str, ...]

    @property
    def size(self) -> int:
        return N_RESERVED + len(self.content)

    @functools.cached_property
    def token_to_id(self) -> dict[str, int]:
        table = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
        table.update({tok: N_RESERVED + i for i, tok in enumerate(self.content)})
        return table

    def encode(self, tokens: Sequence[str]) -> list[int]:
        table = self.token_to_id
        return [table.get(tok, UNK_ID) for tok in tokens]


def vocab_from_pairs(token_pairs, content_size: int) -> Vocab:
    """Frequency-ranked vocabulary from tokenized text pairs (ties by token)."""
    counts: dict[str, int] = {}
    for src, tgt in token_pairs:
        for tok in list(src) + list(tgt):
            counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts, key=lambda t: (-counts[t], t))[:content_size]
    return Vocab(tuple(ranked))


def _text_lines(path) -> list[str]:
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            return [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def load_parallel_text(src_path, tgt_path) -> list[tuple[list[str], list[str]]]:
    """Two aligned newline-delimited UTF-8 files, whitespace-tokenized. Lines
    end only at "\n": a carriage return, form feed or U+2028 inside a line
    separates tokens, not lines."""
    src_lines, tgt_lines = _text_lines(src_path), _text_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise FormatError(
            f"parallel files differ in length: {len(src_lines)} vs {len(tgt_lines)}")
    return [(s.split(), t.split()) for s, t in zip(src_lines, tgt_lines)]


def encode_pairs(token_pairs, vocab: Vocab, domain_id: str) -> DomainDataset:
    pairs = [(np.asarray(vocab.encode(s), dtype=np.int64),
              np.asarray(vocab.encode(t), dtype=np.int64))
             for s, t in token_pairs if s and t]
    return DomainDataset(domain_id, pairs)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """One padded single-domain batch in teacher-forcing form."""
    domain_id: str
    src: np.ndarray      # (B, S) padded with PAD_ID
    tgt_in: np.ndarray   # (B, T+1) starts with BOS_ID
    tgt_out: np.ndarray  # (B, T+1) ends with EOS_ID before padding


def _pad_stack(seqs, first: int | None = None, last: int | None = None) -> np.ndarray:
    """PAD-filled int64 rows, one per sequence: `first` (when given), the
    sequence's ids, then `last` (when given), each row written by one numpy
    assignment."""
    lead = int(first is not None)
    width = max(map(len, seqs)) + lead + (last is not None)
    out = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    if lead:
        out[:, 0] = first
    for row, s in zip(out, seqs):
        row[lead:lead + len(s)] = s
        if last is not None:
            row[lead + len(s)] = last
    return out


def pad_sources(pairs) -> np.ndarray:
    """The (batch, len) source ids of `make_batch`, alone."""
    return _pad_stack([s for s, _ in pairs])


def make_batch(domain_id: str, pairs) -> Batch:
    tgts = [t for _, t in pairs]
    return Batch(domain_id, pad_sources(pairs), _pad_stack(tgts, first=BOS_ID),
                 _pad_stack(tgts, last=EOS_ID))


def _pack_indices(ds: DomainDataset, order: np.ndarray, batch_tokens: int):
    """Greedy packing of shuffled pair indices into token-budgeted groups."""
    groups = []
    cur: list[int] = []
    width = 0
    for idx in order:
        src, tgt = ds.pairs[idx]
        cost = max(len(src), len(tgt) + 1)
        new_width = max(width, cost)
        if cur and new_width * (len(cur) + 1) > batch_tokens:
            groups.append(cur)
            cur, width = [], 0
            new_width = cost
        cur.append(int(idx))
        width = new_width
    if cur:
        groups.append(cur)
    return groups


def _check_budget(datasets: Sequence[DomainDataset], batch_tokens: int) -> None:
    for ds in datasets:
        if ds.size == 0:
            raise ConfigError(f"domain {ds.domain_id!r} has no pairs to batch")
        worst = ds.max_pair_tokens()
        if worst > batch_tokens:
            raise ConfigError(
                f"batch_tokens={batch_tokens} smaller than longest pair "
                f"({worst} tokens) in domain {ds.domain_id!r}")


def epoch_batches(ds: DomainDataset, batch_tokens: int, seed: int,
                  epoch: int = 0) -> list[Batch]:
    """One shuffled pass over a dataset; every pair appears exactly once."""
    _check_budget([ds], batch_tokens)
    rng = np.random.Generator(np.random.PCG64(derive_seed("epoch", seed, ds.domain_id, epoch)))
    order = rng.permutation(ds.size)
    return [make_batch(ds.domain_id, [ds.pairs[i] for i in group])
            for group in _pack_indices(ds, order, batch_tokens)]


def _endless_batches(ds: DomainDataset, batch_tokens: int, seed: int) -> Iterator[Batch]:
    """Epoch 0, 1, 2, ... of one dataset, each built when the previous runs out."""
    for epoch in itertools.count():
        yield from epoch_batches(ds, batch_tokens, seed, epoch)


# the strategies that pick each next domain of a multi-domain batch stream
MIXINGS = ("round_robin", "proportional")


def batch_iterator(datasets: Sequence[DomainDataset], strategy: str,
                   batch_tokens: int, seed: int) -> Iterator[Batch]:
    """Endless deterministic stream of single-domain batches.

    Each domain's batches run through its epochs 0, 1, 2, ... in turn.
    round_robin cycles domains in the given order; proportional samples each
    next domain with probability proportional to dataset size.
    """
    if not datasets:
        raise ConfigError("batch_iterator needs at least one dataset")
    if strategy not in MIXINGS:
        raise ConfigError(f"unknown mixing strategy {strategy!r}")
    _check_budget(datasets, batch_tokens)

    streams = [_endless_batches(ds, batch_tokens, seed) for ds in datasets]
    if strategy == "round_robin":
        picks = itertools.cycle(streams)
    else:
        sizes = np.array([ds.size for ds in datasets], dtype=np.float64)
        probs = sizes / sizes.sum()
        rng = np.random.Generator(np.random.PCG64(derive_seed("mix", seed)))
        picks = (streams[int(rng.choice(len(streams), p=probs))] for _ in itertools.count())
    for stream in picks:
        yield next(stream)
