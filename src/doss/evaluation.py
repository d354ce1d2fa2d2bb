"""Greedy decoding through overlay parameters, corpus BLEU and exact-match
scoring, and table-style evaluation matrices.

BLEU here is token-level BLEU-4 with add-one smoothing on the n >= 2 counts
and the standard brevity penalty; synthetic tokens have no surface forms, so
there is no detokenization step. Its statistics are integer arrays, one row
per sentence (`bleu_stats`), counted with numpy sorts; a corpus score is the
formula applied to their column sums.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math

import numpy as np

from . import autograd as ag
from .data import DomainDataset, pad_sources
from .errors import ConfigError, DossError, NumericsError
from .masks import MaskSet, overlay
from .model import (BOS_ID, EOS_ID, ModelConfig, ParamStore, decode_logits, encode,
                    keep_decoding)


def trim_eos(seq, eos: int = EOS_ID) -> list[int]:
    """The tokens of `seq` before its first eos, as a list; a list without
    an eos is returned as it is, any other sequence as a list of ints."""
    if not isinstance(seq, list):
        seq = np.asarray(seq).tolist()
    return seq[:seq.index(eos)] if eos in seq else seq


def rows_to_decode(finished: np.ndarray) -> np.ndarray:
    """Positions, in a decode batch, of the rows that the next step decodes:
    those not finished and, when just one of a batch of two or more is left,
    the first finished row as well. A one-row product takes BLAS's other
    path, so a lone row's bits would depend on the rest of the batch."""
    keep = np.flatnonzero(~finished)
    if keep.size == 1 and finished.size > 1:
        keep = np.sort(np.append(keep, np.flatnonzero(finished)[0]))
    return keep


def greedy_decode(effective: ParamStore, model_cfg: ModelConfig, src: np.ndarray,
                  max_len: int) -> list[list[int]]:
    """Argmax decoding, stopping per sequence at eos or max_len.

    Each step feeds the newest token of every row still decoding to
    `decode_logits`, against one decoder state per call that caches the
    attention keys and values. A row that emits eos leaves the batch, with
    its memory and cached keys and values (see `rows_to_decode`). Ties at
    the argmax break toward the lowest token id. The returned sequences
    include the terminating eos when one was emitted.

    A step's products are 2-D over the rows still decoding, so a row's logits
    can differ in their last bits from a full-prefix pass, or from the same
    row decoded in another batch. For products of two or more rows BLAS gave
    each row the bits of its own product in every case checked, but that is
    measured, not guaranteed, and a batch of one row takes another path.

    Each step's logits are checked once: a non-finite value raises
    NumericsError naming the step.
    """
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    src = np.asarray(src)
    # the prefix fed to the decoder may not outgrow the model's max_len
    steps = min(max_len, max(model_cfg.max_len - 1, 1))
    tokens = np.zeros((src.shape[0], steps), dtype=np.int64)
    done = np.zeros(src.shape[0], dtype=bool)
    rows = np.arange(src.shape[0])  # the batch rows still decoding
    with ag.no_grad():
        memory, src_live = encode(effective, model_cfg, src)
        last = np.full((src.shape[0], 1), BOS_ID, dtype=np.int64)
        state: dict = {}
        for step in range(steps):
            logits = decode_logits(effective, model_cfg, memory, src_live, last, state=state)
            if not np.isfinite(logits.data).all():
                raise NumericsError(f"non-finite logits at decode step {step}")
            tokens[rows, step] = logits.data.argmax(axis=1)
            done[rows] |= tokens[rows, step] == EOS_ID
            keep = rows_to_decode(done[rows])
            if keep.size == 0:
                break
            if keep.size < rows.size:
                memory, src_live = keep_decoding(memory, src_live, state, keep)
                rows = rows[keep]
            last = tokens[rows, step:step + 1]
    tokens = tokens[:, :step + 1]
    ends = np.where(done, (tokens == EOS_ID).argmax(axis=1) + 1, tokens.shape[1])
    return [row[:end].tolist() for row, end in zip(tokens, ends)]


def _check_corpus(hyps, refs) -> None:
    if len(hyps) != len(refs):
        raise DossError(f"hyp/ref counts differ: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise DossError("empty corpus")


def bleu_stats(hyps, refs, max_n: int = 4) -> np.ndarray:
    """Per-sentence BLEU statistics: an (N, 2 + 2 * max_n) int64 array whose
    row i holds len(hyps[i]), len(refs[i]), then for n = 1..max_n the clipped
    n-gram matches (column 2n) and the hypothesis n-gram count (column 2n + 1).

    Tokens may be of any type numpy sorts (ints, strings). They are ranked to
    dense ids, and an n-gram's id is the rank of its sentence and (n-1)-gram
    id together with its last token id, so no code exceeds the square of the
    token count. Hypothesis and reference n-grams of one sentence pair share
    ids; a sentence's matches sum min(hypothesis count, reference count)
    over its ids."""
    _check_corpus(hyps, refs)
    n_sent = len(hyps)
    seqs = list(itertools.chain(hyps, refs))
    lens = np.fromiter(map(len, seqs), np.int64, 2 * n_sent)
    values, tok = np.unique(np.array(list(itertools.chain.from_iterable(seqs))),
                            return_inverse=True)
    vocab = values.size
    sent = np.repeat(np.arange(2 * n_sent) % n_sent, lens)  # a token's sentence pair
    left = np.repeat(np.cumsum(lens), lens) - np.arange(tok.size)  # tokens to its end
    n_hyp = int(lens[:n_sent].sum())  # hypothesis tokens come first
    stats = np.zeros((n_sent, 2 + 2 * max_n), np.int64)
    stats[:, 0], stats[:, 1] = lens[:n_sent], lens[n_sent:]
    start = np.arange(tok.size)  # the first token of each n-gram
    code = sent * vocab + tok
    for n in range(1, max_n + 1):
        if n > 1:  # n-grams that fit in their sentence; extend by one token
            fits = left[start] >= n
            n_hyp = int(np.count_nonzero(fits[:n_hyp]))
            start = start[fits]
            code = gram[fits] * vocab + tok[start + n - 1]
        keys, gram = np.unique(code, return_inverse=True)
        clipped = np.minimum(np.bincount(gram[:n_hyp], minlength=keys.size),
                             np.bincount(gram[n_hyp:], minlength=keys.size))
        owner = np.empty(keys.size, np.int64)  # the sentence pair of each key
        owner[gram] = sent[start]
        stats[:, 2 * n] = np.bincount(owner, clipped, n_sent)  # float64 sums: exact below 2**53
        stats[:, 2 * n + 1] = np.maximum(stats[:, 0] - n + 1, 0)
    return stats


def corpus_bleu(hyps, refs, max_n: int = 4) -> float:
    """Corpus BLEU in [0, 100]: geometric mean of modified n-gram precisions
    (add-one smoothed for n >= 2) times the brevity penalty, over the column
    sums of `bleu_stats`."""
    sums = [int(x) for x in bleu_stats(hyps, refs, max_n).sum(axis=0)]
    hyp_len, ref_len = sums[0], sums[1]
    if hyp_len == 0:
        return 0.0
    log_p_sum = 0.0
    for n in range(1, max_n + 1):
        smooth = 1 if n >= 2 else 0
        num, den = sums[2 * n] + smooth, sums[2 * n + 1] + smooth
        if num == 0 or den == 0:
            return 0.0
        log_p_sum += math.log(num / den)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p_sum / max_n)


def exact_match(hyps, refs) -> float:
    """Fraction of exactly equal sequences after eos-trimming both sides."""
    _check_corpus(hyps, refs)
    hits = sum(trim_eos(h) == trim_eos(r) for h, r in zip(hyps, refs))
    return hits / len(hyps)


def pearson(xs, ys) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size or xs.size < 2:
        raise DossError("pearson needs two equal-length series of >= 2 points")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    if denom == 0.0:
        raise DossError("pearson undefined for a constant series")
    return float((dx * dy).sum()) / denom


# ---------------------------------------------------------------------------
# evaluation matrices
# ---------------------------------------------------------------------------


@dataclass
class Variant:
    """A row of the evaluation table.

    A plain model evaluates `params` directly on every domain. A sub-network
    variant additionally carries the base store and the per-domain masks and
    is evaluated through the overlay for each domain's own mask.
    """
    name: str
    params: ParamStore
    base: ParamStore | None = None
    masks: MaskSet | None = None
    trainable: int = 0


@dataclass
class EvalCell:
    bleu: float
    exact_match: float
    n_sentences: int
    hyps: list[list[int]]  # eos-trimmed decodes, in dataset order


@dataclass
class EvalReport:
    domain_ids: list[str]
    rows: list[tuple[str, dict[str, EvalCell], int]]

    def cell(self, variant: str, domain: str) -> EvalCell:
        for name, cells, _ in self.rows:
            if name == variant:
                return cells[domain]
        raise KeyError(variant)

    def averages(self, variant: str) -> tuple[float, float]:
        for name, cells, _ in self.rows:
            if name == variant:
                bleus = [cells[d].bleu for d in self.domain_ids]
                ems = [cells[d].exact_match for d in self.domain_ids]
                return sum(bleus) / len(bleus), sum(ems) / len(ems)
        raise KeyError(variant)

    def to_markdown(self, title: str = "Evaluation") -> str:
        lines = [f"## {title}", ""]
        header = ["variant"] + self.domain_ids + ["average", "avg_em", "trainable"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for name, cells, trainable in self.rows:
            avg_bleu, avg_em = self.averages(name)
            row = [name]
            row += [f"{cells[d].bleu:.2f} ({cells[d].exact_match:.3f})"
                    for d in self.domain_ids]
            row += [f"{avg_bleu:.2f}", f"{avg_em:.3f}", str(trainable)]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["variant,domain,bleu,exact_match,n_sentences,trainable"]
        for name, cells, trainable in self.rows:
            for d in self.domain_ids:
                c = cells[d]
                lines.append(f"{name},{d},{c.bleu!r},{c.exact_match!r},"
                             f"{c.n_sentences},{trainable}")
            avg_bleu, avg_em = self.averages(name)
            lines.append(f"{name},average,{avg_bleu!r},{avg_em!r},,{trainable}")
        return "\n".join(lines) + "\n"


def decode_dataset(effective: ParamStore, model_cfg: ModelConfig, ds: DomainDataset,
                   max_len: int, batch_size: int = 64) -> list[list[int]]:
    """Greedy-decode every source in dataset order with a fixed batch split."""
    hyps: list[list[int]] = []
    for ofs in range(0, ds.size, batch_size):
        src = pad_sources(ds.pairs[ofs:ofs + batch_size])
        hyps.extend(greedy_decode(effective, model_cfg, src, max_len))
    return hyps


def eval_matrix(variants, eval_sets: list[DomainDataset], model_cfg: ModelConfig,
                max_len: int, batch_size: int = 64) -> EvalReport:
    """Score every variant on every domain's held-out set.

    Sub-network variants are evaluated through overlay with that domain's
    mask; a missing mask is an error. Each domain's eos-trimmed references
    are built once, for every variant.
    """
    refs = [[trim_eos(t) for _, t in ds.pairs] for ds in eval_sets]
    rows = []
    for v in variants:
        cells: dict[str, EvalCell] = {}
        for ds, ds_refs in zip(eval_sets, refs):
            if v.masks is not None:
                if v.base is None:
                    raise DossError(f"variant {v.name!r} has masks but no base store")
                try:
                    mask = v.masks.get(ds.domain_id)
                except KeyError as exc:
                    raise DossError(
                        f"variant {v.name!r} has no mask for domain {ds.domain_id!r}") from exc
                effective = overlay(v.base, v.params, mask)
            else:
                effective = v.params
            hyps = [trim_eos(h) for h in
                    decode_dataset(effective, model_cfg, ds, max_len, batch_size)]
            cells[ds.domain_id] = EvalCell(
                bleu=corpus_bleu(hyps, ds_refs),
                exact_match=exact_match(hyps, ds_refs),
                n_sentences=ds.size,
                hyps=hyps,
            )
        rows.append((v.name, cells, v.trainable))
    return EvalReport([ds.domain_id for ds in eval_sets], rows)
