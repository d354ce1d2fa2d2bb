"""Greedy decoding through overlay parameters, corpus BLEU and exact-match
scoring, and table-style evaluation matrices.

BLEU here is token-level BLEU-4 with add-one smoothing on the n >= 2 counts
and the standard brevity penalty; synthetic tokens have no surface forms, so
there is no detokenization step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import math

import numpy as np

from . import autograd as ag
from .data import DomainDataset, make_batch
from .errors import ConfigError, DossError
from .masks import MaskSet, overlay
from .model import BOS_ID, EOS_ID, ModelConfig, ParamStore, decode_logits, encode


def trim_eos(seq, eos: int = EOS_ID) -> list[int]:
    out = []
    for tok in seq:
        if tok == eos:
            break
        out.append(int(tok))
    return out


def greedy_decode(effective: ParamStore, model_cfg: ModelConfig, src: np.ndarray,
                  max_len: int) -> list[list[int]]:
    """Argmax decoding, stopping per sequence at eos or max_len.

    Ties at the argmax break toward the lowest token id. The returned
    sequences include the terminating eos when one was emitted. Outputs for
    one example do not depend on the other examples in the batch.
    """
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    src = np.asarray(src)
    with ag.no_grad():
        memory, pad_mask = encode(effective, model_cfg, src)
        out = np.full((src.shape[0], 1), BOS_ID, dtype=np.int64)
        done = np.zeros(src.shape[0], dtype=bool)
        # the prefix fed to the decoder may not outgrow the model's max_len
        for _ in range(min(max_len, max(model_cfg.max_len - 1, 1))):
            logits = decode_logits(effective, model_cfg, memory, pad_mask, out)
            nxt = logits.data[:, -1, :].argmax(axis=1)
            out = np.concatenate([out, nxt[:, None]], axis=1)
            done |= nxt == EOS_ID
            if done.all():
                break
    tokens = out[:, 1:]
    is_eos = tokens == EOS_ID
    ends = np.where(done, is_eos.argmax(axis=1) + 1, tokens.shape[1])
    return [row[:end].tolist() for row, end in zip(tokens, ends)]


def _ngrams(seq, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def corpus_bleu(hyps, refs, max_n: int = 4) -> float:
    """Corpus BLEU in [0, 100]: geometric mean of modified n-gram precisions
    (add-one smoothed for n >= 2) times the brevity penalty."""
    if len(hyps) != len(refs):
        raise DossError(f"hyp/ref counts differ: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise DossError("empty corpus")
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 0.0
    log_p_sum = 0.0
    for n in range(1, max_n + 1):
        matches = 0
        total = 0
        for hyp, ref in zip(hyps, refs):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            matches += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            total += max(len(hyp) - n + 1, 0)
        smooth = 1 if n >= 2 else 0
        num, den = matches + smooth, total + smooth
        if num == 0 or den == 0:
            return 0.0
        log_p_sum += math.log(num / den)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p_sum / max_n)


def exact_match(hyps, refs) -> float:
    """Fraction of exactly equal sequences after eos-trimming both sides."""
    if len(hyps) != len(refs):
        raise DossError(f"hyp/ref counts differ: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise DossError("empty corpus")
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
        src = make_batch(ds.domain_id, ds.pairs[ofs:ofs + batch_size]).src
        hyps.extend(greedy_decode(effective, model_cfg, src, max_len))
    return hyps


def eval_matrix(variants, eval_sets: list[DomainDataset], model_cfg: ModelConfig,
                max_len: int, batch_size: int = 64) -> EvalReport:
    """Score every variant on every domain's held-out set.

    Sub-network variants are evaluated through overlay with that domain's
    mask; a missing mask is an error.
    """
    rows = []
    for v in variants:
        cells: dict[str, EvalCell] = {}
        for ds in eval_sets:
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
            refs = [list(map(int, t)) for _, t in ds.pairs]
            cells[ds.domain_id] = EvalCell(
                bleu=corpus_bleu(hyps, refs),
                exact_match=exact_match(hyps, refs),
                n_sentences=ds.size,
                hyps=hyps,
            )
        rows.append((v.name, cells, v.trainable))
    return EvalReport([ds.domain_id for ds in eval_sets], rows)
