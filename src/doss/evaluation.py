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
import atexit
import contextlib
import itertools
import math
import os
import pickle
import signal
import sys
import traceback

import numpy as np

from . import BLAS_THREAD_VARS, autograd as ag
from .data import DomainDataset, pad_sources
from .errors import ConfigError, DossError, NumericsError, WorkerError
from .masks import MaskSet, overlay
from .model import (BOS_ID, EOS_ID, ModelConfig, ParamStore, decode_logits, encode,
                    keep_decoding, layout_views)


def trim_eos(seq) -> list[int]:
    """The tokens of `seq` before its first eos, as a list; a list without
    an eos is returned as it is, any other sequence as a list of ints."""
    if not isinstance(seq, list):
        seq = np.asarray(seq).tolist()
    return seq[:seq.index(EOS_ID)] if EOS_ID in seq else seq


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
    everything the state caches for it (see `rows_to_decode`). Ties at
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
                keep_decoding(state, keep)
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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads() -> int:
    """The threads one process's BLAS runs: the largest count that a BLAS
    thread variable sets (`--threads` sets them all), or `usable_cpus()`
    when none sets one, since BLAS then sizes its pool to the CPUs."""
    counts = [int(v) for v in map(os.environ.get, BLAS_THREAD_VARS)
              if v is not None and v.strip().isdigit() and int(v) > 0]
    return max(counts, default=usable_cpus())


def decode_dataset(effective: ParamStore, model_cfg: ModelConfig, ds: DomainDataset,
                   max_len: int, batch_size: int = 64, *,
                   deal: _Deal | None = None) -> list[list[int]]:
    """Greedy-decode every source in dataset order with a fixed batch split.

    The batches are dealt as a one-cell matrix (`_Deal`): P =
    min(usable_cpus() // blas_threads(), batch count) participants, so that
    P processes of blas_threads() BLAS threads each fit on the CPUs, and
    batch i goes to participant i mod P, where 0 is the caller and the
    others are worker processes that outlive the call (`_decoders`). Each
    decodes whole batches with `greedy_decode` and the results merge in
    batch order, so the hypotheses have the same bits for every P. A set of
    one batch, or a process whose BLAS may use every CPU, starts no worker.
    Each participant stops at its first failing batch, and the error of the
    lowest failing batch is raised, as by one loop over the batches, with a
    note naming that batch and the process that decoded it; a worker that
    dies raises WorkerError.

    With `deal`, a matrix that `eval_matrix` has dealt, the call merges the
    deal's next cell instead, which must be `effective` on `ds`.
    """
    if deal is None:
        deal = _Deal([(effective, ds, _batches(ds, batch_size))], model_cfg, max_len)
    return deal.merge(effective, ds)


def _batches(ds: DomainDataset, batch_size: int) -> list[np.ndarray]:
    """The padded sources of `ds`, in dataset order, `batch_size` to a batch."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    return [pad_sources(ds.pairs[ofs:ofs + batch_size])
            for ofs in range(0, ds.size, batch_size)]


def _decode_share(effective: ParamStore, model_cfg: ModelConfig, batches: list,
                  max_len: int) -> tuple[list, Exception | None]:
    """The decodes of `batches`, in order, up to the first that raises, and
    that error (None when every batch decoded)."""
    done = []
    try:
        for src in batches:
            done.append(greedy_decode(effective, model_cfg, src, max_len))
    except Exception as exc:
        return done, exc
    return done, None


class _Deal:
    """An evaluation matrix dealt to the caller and the decode workers:
    `cells` are (effective store, eval set, its batches) in grid order, and
    batch j of their flat list goes to participant j mod P (P as in
    `decode_dataset`). Each worker is sent one task, its batches of every
    cell with the cell's layout and parameter vector where it has batches
    there (pickle's memo writes an array that several cells share once), and
    replies once per cell, so it decodes the next cell while the caller
    merges this one (`merge`). Every write
    comes before the first reply is owed, so no reply size can block the
    pipes; replies still owed when the deal is given up (`abandon`) would
    reach the next deal, so then the workers are closed.
    """

    def __init__(self, cells: list, model_cfg: ModelConfig, max_len: int):
        self.cells, self.model_cfg, self.max_len = cells, model_cfg, max_len
        self.offsets = list(itertools.accumulate((len(b) for *_, b in cells), initial=0))
        self.n = max(1, min(usable_cpus() // blas_threads(), self.offsets[-1]))
        self.workers = _decoders(self.n - 1)
        self.merged = 0  # the cells whose every reply has been read
        try:
            for k, worker in enumerate(self.workers, 1):
                shares = [(store, self.share(c, k)) for c, (store, *_) in enumerate(cells)]
                worker.send((model_cfg, max_len,
                             [(store.layout, store.vector, share) if share else (None, None, [])
                              for store, share in shares]))
        except BaseException:
            close_decoders()  # a worker may hold part of a task
            raise

    def first(self, c: int, k: int) -> int:
        """The first batch of cell `c` that participant `k` decodes."""
        return (k - self.offsets[c]) % self.n

    def share(self, c: int, k: int) -> list[np.ndarray]:
        return self.cells[c][2][self.first(c, k)::self.n]

    def merge(self, effective: ParamStore, ds: DomainDataset) -> list[list[int]]:
        """The hypotheses of the next cell, which must be `effective` on `ds`:
        the caller decodes its batches, then reads each worker's reply."""
        c = self.merged
        store, eval_set, batches = self.cells[c]
        try:
            if store is not effective or eval_set is not ds:
                raise DossError("decode_dataset: the deal's next cell is another store or set")
            shares = [_decode_share(store, self.model_cfg, self.share(c, 0), self.max_len)]
            shares += [worker.receive() for worker in self.workers]
        except BaseException:
            close_decoders()  # a worker may still owe a reply
            raise
        self.merged += 1
        decoded: list = [None] * len(batches)
        failures = []
        for k, (done, exc) in enumerate(shares):
            first = self.first(c, k)
            decoded[first:first + self.n * len(done):self.n] = done
            if exc is not None:
                failures.append((first + self.n * len(done), k, exc))
        if failures:
            batch, k, exc = min(failures, key=lambda f: f[0])
            where = (f"decode worker {self.workers[k - 1].proc.pid}" if k
                     else "the calling process")
            exc.add_note(f"decode_dataset: batch {batch} of {len(batches)}, decoded in {where}")
            raise exc
        return [h for hyps in decoded for h in hyps]

    def abandon(self) -> None:
        """Close the workers if they still owe a reply for a cell."""
        if self.workers and self.merged < len(self.cells):
            close_decoders()


# A worker is a new interpreter, not a fork: it imports this package afresh
# from the caller's source tree, so nothing set in the caller's memory (a
# patched function included) reaches its decodes. It inherits the caller's
# environment, and with it the BLAS thread variables that --threads sets.
_WORKER = ("import sys; sys.path.insert(0, sys.argv[1]); "
           "from doss.evaluation import _serve; _serve()")
_DECODERS: list["_Decoder"] = []  # this process's decode workers, started on demand


class _Decoder:
    """A decode worker process (`_serve`): one pickled task per matrix in on
    its stdin, one pickled reply per cell out on its stdout."""

    def __init__(self):
        import subprocess

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.proc = subprocess.Popen([sys.executable, "-c", _WORKER, root],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def send(self, task) -> None:
        try:
            pickle.dump(task, self.proc.stdin, pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except OSError as exc:
            raise self.died() from exc

    def receive(self) -> tuple[list, Exception | None]:
        try:
            return pickle.load(self.proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError) as exc:
            raise self.died() from exc

    def died(self) -> WorkerError:
        return WorkerError(f"decode worker {self.proc.pid} stopped "
                           f"(exit code {self.proc.poll()})")


def _decoders(count: int) -> list[_Decoder]:
    """The first `count` decode workers of this process, started on first use.
    They stop when this process exits or calls `close_decoders`, and on their
    own when this process dies, since their stdin then ends."""
    _DECODERS.extend(_Decoder() for _ in range(count - len(_DECODERS)))
    return _DECODERS[:count]


def close_decoders() -> None:
    """Stop this process's decode workers; the next call starts new ones."""
    while _DECODERS:
        worker = _DECODERS.pop()
        worker.proc.kill()
        worker.proc.wait()
        for pipe in (worker.proc.stdin, worker.proc.stdout):
            with contextlib.suppress(OSError):
                pipe.close()


atexit.register(close_decoders)


def _serve() -> None:
    """A decode worker's loop: for each task, decode its batches of every
    cell with `_decode_share` and reply with each cell's result in turn,
    until stdin ends or a reply cannot be sent. A cell with no batches here
    is sent no vector and builds no store, and a cell whose vector is the
    one the last store was built from reuses that store."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller decides when a worker stops
    tasks, replies = sys.stdin.buffer, os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, not into a reply
    while True:
        try:
            model_cfg, max_len, cells = pickle.load(tasks)
        except (EOFError, pickle.UnpicklingError):
            return
        effective = built_from = None
        for layout, vector, batches in cells:
            if batches and vector is not built_from:
                effective, built_from = ParamStore(
                    {n: ag.Tensor(v) for n, v in layout_views(vector, layout).items()}), vector
            reply = _decode_share(effective, model_cfg, batches, max_len)
            if reply[1] is not None:  # a pickled error loses its traceback; keep it as text
                reply[1].add_note("worker traceback (most recent call last):\n"
                                  + "".join(traceback.format_tb(reply[1].__traceback__)).rstrip())
            try:
                pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                replies.flush()
            except BrokenPipeError:  # the caller is gone; drop the unsent reply
                with contextlib.suppress(OSError):
                    replies.close()
                return


def eval_matrix(variants, eval_sets: list[DomainDataset], model_cfg: ModelConfig,
                max_len: int, batch_size: int = 64) -> EvalReport:
    """Score every variant on every domain's held-out set.

    Sub-network variants are evaluated through overlay with that domain's
    mask; a missing mask is an error. Each domain's eos-trimmed references
    and batches are built once, for every variant.

    The whole matrix is one deal (`_Deal`): every cell's batches, variants
    then domains then batches, form one flat list dealt round-robin as by
    `decode_dataset`, with P capped by the matrix's batch count, so a matrix
    of one batch starts no worker. Each worker gets one message per matrix,
    holding once each distinct parameter vector of the cells where it has
    batches, and replies once per cell;
    `decode_dataset` is called once per cell, in grid order, to merge it.
    The error of the lowest failing (cell, batch) is raised, with a note
    naming the cell.
    """
    refs = [[trim_eos(t) for _, t in ds.pairs] for ds in eval_sets]
    batches = [_batches(ds, batch_size) for ds in eval_sets]
    grid = [(v, [_effective(v, ds) for ds in eval_sets]) for v in variants]
    deal = _Deal([cell for _, stores in grid for cell in zip(stores, eval_sets, batches)],
                 model_cfg, max_len)
    rows = []
    try:
        for v, stores in grid:
            cells: dict[str, EvalCell] = {}
            for ds, ds_refs, effective in zip(eval_sets, refs, stores):
                try:
                    hyps = [trim_eos(h) for h in decode_dataset(
                        effective, model_cfg, ds, max_len, batch_size, deal=deal)]
                except Exception as exc:
                    exc.add_note(f"eval_matrix: variant {v.name!r}, domain {ds.domain_id!r}")
                    raise
                cells[ds.domain_id] = EvalCell(
                    bleu=corpus_bleu(hyps, ds_refs),
                    exact_match=exact_match(hyps, ds_refs),
                    n_sentences=ds.size,
                    hyps=hyps,
                )
            rows.append((v.name, cells, v.trainable))
    finally:
        deal.abandon()
    return EvalReport([ds.domain_id for ds in eval_sets], rows)


def _effective(v: Variant, ds: DomainDataset) -> ParamStore:
    """The parameters `v` decodes `ds` with: the overlay through the mask of
    `ds`'s domain for a sub-network variant, `v.params` otherwise."""
    if v.masks is None:
        return v.params
    if v.base is None:
        raise DossError(f"variant {v.name!r} has masks but no base store")
    try:
        mask = v.masks.get(ds.domain_id)
    except KeyError as exc:
        raise DossError(f"variant {v.name!r} has no mask for domain {ds.domain_id!r}") from exc
    return overlay(v.base, v.params, mask)
