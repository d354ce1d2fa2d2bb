"""Spans and counters recorded from outside the `doss` package.

`Probe.install` rebinds the module attributes that the program calls through
(for example `doss.training.forward` or `doss.cli.Pipeline.extend`) to
wrappers and `Probe.uninstall` puts the originals back; nothing under `src/`
changes. With `timing=False` the wrappers only keep counters and capture
results for the correctness checks: a handful of coarse calls, one counter per
train step, and a tape-size sample every 25th backward pass. With
`timing=True` they also record one span per call.

A span is [name, start, end, parent index]. Spans stay in memory until the run
ends. A train step has no function of its own, so a step span runs from one
batch pull to the next (the last ends with its train call). A layer is the
first dotted part of a span name; a span's self time is its duration minus
the durations of its direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

import numpy as np
from doss.model import PAD_ID

# `doss run` stages and the cli.Pipeline method behind each
STAGE_METHODS = {"pretrain": "pretrain", "make_masks": "make_masks",
                  "train_doss": "train_doss", "finetune": "finetune",
                  "extend": "extend", "eval": "evaluate"}
STAGES = tuple(STAGE_METHODS)


class Probe:
    """Recording wrappers around `doss` for one measurement: install, measure,
    uninstall."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.active = True
        self.in_job = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.decodes: list[list[list[int]]] = []   # decode_dataset results
        self.stage_returns: list[tuple[str, object]] = []
        self.losses: list[float] = []
        self._backward_calls = 0
        self.tape: list[tuple[int, int]] = []      # sampled (op nodes, leaves)

    # -- spans --------------------------------------------------------------

    def open(self, name: str, t: float | None = None) -> int:
        if not (self.timing and self.active):
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() if t is None else t, None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, t: float | None = None) -> None:
        """Close span `idx` and any span still open inside it."""
        if idx < 0:
            return
        t = time.perf_counter() if t is None else t
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = t
            if top == idx:
                return

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        prev, self.active = self.active, False
        try:
            yield
        finally:
            self.active = prev

    def count(self, key: str, n: int) -> None:
        self.counts[key] += int(n)

    # -- rebinding ----------------------------------------------------------

    def _rebind(self, owner, attr: str, name: str | None, after=None, before=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = -1 if name is None else self.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mod = {n: importlib.import_module(f"doss.{n}")
               for n in ("autograd", "model", "training", "data", "masks",
                         "evaluation", "manifest", "cli")}
        training, evaluation, cli = mod["training"], mod["evaluation"], mod["cli"]

        # counters and captures the correctness checks need in every run
        self._rebind(training, "_train_step", None,
                     before=self._count_batch, after=self._keep_loss)
        self._rebind(mod["autograd"], "backward", "autograd.backward" if self.timing else None,
                     before=self._sample_tape)
        self._rebind(evaluation, "decode_dataset", "evaluation.decode_dataset",
                     after=lambda a, k, out: self.decodes.append(out))
        for stage, method in STAGE_METHODS.items():
            self._rebind(cli.Pipeline, method, f"cli.stage.{stage}",
                         after=lambda a, k, out, s=stage: self.stage_returns.append((s, out)))
        if not self.timing:
            return

        model, masks, manifest = mod["model"], mod["masks"], mod["manifest"]
        self._rebind(training, "forward", "model.forward")
        for owner in (model, evaluation):
            self._rebind(owner, "encode", "model.encode")
        self._rebind(model, "decode_logits", "model.decode_logits")
        self._rebind(evaluation, "decode_logits", "model.decode_logits",
                     before=lambda a, k: self.count("decoder_positions", np.asarray(a[4]).size))
        for attr in ("save_checkpoint", "load_checkpoint", "save_registry", "load_registry"):
            self._rebind(model, attr, "model.checkpoint_io")
        self._rebind(training, "adam_step", "training.adam")
        self._rebind(training, "clip_by_global_norm", "training.clip")
        self._rebind(training, "train_full", "training.train_full")
        self._rebind(training, "train_doss", "training.train_doss")
        self._wrap_batching(training)
        self._rebind(manifest, "gen_domain", "data.gen_domain")
        self._rebind(masks, "magnitude_prune", "masks.prune")
        self._rebind(masks, "magnitude_prune_disjoint", "masks.prune_disjoint")
        for owner in (masks, training):
            self._rebind(owner, "create_domain_mask", "masks.create_domain_mask")
        for owner in (masks, evaluation):
            self._rebind(owner, "overlay", "masks.overlay")
        for attr in ("save_mask", "load_mask"):
            self._rebind(masks, attr, "masks.mask_io")
        self._rebind(evaluation, "greedy_decode", "evaluation.greedy_decode",
                     after=self._count_decoded)
        self._rebind(evaluation, "eval_matrix", "evaluation.eval_matrix")
        self._rebind(evaluation, "corpus_bleu", "evaluation.bleu")
        self._rebind(evaluation, "exact_match", "evaluation.exact_match")
        self._rebind(manifest, "load_manifest", "manifest.load")
        self._rebind(cli, "artifact_valid", "cli.artifact_valid")
        self._rebind(cli, "write_meta", "cli.write_meta")
        self._rebind(cli, "_sha256_file", "cli.sha256")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- hooks --------------------------------------------------------------

    def _count_batch(self, args, kwargs) -> None:
        batch = args[2]
        self.count("steps", 1)
        self.count("target_tokens", np.count_nonzero(batch.tgt_out != PAD_ID))
        self.count("pairs", batch.src.shape[0])
        self.count("pad_positions", np.count_nonzero(batch.src == PAD_ID)
                   + np.count_nonzero(batch.tgt_out == PAD_ID))
        self.count("positions", batch.src.size + batch.tgt_out.size)

    def _count_decoded(self, args, kwargs, seqs) -> None:
        self.count("decoded_sentences", len(seqs))
        self.count("generated_tokens", sum(len(s) for s in seqs))

    def _keep_loss(self, args, kwargs, loss) -> None:
        self.losses.append(loss)

    def _sample_tape(self, args, kwargs) -> None:
        # topo_order costs about as much as a small op; sample 1 step in 25
        if not self.in_job:
            return
        self._backward_calls += 1
        if self._backward_calls % 25 != 1:
            return
        from doss.autograd import topo_order
        order = topo_order(args[0])
        leaves = sum(1 for node in order if node._backward is None)
        self.tape.append((len(order) - leaves, leaves))

    def _wrap_batching(self, training) -> None:
        """Step spans: each batch pull ends the previous step and starts the next."""
        probe = self

        def steps(batches):
            step = -1
            it = iter(batches)
            while True:
                t = time.perf_counter()
                if step >= 0:
                    probe.close(step, t)
                step = probe.open("training.step", t)
                pull = probe.open("data.batch", t)
                try:
                    batch = next(it)
                except StopIteration:
                    # no step follows: drop the step and pull spans just opened
                    if step >= 0:
                        probe.close(step, t)
                        del probe.spans[step:]
                    return
                probe.close(pull)
                yield batch

        def wrap(attr, name):
            original = getattr(training, attr)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not probe.active:
                    return original(*args, **kwargs)
                with probe.span(name):
                    batches = original(*args, **kwargs)
                return steps(batches)

            probe._saved.append((training, attr, original))
            setattr(training, attr, wrapper)

        wrap("batch_iterator", "data.batch_iterator")
        wrap("epoch_batches", "data.epoch_batches")


# ---------------------------------------------------------------------------
# summaries of the recorded spans
# ---------------------------------------------------------------------------


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile of a ladder that has at
    least ten samples beyond it; the median when there are too few samples,
    and (0, 0) when there are none."""
    n = len(values)
    for pct in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(values, pct))
    return (50.0, float(np.median(values))) if n else (0.0, 0.0)


class SpanIndex:
    """Durations, self times and job membership of recorded spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_time = self.dur - child
        # names of the bench.* spans (setup, job, cold, warm) above each span
        self.phases: list[tuple[str, ...]] = []
        for s in spans:
            p = s[3]
            above = () if p < 0 else self.phases[p]
            if p >= 0 and spans[p][0].startswith("bench."):
                above = above + (spans[p][0],)
            self.phases.append(above)

    def in_phase(self, i: int, phase: str) -> bool:
        return phase in self.phases[i]

    def select(self, name: str, phase: str = "bench.job") -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and self.in_phase(i, phase)]

    def durations(self, name: str, phase: str = "bench.job") -> np.ndarray:
        return self.dur[self.select(name, phase)]

    def layer_self(self, phase: str = "bench.job") -> dict[str, float]:
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s[0].startswith("bench.") or not self.in_phase(i, phase):
                continue
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(self.self_time[i])
        return out

    def step_breakdown(self) -> dict[str, np.ndarray]:
        """Per train step: its duration, each direct child's time, and self time."""
        steps = self.select("training.step")
        pos = {idx: k for k, idx in enumerate(steps)}
        parts = {name: np.zeros(len(steps)) for name in
                 ("data.batch", "model.forward", "autograd.backward",
                  "training.clip", "training.adam", "other")}
        for i, s in enumerate(self.spans):
            k = pos.get(s[3])
            if k is not None:
                parts[s[0] if s[0] in parts else "other"][k] += self.dur[i]
        parts["step"] = self.dur[steps]
        parts["self"] = self.self_time[steps]
        return parts
