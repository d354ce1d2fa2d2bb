"""A fixed calibration kernel that measures how fast the machine is right now.

A shared machine runs the same code at speeds that differ by up to 1.5x for
seconds to minutes at a time, as other tenants' load comes and goes. The
benchmark therefore times this kernel right before and right after every job
and set-up (and on pipeline_cold between the stages of a job), and rescales
each timing to a machine of fixed speed:

    adjusted seconds = wall seconds * REF_S / (mean of the two kernel timings)

The kernel is the benchmark's own code and never calls `doss`, so a change to
the program moves the adjusted timings and leaves the kernel alone. It has the
same mix of work as the program: small float64 matrix products, softmax and
layer norm on arrays of the desk model's sizes (batch 64, d_model 64, four
heads, ffn 128) through eight layers of weights, one BLAS thread, and
interpreter-bound Python between them. On slow phases the program still slows
down somewhat more than the kernel (timed next to decode jobs: a log-log slope
of 0.87, correlation 0.84), so adjusted timings lean slightly towards the
machine's state.
"""

from __future__ import annotations

from time import perf_counter as perf

import numpy as np

REF_S = 0.08      # adjusted seconds are seconds on a machine that runs a pass in REF_S
ROUNDS = 8        # one pass is ROUNDS rounds through LAYERS layers
LAYERS = 8
STALE_S = 0.05    # a pass this recent still gives the machine's speed

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 8, 64))
# each layer has its own weights, so that a pass reads about as much memory
# (2 MB) as a decode step reads model parameters
_WEIGHTS = [tuple(_rng.standard_normal(shape) * 0.1
                  for shape in ((64, 64), (64, 64), (64, 128), (128, 64)))
            for _ in range(LAYERS)]


def _kernel() -> float:
    acc = 0.0
    for _ in range(ROUNDS):
        x = _X
        for wq, wo, w1, w2 in _WEIGHTS:
            q = (x @ wq).reshape(64, 8, 4, 16).transpose(0, 2, 1, 3)
            s = q @ q.transpose(0, 1, 3, 2) / 4.0
            s = np.exp(s - s.max(-1, keepdims=True))
            s /= s.sum(-1, keepdims=True)
            x = x + (s @ q).transpose(0, 2, 1, 3).reshape(64, 8, 64) @ wo
            x = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
            x = x + np.maximum(x @ w1, 0.0) @ w2
            # short-lived Python objects, like the nodes of an autograd tape
            nodes = [(i, x) for i in range(30)]
            acc += len({id(node) for node in nodes})
        acc += float(x[0, 0, 0])
    return acc


_EXPECTED = _kernel()  # also warms the kernel up before its first timing


def calibrate() -> float:
    """Wall seconds of one pass of the kernel."""
    t0 = perf()
    result = _kernel()
    seconds = perf() - t0
    if result != _EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return seconds


class Clock:
    """Speed-adjusted timing of work that runs between calibration passes.

    `start()` starts a lap, with a pass unless the last one ended less than
    STALE_S ago; `lap()` ends the lap with a pass and returns (wall, adjusted)
    seconds of the lap. `spent` is the wall time of all passes, which
    deadlines leave out."""

    def __init__(self) -> None:
        self.passes: list[float] = []
        self.spent = 0.0
        self.before = self._pass()

    def _pass(self) -> float:
        t0 = perf()
        seconds = calibrate()
        self.passes.append(seconds)
        self.mark = perf()
        self.spent += self.mark - t0
        return seconds

    def start(self) -> None:
        if perf() - self.mark < STALE_S:
            self.mark = perf()
        else:
            self.before = self._pass()

    def lap(self) -> tuple[float, float]:
        wall = perf() - self.mark
        after = self._pass()
        adjusted = wall * REF_S / ((self.before + after) / 2)
        self.before = after
        return wall, adjusted
