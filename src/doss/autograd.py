"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Every operation builds a node that records its parent nodes and a backward
rule, which maps the node's gradient to one gradient per parent; `backward`
replays the tape in reverse topological order, sums the gradients reaching
each node, and returns a name -> gradient map for the named leaves. It
consumes the tape as it walks: a node drops its rule and parents once the
rule has run, so each saved array, and each activation once its last
consumer is done, is freed before the walk ends; a tape runs backward once.
All training math runs in float64. A non-finite value is an error state, not
something to propagate, but the ops do not check their outputs: the checks
run at step boundaries. A train step checks its loss before `backward`
(`check_finite`, which then names the first op in `topo_order` whose output is
not finite, from the op name each node keeps), Adam checks the gradient
vector, greedy decoding checks each step's logits, and checkpoints are checked
when saved and loaded. A -inf that `relu`, an attention softmax or the loss
maps to a finite value is not reported; only an overflow can make one.

Activations are token-major: one (rows, d) array per layer, one row per live
token of a batch, with no pad rows. A `Rows` map records where those rows sit
in the batch's (B, S) grid of positions. The ops are the transformer's layer
operations, one tape node each: `add` (residuals, equal shapes), `linear`
(one 2-D GEMM), `attention` (head split to head merge), `relu`, `layer_norm`,
`embedding` (scaled lookup plus positions), `dropout` and `cross_entropy`
(over (N, V) logit rows). `attention` alone needs the grid: it
scatters its rows into zero-padded (B, S, d) blocks, takes the softmax in
place along the outer axis of one key-major (S_kv, B, H, S_q) buffer, writes
each product into a (B, S, d) block, and gathers the rows back. `linear`'s
gradients are 2-D products, and `layer_norm`'s input gradient is the compact
ivar * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)). The ops compute in
place where they can, with the floating-point operations of the numpy chain
each stands for, in its order: an op's bits are every artifact's bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DossError, NumericsError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording, e.g. for evaluation and decoding."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """A dense float64 value, optionally recorded on the autodiff tape."""

    __slots__ = ("data", "requires_grad", "name", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.op: str | None = None  # the op that made the value; None for a leaf
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], tuple[np.ndarray, ...]]) -> Tensor:
    """Wrap an op result; record parents/backward only when the tape is live.

    `backward(g)` returns the gradient of each parent, in order. It must not
    close over the node it belongs to: that would make every node a reference
    cycle that only the cyclic garbage collector frees."""
    out = Tensor(data)
    out.op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


class Rows:
    """Where the rows of a token-major activation sit in a (B, S) grid of
    positions: at the row-major flat positions `index`, or at every position
    when `index` is None. Row-major order keeps each sequence's rows
    together and in position order."""

    __slots__ = ("b", "s", "index")

    def __init__(self, b: int, s: int, index: np.ndarray | None = None):
        self.b, self.s, self.index = b, s, index

    @classmethod
    def where(cls, live: np.ndarray) -> "Rows":
        """The rows of the true positions of a (B, S) bool map."""
        return cls(*live.shape, None if live.all() else np.flatnonzero(live))

    @property
    def count(self) -> int:
        return self.b * self.s if self.index is None else self.index.size

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """(rows, d) -> (B, S, d), zero where no row sits."""
        if self.index is None:
            return x.reshape(self.b, self.s, x.shape[-1])
        block = np.zeros((self.b * self.s, x.shape[-1]))
        block[self.index] = x
        return block.reshape(self.b, self.s, x.shape[-1])

    def gather(self, block: np.ndarray) -> np.ndarray:
        """(B, S, d) -> (rows, d): the inverse of `scatter` on its rows."""
        flat = block.reshape(self.b * self.s, block.shape[-1])
        return flat if self.index is None else flat.take(self.index, axis=0)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add of two arrays of one shape."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add expects equal shapes; got {a.shape} + {b.shape}")
    return _node(a.data + b.data, "add", (a, b), lambda g: (g, g))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """(m, k) @ (k, n), plus a bias of shape (n,) when one is given."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear expects (m, k) @ (k, n); got {x.shape} @ {w.shape}")
    n = w.data.shape[1]
    if b is not None and b.data.shape != (n,):
        raise ShapeError(f"linear bias must have shape ({n},), got {b.shape}")

    def bw(g):
        grads = (g @ w.data.T, x.data.T @ g)
        return grads if b is None else grads + (g.sum(axis=0),)
    y = x.data @ w.data
    if b is None:
        return _node(y, "linear", (x, w), bw)
    y += b.data
    return _node(y, "linear", (x, w, b), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: np.ndarray | None,
              q_rows: Rows, kv_rows: Rows) -> Tensor:
    """Multi-head scaled dot-product attention over projected token rows.

    q: (rows, D) at `q_rows`' positions of a (B, S_q) grid; k, v: (rows, D)
    at `kv_rows`' positions of a (B, S_kv) grid. Scatters each into a
    zero-padded (B, S, D) block, splits D into `n_heads` heads, takes
    softmax(q k^T / sqrt(D / n_heads) + mask) v per head, merges the heads
    back and gathers the query rows. `mask` is a 4-D additive constant that
    broadcasts against the (B, n_heads, S_q, S_kv) scores and must hide every
    key position without a row from every query row; no gradient flows into
    it."""
    b, s_q, s_kv = q_rows.b, q_rows.s, kv_rows.s
    d = q.data.shape[-1]
    if (q.data.shape != (q_rows.count, d) or k.data.shape != (kv_rows.count, d)
            or v.data.shape != k.data.shape or kv_rows.b != b or d % n_heads):
        raise ShapeError(f"attention over {n_heads} heads: q {q.shape}, k {k.shape}, "
                         f"v {v.shape} for ({b}, {s_q}) and ({kv_rows.b}, {s_kv}) grids")
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)

    def heads(x: np.ndarray, rows: Rows) -> np.ndarray:
        return rows.scatter(x).reshape(b, rows.s, n_heads, dh).transpose(0, 2, 1, 3)

    def merged(x: np.ndarray, y: np.ndarray, rows: Rows) -> np.ndarray:
        """The rows of x @ y, per head, written into a (B, S, D) block."""
        block = np.empty((b, rows.s, n_heads, dh))
        np.matmul(x, y, out=block.transpose(0, 2, 1, 3))
        return rows.gather(block.reshape(b, rows.s, d))

    qh, kh, vh = heads(q.data, q_rows), heads(k.data, kv_rows), heads(v.data, kv_rows)
    # scores, then probabilities, key-major: the softmax reduces over the outer
    # axis, adding keys in order, as numpy's sum along an axis of up to 7 does
    p = np.empty((s_kv, b, n_heads, s_q))
    np.matmul(kh, qh.swapaxes(-1, -2), out=p.transpose(1, 2, 0, 3))
    p *= c
    if mask is not None:
        p += mask.transpose(3, 0, 1, 2)
    p -= p.max(axis=0)
    np.exp(p, out=p)
    p /= p.sum(axis=0)

    def bw(g):
        gh = heads(g, q_rows)
        gs = np.empty_like(p)
        np.matmul(vh, gh.swapaxes(-1, -2), out=gs.transpose(1, 2, 0, 3))
        gs -= (gs * p).sum(axis=0)
        gs *= p
        gs *= c
        gst = gs.transpose(1, 2, 0, 3)
        return (merged(np.ascontiguousarray(gst.swapaxes(-1, -2)), kh, q_rows),
                merged(gst, qh, kv_rows), merged(p.transpose(1, 2, 0, 3), gh, kv_rows))
    # query-major copies for the products over q rows: on a strided p, a product
    # with one q row leaves BLAS's row-vector path, and its bits change
    ctx = merged(np.ascontiguousarray(p.transpose(1, 2, 3, 0)), vh, q_rows)
    return _node(ctx, "attention", (q, k, v), bw)


def relu(a: Tensor) -> Tensor:
    return _node(np.maximum(a.data, 0.0), "relu", (a,), lambda g: (g * (a.data > 0.0),))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last dimension to mean 0 / variance 1, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},)")
    # each mean is np.mean's own sum and division, without its wrapper
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    out = xhat * xhat
    ivar = 1.0 / np.sqrt(out.sum(axis=-1, keepdims=True) / d + eps)
    xhat *= ivar

    def bw(g):
        dxhat = g * gain.data
        t = dxhat * xhat
        dxhat -= dxhat.sum(axis=-1, keepdims=True) / d
        dxhat -= np.multiply(xhat, t.sum(axis=-1, keepdims=True) / d, out=t)
        dxhat *= ivar
        lead = tuple(range(g.ndim - 1))
        return dxhat, np.multiply(g, xhat, out=t).sum(axis=lead), g.sum(axis=lead)
    np.multiply(xhat, gain.data, out=out)
    out += bias.data
    return _node(out, "layer_norm", (x, gain, bias), bw)


def embedding(table: Tensor, ids: np.ndarray, scale: float, offset) -> Tensor:
    """Scaled row lookup plus a constant: out[...] = table[ids[...]] * scale + offset.
    `offset` broadcasts against the (..., D) rows; no gradient flows into it."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.data.shape[0]:
        raise ShapeError("embedding id out of range")
    def bw(g):
        # one bin per table element: bincount adds in np.add.at's order from 0.0
        rows, dim = table.data.shape
        bins = (ids.reshape(-1, 1) * dim + np.arange(dim)).ravel()
        return (np.bincount(bins, (g * scale).ravel(), rows * dim).reshape(rows, dim),)
    return _node(table.data[ids] * scale + offset, "embedding", (table,), bw)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept activations are scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1): {rate}")
    if rate == 0.0:
        return a
    keep = rng.random(a.data.shape) >= rate  # one byte an element on the tape
    scale = 1.0 / (1.0 - rate)

    def kept(x):
        """x * scale * keep: the bits of x * ((draw >= rate) * scale), signed
        zeros included, since scale > 0."""
        out = x * scale
        out *= keep
        return out
    return _node(kept(a.data), "dropout", (a,), lambda g: (kept(g),))


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax of (N, V) logit rows at their (N,) target ids."""
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.shape != logits.data.shape[:1] or not targets.size:
        raise ShapeError(f"cross_entropy expects (N, V) logits and (N,) targets, N >= 1; "
                         f"got {logits.shape} and {targets.shape}")
    n, vocab = logits.data.shape
    if targets.min() < 0 or targets.max() >= vocab:
        raise ShapeError("target id out of range")
    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=1, keepdims=True)
    logp = logits.data - m - np.log(z)
    rows = np.arange(n)
    loss = -logp[rows, targets].sum() / n
    def bw(g):
        dlogits = e / z
        dlogits[rows, targets] -= 1.0
        return (dlogits * (float(g) / n),)
    return _node(np.asarray(loss), "cross_entropy", (logits,), bw)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the tape; each node appears exactly once."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def check_finite(root: Tensor) -> None:
    """Raise NumericsError if `root`'s value is not finite, naming the first
    op, in `topo_order` of its tape, whose output is not finite."""
    if np.isfinite(root.data).all():
        return
    bad = next(node for node in topo_order(root)
               if node.op is not None and not np.isfinite(node.data).all())
    raise NumericsError(f"non-finite values produced by {bad.op}")


def backward(loss: Tensor, into: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Propagate from a scalar loss; returns {name: grad} for the named leaves
    that require grad, in `topo_order`. This dict is the only record of the
    gradients: each call starts from zero, and unnamed leaves get none.

    The walk consumes the tape: once a node's rule has run, the node drops
    its rule and its parents, and with them the arrays the rule saved; a
    node's own value goes when its last consumer is done. A second call on
    the same loss, or on a loss built on a consumed node, is an error.

    With `into` (leaf name -> zeroed array of the leaf's shape), each of
    those gradients is copied into its array as the walk reaches its leaf,
    and the returned dict holds the arrays: a train step passes its views of
    one gradient vector."""
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = topo_order(loss)
    if any(node.op is not None and node.requires_grad and node._backward is None
           for node in order):
        raise DossError("backward: the tape was consumed by an earlier backward")
    store: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    named: list[tuple[str, np.ndarray]] = []  # reverse topo order
    while order:
        node = order.pop()
        g = store.pop(id(node), None)
        if node._backward is None:
            if node.requires_grad and node.name is not None:
                if into is not None:
                    np.copyto(into[node.name], g)
                    g = into[node.name]
                named.append((node.name, g))
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if parent.requires_grad:
                key = id(parent)
                store[key] = store[key] + pg if key in store else pg
        node._backward, node._parents = None, ()
    return dict(reversed(named))


# ---------------------------------------------------------------------------
# seeded rng derivation (stage seeds and every seeded generator)
# ---------------------------------------------------------------------------


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from heterogeneous parts via sha256."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def derived_rng(*parts) -> np.random.Generator:
    """A PCG64 generator seeded by `derive_seed(*parts)`."""
    return np.random.Generator(np.random.PCG64(derive_seed(*parts)))
