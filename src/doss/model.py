"""Pre-layer-norm encoder-decoder transformer over the autograd core.

Every parameter lives in a ParamStore keyed by a dotted name; its (name,
shape) layout is the only description of the parameters. A tensor's region
follows its name (`enc.` is the encoder, `dec.` the decoder) and its
maskability its rank: weight matrices and embeddings are maskable, biases and
layer-norm parameters are not (they stay shared across domains). A
ParamStore's tensors are views, in insertion order, of one float64 vector, so
optimizer updates and overlays are vector ops. Positional encodings are
sinusoidal and parameter-free.

Activations are token-major: the encoder and decoder embed and compute only
live positions, one row per token. A source position is live where its token
is not PAD_ID; a target position is live before the row's padding. Pads sit at
row ends, so a key mask hides the source pads and the causal mask the target
pads from every live query. The logits are token-major too: one row per live
target position, so `tgt_out[tgt_in != PAD_ID]` are their targets, in order.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import (ConfigError, DossError, FormatError, NumericsError, RegistryMismatchError,
                     ShapeError)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

ENCODER = "encoder"
DECODER = "decoder"

_NEG_INF = -1e30

CKPT_MAGIC = b"DOSSCKPT"
CKPT_VERSION = 1


# (name, shape) of every tensor, in store order
Layout = tuple[tuple[str, tuple[int, ...]], ...]


# ---------------------------------------------------------------------------
# configuration / layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    ffn_dim: int
    n_enc_layers: int
    n_dec_layers: int
    n_heads: int
    dropout: float = 0.1
    max_len: int = 64

    def __post_init__(self):
        extents = (self.vocab_size, self.d_model, self.ffn_dim,
                   self.n_enc_layers, self.n_dec_layers, self.n_heads, self.max_len)
        if any(int(e) < 1 for e in extents):
            raise ConfigError(f"all model extents must be >= 1: {self}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1): {self.dropout}")


def region(name: str) -> str:
    """The pool a tensor joins: ENCODER for an `enc.` name, DECODER for `dec.`."""
    if name.startswith("enc."):
        return ENCODER
    if name.startswith("dec."):
        return DECODER
    raise RegistryMismatchError(f"tensor {name!r} is in neither region: no enc. or dec. prefix")


def maskable(shape: tuple[int, ...]) -> bool:
    """Weight matrices and embeddings are maskable; biases and norms are not."""
    return len(shape) == 2


def param_shapes(cfg: ModelConfig) -> Layout:
    """Canonical (name, shape) layout for a config, without allocating values."""
    d, f, v = cfg.d_model, cfg.ffn_dim, cfg.vocab_size
    layout: list[tuple[str, tuple[int, ...]]] = []

    def attn(prefix: str) -> None:
        layout.extend((f"{prefix}.{part}", (d, d)) for part in ("wq", "wk", "wv", "wo"))
        # no key bias: q . bk is the same for every key of a query, and softmax
        # ignores a per-query constant, so its gradient is zero
        layout.extend((f"{prefix}.{part}", (d,)) for part in ("bq", "bv", "bo"))

    def norm(prefix: str) -> None:
        layout.extend([(f"{prefix}.g", (d,)), (f"{prefix}.b", (d,))])

    def ffn(prefix: str) -> None:
        layout.extend([(f"{prefix}.w1", (d, f)), (f"{prefix}.b1", (f,)),
                       (f"{prefix}.w2", (f, d)), (f"{prefix}.b2", (d,))])

    layout.append(("enc.embed", (v, d)))
    for i in range(cfg.n_enc_layers):
        norm(f"enc.L{i}.sa_norm")
        attn(f"enc.L{i}.sa")
        norm(f"enc.L{i}.ffn_norm")
        ffn(f"enc.L{i}.ffn")
    norm("enc.final_norm")

    layout.append(("dec.embed", (v, d)))
    for i in range(cfg.n_dec_layers):
        norm(f"dec.L{i}.sa_norm")
        attn(f"dec.L{i}.sa")
        norm(f"dec.L{i}.ca_norm")
        attn(f"dec.L{i}.ca")
        norm(f"dec.L{i}.ffn_norm")
        ffn(f"dec.L{i}.ffn")
    norm("dec.final_norm")
    layout.append(("dec.out_proj", (d, v)))
    return tuple(layout)


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------


def layout_views(vector: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Name -> view of `vector` for (name, shape or size) pairs laid back to
    back from offset 0."""
    views, ofs = {}, 0
    for name, shape in layout:
        size = shape if isinstance(shape, int) else math.prod(shape)
        views[name] = vector[ofs:ofs + size].reshape(shape)
        ofs += size
    return views


class ParamStore:
    """Ordered map of named parameter tensors, all views of one float64
    vector. `ParamStore(tensors)` copies the tensors into a new vector, each
    a trainable leaf named by its key; updates write into the vector."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.layout = tuple((n, t.data.shape) for n, t in tensors.items())
        self.vector = np.concatenate([t.data.ravel() for t in tensors.values()] or [[]])
        self._tensors = {n: Tensor(v, requires_grad=True, name=n)
                         for n, v in layout_views(self.vector, self.layout).items()}

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._tensors.items())

    def array(self, name: str) -> np.ndarray:
        return self._tensors[name].data

    def copy(self) -> "ParamStore":
        return ParamStore(self._tensors)

    def checksum(self) -> str:
        h = hashlib.sha256()
        for name, t in self._tensors.items():
            h.update(name.encode())
            h.update(str(t.data.shape).encode())
            h.update(t.data.tobytes())
        return h.hexdigest()

    def require_same_structure(self, other: "ParamStore") -> None:
        if self.layout != other.layout:
            raise RegistryMismatchError("parameter stores have different layouts")


def _init_array(name: str, shape: tuple[int, ...], d_model: int,
                rng: np.random.Generator) -> np.ndarray:
    if name.endswith(".embed"):
        lim = math.sqrt(3.0 / d_model)
        return rng.uniform(-lim, lim, size=shape)
    if len(shape) == 2:
        gain = math.sqrt(2.0) if name.endswith("ffn.w1") else 1.0
        fan_in, fan_out = shape
        lim = gain * math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=shape)
    if name.endswith("norm.g"):
        return np.ones(shape)
    return np.zeros(shape)


def build_model(cfg: ModelConfig, seed: int) -> tuple[ParamStore, Layout]:
    """Initialize parameters (scaled uniform); returns the store and its layout."""
    rng = ag.derived_rng("init", seed)
    store = ParamStore({name: Tensor(_init_array(name, shape, cfg.d_model, rng), name=name)
                        for name, shape in param_shapes(cfg)})
    return store, store.layout


def count_params(layout: Layout, mask=None) -> dict[str, int]:
    """Exact integer counts; with a mask, adds its popcount as masked_ones."""
    sizes = [(region(name), maskable(shape), math.prod(shape)) for name, shape in layout]
    counts = {
        "total": sum(size for _, _, size in sizes),
        "encoder": sum(size for r, _, size in sizes if r == ENCODER),
        "decoder": sum(size for r, _, size in sizes if r == DECODER),
        "maskable": sum(size for _, m, size in sizes if m),
    }
    if mask is not None:
        mask.require_matches(layout)
        counts["masked_ones"] = mask.popcount()
    return counts


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DropCtx:
    """Per-step dropout context: the rate and one generator, derived from
    (seed, step), that every dropout site draws its mask from in forward order."""
    rate: float
    rng: np.random.Generator


@functools.cache
def positional_encoding(max_len: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None]
    dim = np.arange(0, d_model, 2)[None, :]
    angle = pos / np.power(10000.0, dim / d_model)
    pe = np.zeros((max_len, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def _drop(x: Tensor, drop: DropCtx | None) -> Tensor:
    return x if drop is None else ag.dropout(x, drop.rate, drop.rng)


def _attention(params: ParamStore, prefix: str, q_in: Tensor, kv_in: Tensor,
               n_heads: int, mask: np.ndarray | None, q_rows: ag.Rows, kv_rows: ag.Rows,
               state: dict | None = None, grow: bool = False) -> Tensor:
    """With a decoder `state`, keys and values are kept under `prefix.k` and
    `prefix.v` as (B, S, d) blocks: `grow` appends those of `kv_in`,
    otherwise they are projected on the first call and reused."""
    q = ag.linear(q_in, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    cached = state is not None and f"{prefix}.k" in state
    if not cached or grow:
        k = ag.linear(kv_in, params[f"{prefix}.wk"])
        v = ag.linear(kv_in, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
        if state is not None:
            for key, x in ((f"{prefix}.k", k), (f"{prefix}.v", v)):
                new = kv_rows.scatter(x.data)
                state[key] = np.concatenate((state[key], new), axis=1) if cached else new
    if state is not None:
        b, s, d = state[f"{prefix}.k"].shape
        k, v = (Tensor(state[f"{prefix}.{x}"].reshape(b * s, d)) for x in "kv")
        kv_rows = ag.Rows(b, s)
    ctx = ag.attention(q, k, v, n_heads, mask, q_rows, kv_rows)
    return ag.linear(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _norm(params: ParamStore, prefix: str, x: Tensor) -> Tensor:
    return ag.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _ffn(params: ParamStore, prefix: str, x: Tensor, drop: DropCtx | None) -> Tensor:
    h = _drop(ag.relu(ag.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"])), drop)
    return ag.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _embed(params: ParamStore, table: str, ids: np.ndarray, live: np.ndarray,
           cfg: ModelConfig, drop: DropCtx | None, start: int = 0) -> Tensor:
    """One row per live token of a (B, S) id array, at the position of its
    column plus `start`."""
    end = start + ids.shape[1]
    if end > cfg.max_len:
        raise ShapeError(f"sequence length {end} exceeds max_len {cfg.max_len}")
    pe = positional_encoding(cfg.max_len, cfg.d_model)
    x = ag.embedding(params[table], ids[live], math.sqrt(cfg.d_model),
                     pe[start + np.nonzero(live)[1]])
    return _drop(x, drop)


def _check_tokens(ids: np.ndarray, vocab: int, what: str) -> np.ndarray:
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ShapeError(f"{what} must be a (batch, len) array, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ShapeError(f"{what} token id out of range for vocab {vocab}")
    return ids


_SRC_MASK = "src_mask"  # a decoder state's entry for the memory's key mask


def key_mask(live: np.ndarray) -> np.ndarray:
    """Additive (B, 1, 1, S) mask hiding the key positions that are not live."""
    return np.where(live, 0.0, _NEG_INF)[:, None, None, :]


def causal_mask(t: int) -> np.ndarray:
    """Additive (1, 1, t, t) mask: query i sees keys 0..i."""
    return np.triu(np.full((t, t), _NEG_INF), k=1)[None, None, :, :]


def encode(params: ParamStore, cfg: ModelConfig, src: np.ndarray,
           drop: DropCtx | None = None) -> tuple[Tensor, np.ndarray]:
    """Run the encoder stack over the live (non-pad) source positions;
    returns (memory, live): one memory row per true position of the (B, S)
    bool map `live`, in row-major order."""
    src = _check_tokens(src, cfg.vocab_size, "src")
    live = src != PAD_ID
    rows, mask = ag.Rows.where(live), key_mask(live)
    x = _embed(params, "enc.embed", src, live, cfg, drop)
    for i in range(cfg.n_enc_layers):
        p = f"enc.L{i}"
        h = _norm(params, f"{p}.sa_norm", x)
        sa = _attention(params, f"{p}.sa", h, h, cfg.n_heads, mask, rows, rows)
        x = ag.add(x, _drop(sa, drop))
        ff = _ffn(params, f"{p}.ffn", _norm(params, f"{p}.ffn_norm", x), drop)
        x = ag.add(x, _drop(ff, drop))
    return _norm(params, "enc.final_norm", x), live


def decode_logits(params: ParamStore, cfg: ModelConfig, memory: Tensor,
                  src_live: np.ndarray, tgt_in: np.ndarray,
                  drop: DropCtx | None = None, state: dict | None = None) -> Tensor:
    """Run the decoder stack over `tgt_in` against encoder memory, as `encode`
    returns it; returns (live target tokens, vocab) logits, one row per true
    position of `tgt_in != PAD_ID` in row-major order.

    Positions of `tgt_in` that hold PAD_ID are pads and get no rows; a batch
    pads tgt_in where it pads tgt_out, at row ends, so the causal mask hides
    them from every live position. With a `state` dict (under no_grad only),
    `tgt_in` holds one live position per row, the one after those of earlier
    calls; more is a ShapeError. The state caches each layer's self-attention
    keys and values, and from its first call the cross-attention ones and the
    memory's key mask, as arrays whose first axis is the batch row
    (`keep_decoding` narrows them). Only that first call reads `memory` and
    `src_live`."""
    if state is not None and ag._grad_enabled:
        raise DossError("a decoder state is valid only under no_grad")
    tgt_in = _check_tokens(tgt_in, cfg.vocab_size, "tgt_in")
    if state is None:
        live, start, cmask = tgt_in != PAD_ID, 0, causal_mask(tgt_in.shape[1])
    elif tgt_in.shape[1] != 1:
        raise ShapeError(f"a decoder state takes one position per call, got {tgt_in.shape[1]}")
    else:  # one newest position sees every cached key: no mask
        live, cmask = np.ones(tgt_in.shape, dtype=bool), None
        start = state["dec.L0.sa.k"].shape[1] if state else 0  # positions cached so far
    rows = ag.Rows.where(live)
    if not state:  # no state, or its first call
        src_rows, src_mask = ag.Rows.where(src_live), key_mask(src_live)
        if state is not None:
            state[_SRC_MASK] = src_mask
    else:
        src_rows, src_mask = None, state[_SRC_MASK]  # cross keys and values are cached
    x = _embed(params, "dec.embed", tgt_in, live, cfg, drop, start)
    for i in range(cfg.n_dec_layers):
        p = f"dec.L{i}"
        h = _norm(params, f"{p}.sa_norm", x)
        sa = _attention(params, f"{p}.sa", h, h, cfg.n_heads, cmask, rows, rows, state, grow=True)
        x = ag.add(x, _drop(sa, drop))
        ca = _attention(params, f"{p}.ca", _norm(params, f"{p}.ca_norm", x),
                        memory, cfg.n_heads, src_mask, rows, src_rows, state)
        x = ag.add(x, _drop(ca, drop))
        ff = _ffn(params, f"{p}.ffn", _norm(params, f"{p}.ffn_norm", x), drop)
        x = ag.add(x, _drop(ff, drop))
    x = _norm(params, "dec.final_norm", x)
    return ag.linear(x, params["dec.out_proj"])


def keep_decoding(state: dict, keep: np.ndarray) -> None:
    """Narrow an incremental decode to its batch rows `keep` (increasing):
    every array the decoder state caches, in place."""
    for key, x in state.items():
        state[key] = x[keep]


def forward(params: ParamStore, cfg: ModelConfig, src: np.ndarray, tgt_in: np.ndarray,
            drop: DropCtx | None = None) -> Tensor:
    """Full encoder-decoder pass over the live positions; returns
    (live target tokens, vocab) logits as `decode_logits` does. Dropout
    applies only under a DropCtx."""
    if src.shape[0] != np.asarray(tgt_in).shape[0]:
        raise ShapeError("src and tgt_in batch sizes differ")
    memory, src_live = encode(params, cfg, src, drop)
    return decode_logits(params, cfg, memory, src_live, tgt_in, drop)


# ---------------------------------------------------------------------------
# checkpoint and registry-record serialization
# ---------------------------------------------------------------------------


def save_checkpoint(store: ParamStore, path) -> None:
    """Named-tensor file: magic, version, count, then name/rank/extents/f32 data.
    A value that is not finite in float32 raises NumericsError naming its
    tensor, before the file is opened."""
    with np.errstate(over="ignore"):
        for name, t in store.items():
            if not np.isfinite(t.data.astype("<f4")).all():
                raise NumericsError(f"tensor {name!r} holds a value that is not finite in float32")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<HI", CKPT_VERSION, len(store)))
        for name, t in store.items():
            arr = t.data
            fh.write(framed_string(name))
            fh.write(struct.pack("<B", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def framed_string(text: str) -> bytes:
    """`text` as `FramedReader.string` reads it: a u16 length, then UTF-8."""
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


class FramedReader:
    """Reads a binary artifact framed as magic, u16 version, then little-endian
    fields. A read past the file's end (refused before it allocates), a wrong
    magic or version, and trailing bytes are FormatErrors naming the kind."""

    def __init__(self, fh, magic: bytes, version: int, what: str):
        self.fh = fh
        self.what = what
        self.left = os.fstat(fh.fileno()).st_size
        if self.read(len(magic)) != magic:
            raise FormatError(f"bad {what} magic")
        (got,) = self.unpack("<H")
        if got != version:
            raise FormatError(f"unsupported {what} version {got}")

    def read(self, n: int) -> bytes:
        if n > self.left:
            raise FormatError(f"{self.what} file truncated")
        self.left -= n
        return self.fh.read(n)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def string(self) -> str:
        """A u16-length-prefixed UTF-8 string."""
        (n,) = self.unpack("<H")
        try:
            return self.read(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.what} file holds a string that is not UTF-8") from exc

    def end(self) -> None:
        if self.left:
            raise FormatError(f"trailing bytes after {self.what} payload")


def load_checkpoint(path) -> ParamStore:
    """The store `save_checkpoint` wrote; a value that is not finite is a
    FormatError naming its tensor."""
    with open(path, "rb") as fh:
        reader = FramedReader(fh, CKPT_MAGIC, CKPT_VERSION, "checkpoint")
        (count,) = reader.unpack("<I")
        tensors: dict[str, Tensor] = {}
        for _ in range(count):
            name = reader.string()
            (rank,) = reader.unpack("<B")
            shape = reader.unpack(f"<{rank}I")
            data = np.frombuffer(reader.read(4 * math.prod(shape)), dtype="<f4").reshape(shape)
            if not np.isfinite(data).all():
                raise FormatError(f"checkpoint tensor {name!r} holds a non-finite value")
            if name in tensors:
                raise FormatError(f"checkpoint holds tensor {name!r} twice")
            tensors[name] = Tensor(data.astype(np.float64), requires_grad=True, name=name)
        reader.end()
    return ParamStore(tensors)


def _registry_lines(layout: Layout) -> list[str]:
    return [f"{name} {region(name)} {int(maskable(shape))}" for name, shape in layout]


def save_registry(layout: Layout, path) -> None:
    """Text record of the region and maskability rule: `name region 0|1` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in _registry_lines(layout))


def load_registry(path, store: ParamStore) -> None:
    """Check a `save_registry` record against the rule for `store`: a line
    that is not UTF-8 or not `name region 0|1` is a FormatError, lines that
    differ from the rule's a RegistryMismatchError."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.split() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise FormatError(f"registry file {path} is not UTF-8") from exc
    for fields in lines:
        if len(fields) != 3 or fields[2] not in ("0", "1"):
            raise FormatError(f"bad registry line: {' '.join(fields)!r}")
    expect = [line.split() for line in _registry_lines(store.layout)]
    for got, want in itertools.zip_longest(lines, expect):
        if got != want:
            raise RegistryMismatchError(f"registry line {got} differs from the rule's {want}")
