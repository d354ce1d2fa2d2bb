"""Pre-layer-norm encoder-decoder transformer over the autograd core.

Every parameter lives in a ParamStore keyed by a dotted name and is tagged in
a ParameterRegistry with its region (encoder/decoder) and whether it is
maskable. Weight matrices and embeddings are maskable; biases and layer-norm
parameters are not (they stay shared across domains). A ParamStore's tensors
are views, in insertion order, of one float64 vector, so optimizer updates and
overlays are vector ops. Positional encodings are sinusoidal and parameter-free.

Activations are token-major: the encoder and decoder embed and compute only
live positions, one row per token. A source position is live where its token
is not PAD_ID; a target position is live before the row's padding. Pads sit at
row ends, so a key mask hides the source pads and the causal mask the target
pads from every live query. The logits are token-major too: one row per live
target position, so `tgt_out[tgt_in != PAD_ID]` are their targets, in order.
"""

from __future__ import annotations

import hashlib
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


# ---------------------------------------------------------------------------
# configuration / registry
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

    def validate(self) -> "ModelConfig":
        extents = (self.vocab_size, self.d_model, self.ffn_dim,
                   self.n_enc_layers, self.n_dec_layers, self.n_heads, self.max_len)
        if any(int(e) < 1 for e in extents):
            raise ConfigError(f"all model extents must be >= 1: {self}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1): {self.dropout}")
        return self


@dataclass(frozen=True)
class ParamInfo:
    name: str
    shape: tuple[int, ...]
    region: str
    maskable: bool

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


class ParameterRegistry:
    """Ordered per-tensor metadata: name, shape, region, maskable flag."""

    def __init__(self, infos: list[ParamInfo]):
        self.infos = list(infos)
        self.by_name = {i.name: i for i in self.infos}
        if len(self.by_name) != len(self.infos):
            raise RegistryMismatchError("duplicate tensor names in registry")
        for info in self.infos:
            if info.region not in (ENCODER, DECODER):
                raise RegistryMismatchError(f"bad region for {info.name}: {info.region}")

    def maskable_infos(self, region: str | None = None) -> list[ParamInfo]:
        return [i for i in self.infos
                if i.maskable and (region is None or i.region == region)]

    def __eq__(self, other) -> bool:
        return isinstance(other, ParameterRegistry) and self.infos == other.infos


def param_shapes(cfg: ModelConfig) -> list[ParamInfo]:
    """Canonical parameter list for a config, without allocating values."""
    cfg.validate()
    d, f, v = cfg.d_model, cfg.ffn_dim, cfg.vocab_size
    infos: list[ParamInfo] = []

    def w(name: str, shape: tuple[int, ...], region: str) -> None:
        infos.append(ParamInfo(name, shape, region, maskable=len(shape) == 2))

    def attn(prefix: str, region: str) -> None:
        for part in ("wq", "wk", "wv", "wo"):
            w(f"{prefix}.{part}", (d, d), region)
        # no key bias: q . bk is the same for every key of a query, and softmax
        # ignores a per-query constant, so its gradient is zero
        for part in ("bq", "bv", "bo"):
            w(f"{prefix}.{part}", (d,), region)

    def norm(prefix: str, region: str) -> None:
        w(f"{prefix}.g", (d,), region)
        w(f"{prefix}.b", (d,), region)

    def ffn(prefix: str, region: str) -> None:
        w(f"{prefix}.w1", (d, f), region)
        w(f"{prefix}.b1", (f,), region)
        w(f"{prefix}.w2", (f, d), region)
        w(f"{prefix}.b2", (d,), region)

    w("enc.embed", (v, d), ENCODER)
    for i in range(cfg.n_enc_layers):
        norm(f"enc.L{i}.sa_norm", ENCODER)
        attn(f"enc.L{i}.sa", ENCODER)
        norm(f"enc.L{i}.ffn_norm", ENCODER)
        ffn(f"enc.L{i}.ffn", ENCODER)
    norm("enc.final_norm", ENCODER)

    w("dec.embed", (v, d), DECODER)
    for i in range(cfg.n_dec_layers):
        norm(f"dec.L{i}.sa_norm", DECODER)
        attn(f"dec.L{i}.sa", DECODER)
        norm(f"dec.L{i}.ca_norm", DECODER)
        attn(f"dec.L{i}.ca", DECODER)
        norm(f"dec.L{i}.ffn_norm", DECODER)
        ffn(f"dec.L{i}.ffn", DECODER)
    norm("dec.final_norm", DECODER)
    w("dec.out_proj", (d, v), DECODER)
    return infos


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

    def require_matches(self, registry: ParameterRegistry) -> None:
        if self.layout != tuple((i.name, tuple(i.shape)) for i in registry.infos):
            raise RegistryMismatchError("store does not match the registry's names and shapes")


def _init_array(info: ParamInfo, d_model: int, rng: np.random.Generator) -> np.ndarray:
    if info.name.endswith(".embed"):
        lim = math.sqrt(3.0 / d_model)
        return rng.uniform(-lim, lim, size=info.shape)
    if len(info.shape) == 2:
        gain = math.sqrt(2.0) if info.name.endswith("ffn.w1") else 1.0
        fan_in, fan_out = info.shape
        lim = gain * math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=info.shape)
    if info.name.endswith("norm.g"):
        return np.ones(info.shape)
    return np.zeros(info.shape)


def build_model(cfg: ModelConfig, seed: int) -> tuple[ParamStore, ParameterRegistry]:
    """Initialize parameters (scaled uniform) and the matching registry."""
    infos = param_shapes(cfg)
    rng = np.random.Generator(np.random.PCG64(ag.derive_seed("init", seed)))
    tensors = {
        info.name: Tensor(_init_array(info, cfg.d_model, rng),
                          requires_grad=True, name=info.name)
        for info in infos
    }
    return ParamStore(tensors), ParameterRegistry(infos)


def count_params(registry: ParameterRegistry, mask=None) -> dict[str, int]:
    """Exact integer counts; with a mask, adds its popcount as masked_ones."""
    counts = {
        "total": sum(i.size for i in registry.infos),
        "encoder": sum(i.size for i in registry.infos if i.region == ENCODER),
        "decoder": sum(i.size for i in registry.infos if i.region == DECODER),
        "maskable": sum(i.size for i in registry.infos if i.maskable),
    }
    if mask is not None:
        mask.require_matches(registry)
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


_PE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def positional_encoding(max_len: int, d_model: int) -> np.ndarray:
    key = (max_len, d_model)
    pe = _PE_CACHE.get(key)
    if pe is None:
        pos = np.arange(max_len)[:, None]
        dim = np.arange(0, d_model, 2)[None, :]
        angle = pos / np.power(10000.0, dim / d_model)
        pe = np.zeros((max_len, d_model))
        pe[:, 0::2] = np.sin(angle)
        pe[:, 1::2] = np.cos(angle)
        _PE_CACHE[key] = pe
    return pe


def _drop(x: Tensor, drop: DropCtx | None) -> Tensor:
    return x if drop is None else ag.dropout(x, drop.rate, drop.rng)


def _attention(params: ParamStore, prefix: str, q_in: Tensor, kv_in: Tensor,
               n_heads: int, mask: np.ndarray | None, q_rows: ag.Rows, kv_rows: ag.Rows,
               state: dict | None = None, grow: bool = False) -> Tensor:
    """With a decoder `state`, keys and values are kept under `prefix` as
    (B, S, d) blocks: `grow` appends those of `kv_in`, otherwise they are
    projected once and reused."""
    q = ag.linear(q_in, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    kv = None if state is None else state.get(prefix)
    if kv is None or grow:
        k = ag.linear(kv_in, params[f"{prefix}.wk"])
        v = ag.linear(kv_in, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
        if state is not None:
            new = [kv_rows.scatter(x.data) for x in (k, v)]
            state[prefix] = new if kv is None else [np.concatenate((old, x), axis=1)
                                                    for old, x in zip(kv, new)]
    if state is not None:
        b, s, d = state[prefix][0].shape
        k, v = (Tensor(x.reshape(b * s, d)) for x in state[prefix])
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


_SRC = "src"  # a decoder state's entry for the memory's rows and key mask


def key_mask(live: np.ndarray) -> np.ndarray:
    """Additive (B, 1, 1, S) mask hiding the key positions that are not live."""
    return np.where(live, 0.0, _NEG_INF)[:, None, None, :]


def causal_mask(t: int, start: int = 0) -> np.ndarray:
    """Additive (1, 1, t, start + t) mask: query i sees keys 0..start + i."""
    m = np.triu(np.full((t, start + t), _NEG_INF), k=start + 1)
    return m[None, None, :, :]


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
    `tgt_in` holds just the positions after those of earlier calls, all live:
    the state caches each layer's self-attention keys and values, and its
    cross-attention ones from the first call, as (B, S, d) blocks, and under
    "src" the memory's rows and key mask until `keep_decoding` narrows the
    batch."""
    if state is not None and ag._grad_enabled:
        raise DossError("a decoder state is valid only under no_grad")
    tgt_in = _check_tokens(tgt_in, cfg.vocab_size, "tgt_in")
    t = tgt_in.shape[1]
    start = state["dec.L0.sa"][0].shape[1] if state else 0  # positions cached so far
    live = np.ones(tgt_in.shape, dtype=bool) if state is not None else tgt_in != PAD_ID
    rows = ag.Rows.where(live)
    if state is None:
        src_rows, src_mask = ag.Rows.where(src_live), key_mask(src_live)
    else:
        if _SRC not in state:
            state[_SRC] = ag.Rows.where(src_live), key_mask(src_live)
        src_rows, src_mask = state[_SRC]
    # one newest position sees every key: no mask
    cmask = None if state is not None and t == 1 else causal_mask(t, start)
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


def keep_decoding(memory: Tensor, src_live: np.ndarray, state: dict,
                  keep: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Narrow an incremental decode to its batch rows `keep` (increasing):
    the state's cached keys and values in place; returns the memory and the
    source live map of those rows."""
    state.pop(_SRC, None)  # decode_logits rebuilds it for the kept rows
    for prefix, kv in state.items():
        state[prefix] = [x[keep] for x in kv]
    kept = np.zeros(src_live.shape[0], dtype=bool)
    kept[keep] = True
    # memory rows are row-major over the live positions: look up each one's batch row
    return Tensor(memory.data[kept[np.nonzero(src_live)[0]]]), src_live[keep]


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
# checkpoint + registry serialization
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
            raw = name.encode("utf-8")
            arr = t.data
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


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
            tensors[name] = Tensor(data.astype(np.float64), requires_grad=True, name=name)
        reader.end()
    return ParamStore(tensors)


def save_registry(registry: ParameterRegistry, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for info in registry.infos:
            fh.write(f"{info.name} {info.region} {1 if info.maskable else 0}\n")


def load_registry(path, store: ParamStore) -> ParameterRegistry:
    """Rebuild a registry from its text sidecar, taking shapes from `store`."""
    infos = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                name, region, maskable = line.split()
            except ValueError as exc:
                raise FormatError(f"bad registry line: {line!r}") from exc
            if name not in store:
                raise RegistryMismatchError(f"registry names unknown tensor {name}")
            infos.append(ParamInfo(name, tuple(store.array(name).shape),
                                   region, maskable == "1"))
    registry = ParameterRegistry(infos)
    store.require_matches(registry)
    return registry
