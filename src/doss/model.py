"""Pre-layer-norm encoder-decoder transformer over the autograd core.

Every parameter lives in a ParamStore keyed by a dotted name and is tagged in
a ParameterRegistry with its region (encoder/decoder) and whether it is
maskable. Weight matrices and embeddings are maskable; biases and layer-norm
parameters are not (they stay shared across domains). Positional encodings
are sinusoidal and parameter-free.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, FormatError, RegistryMismatchError, ShapeError

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
    tie_embeddings: bool = False

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

    def names(self) -> list[str]:
        return [i.name for i in self.infos]

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
        for part in ("bq", "bk", "bv", "bo"):
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
    if not cfg.tie_embeddings:
        w("dec.out_proj", (d, v), DECODER)
    return infos


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------


class ParamStore:
    """Ordered map of named parameter tensors (float64)."""

    def __init__(self, tensors: dict[str, Tensor]):
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._tensors.items())

    def array(self, name: str) -> np.ndarray:
        return self._tensors[name].data

    def copy(self) -> "ParamStore":
        return ParamStore({n: t.copy() for n, t in self._tensors.items()})

    def checksum(self) -> str:
        h = hashlib.sha256()
        for name, t in self._tensors.items():
            h.update(name.encode())
            h.update(str(t.data.shape).encode())
            h.update(np.ascontiguousarray(t.data).tobytes())
        return h.hexdigest()

    def require_same_structure(self, other: "ParamStore") -> None:
        if self.names() != other.names():
            raise RegistryMismatchError("parameter stores have different tensor names")
        for name, t in self._tensors.items():
            if t.data.shape != other[name].data.shape:
                raise RegistryMismatchError(f"shape mismatch for {name}")

    def require_matches(self, registry: ParameterRegistry) -> None:
        if self.names() != registry.names():
            raise RegistryMismatchError("store does not match registry names")
        for info in registry.infos:
            if tuple(self._tensors[info.name].data.shape) != tuple(info.shape):
                raise RegistryMismatchError(f"shape mismatch for {info.name}")


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
    """Per-step dropout context; masks derive from (seed, step, call site)."""
    seed: int
    step: int
    rate: float


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


def _drop(x: Tensor, site: str, drop: DropCtx | None) -> Tensor:
    if drop is None or drop.rate == 0.0:
        return x
    return ag.dropout(x, drop.rate, ag.derived_rng(drop.seed, drop.step, site))


def _attention(params: ParamStore, prefix: str, q_in: Tensor, kv_in: Tensor,
               n_heads: int, attn_mask: np.ndarray | None) -> Tensor:
    b, s_q, d = q_in.shape
    s_kv = kv_in.shape[1]
    dh = d // n_heads

    def heads(x: Tensor, s: int) -> Tensor:
        return ag.transpose(ag.reshape(x, (b, s, n_heads, dh)), (0, 2, 1, 3))

    q = heads(ag.add(ag.matmul(q_in, params[f"{prefix}.wq"]), params[f"{prefix}.bq"]), s_q)
    k = heads(ag.add(ag.matmul(kv_in, params[f"{prefix}.wk"]), params[f"{prefix}.bk"]), s_kv)
    v = heads(ag.add(ag.matmul(kv_in, params[f"{prefix}.wv"]), params[f"{prefix}.bv"]), s_kv)

    scores = ag.scale(ag.batched_matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    if attn_mask is not None:
        scores = ag.add_const(scores, attn_mask)
    ctx = ag.batched_matmul(ag.softmax(scores, axis=-1), v)
    merged = ag.reshape(ag.transpose(ctx, (0, 2, 1, 3)), (b, s_q, d))
    return ag.add(ag.matmul(merged, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])


def _norm(params: ParamStore, prefix: str, x: Tensor) -> Tensor:
    return ag.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _ffn(params: ParamStore, prefix: str, x: Tensor, site: str, drop: DropCtx | None) -> Tensor:
    h = ag.relu(ag.add(ag.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    h = _drop(h, site + ".act", drop)
    return ag.add(ag.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _embed(params: ParamStore, table: str, ids: np.ndarray, cfg: ModelConfig,
           site: str, drop: DropCtx | None) -> Tensor:
    pe = positional_encoding(cfg.max_len, cfg.d_model)
    s = ids.shape[1]
    if s > cfg.max_len:
        raise ShapeError(f"sequence length {s} exceeds max_len {cfg.max_len}")
    x = ag.scale(ag.embedding(params[table], ids), math.sqrt(cfg.d_model))
    x = ag.add_const(x, pe[None, :s, :])
    return _drop(x, site, drop)


def _check_tokens(ids: np.ndarray, vocab: int, what: str) -> np.ndarray:
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ShapeError(f"{what} must be a (batch, len) array, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ShapeError(f"{what} token id out of range for vocab {vocab}")
    return ids


def source_pad_mask(src: np.ndarray) -> np.ndarray:
    """Additive mask hiding pad source positions: (B, 1, 1, S)."""
    return np.where(src == PAD_ID, _NEG_INF, 0.0)[:, None, None, :]


def causal_mask(t: int) -> np.ndarray:
    m = np.triu(np.full((t, t), _NEG_INF), k=1)
    return m[None, None, :, :]


def encode(params: ParamStore, cfg: ModelConfig, src: np.ndarray,
           drop: DropCtx | None = None) -> tuple[Tensor, np.ndarray]:
    """Run the encoder stack; returns (memory, source pad mask)."""
    src = _check_tokens(src, cfg.vocab_size, "src")
    pad_mask = source_pad_mask(src)
    x = _embed(params, "enc.embed", src, cfg, "enc.embed.drop", drop)
    for i in range(cfg.n_enc_layers):
        p = f"enc.L{i}"
        h = _norm(params, f"{p}.sa_norm", x)
        sa = _attention(params, f"{p}.sa", h, h, cfg.n_heads, pad_mask)
        x = ag.add(x, _drop(sa, f"{p}.sa.drop", drop))
        ff = _ffn(params, f"{p}.ffn", _norm(params, f"{p}.ffn_norm", x), f"{p}.ffn", drop)
        x = ag.add(x, _drop(ff, f"{p}.ffn.drop", drop))
    return _norm(params, "enc.final_norm", x), pad_mask


def decode_logits(params: ParamStore, cfg: ModelConfig, memory: Tensor,
                  pad_mask: np.ndarray, tgt_in: np.ndarray,
                  drop: DropCtx | None = None) -> Tensor:
    """Run the decoder stack over `tgt_in` against encoder memory."""
    tgt_in = _check_tokens(tgt_in, cfg.vocab_size, "tgt_in")
    t = tgt_in.shape[1]
    cmask = causal_mask(t)
    x = _embed(params, "dec.embed", tgt_in, cfg, "dec.embed.drop", drop)
    for i in range(cfg.n_dec_layers):
        p = f"dec.L{i}"
        h = _norm(params, f"{p}.sa_norm", x)
        sa = _attention(params, f"{p}.sa", h, h, cfg.n_heads, cmask)
        x = ag.add(x, _drop(sa, f"{p}.sa.drop", drop))
        ca = _attention(params, f"{p}.ca", _norm(params, f"{p}.ca_norm", x),
                        memory, cfg.n_heads, pad_mask)
        x = ag.add(x, _drop(ca, f"{p}.ca.drop", drop))
        ff = _ffn(params, f"{p}.ffn", _norm(params, f"{p}.ffn_norm", x), f"{p}.ffn", drop)
        x = ag.add(x, _drop(ff, f"{p}.ffn.drop", drop))
    x = _norm(params, "dec.final_norm", x)
    if "dec.out_proj" in params:
        return ag.matmul(x, params["dec.out_proj"])
    # tied: logits through the transposed decoder embedding
    embed = params["dec.embed"]
    b, t2, d = x.shape
    flat = ag.reshape(x, (b * t2, d))
    logits = ag.transpose(ag.matmul(embed, ag.transpose(flat, (1, 0))), (1, 0))
    return ag.reshape(logits, (b, t2, cfg.vocab_size))


def forward(params: ParamStore, cfg: ModelConfig, src: np.ndarray, tgt_in: np.ndarray,
            drop: DropCtx | None = None) -> Tensor:
    """Full encoder-decoder pass; returns logits (batch, tgt_len, vocab).
    Dropout applies only under a DropCtx."""
    if src.shape[0] != np.asarray(tgt_in).shape[0]:
        raise ShapeError("src and tgt_in batch sizes differ")
    memory, pad_mask = encode(params, cfg, src, drop)
    return decode_logits(params, cfg, memory, pad_mask, tgt_in, drop)


# ---------------------------------------------------------------------------
# checkpoint + registry serialization
# ---------------------------------------------------------------------------


def save_checkpoint(store: ParamStore, path) -> None:
    """Named-tensor file: magic, version, count, then name/rank/extents/f32 data."""
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
    """Reads a binary artifact framed as magic, u16 version, then
    little-endian fields. A short read, a wrong magic or version, and
    trailing bytes are all FormatErrors naming the artifact kind."""

    def __init__(self, fh, magic: bytes, version: int, what: str):
        self.fh = fh
        self.what = what
        if self.read(len(magic)) != magic:
            raise FormatError(f"bad {what} magic")
        (got,) = self.unpack("<H")
        if got != version:
            raise FormatError(f"unsupported {what} version {got}")

    def read(self, n: int) -> bytes:
        buf = self.fh.read(n)
        if len(buf) != n:
            raise FormatError(f"{self.what} file truncated")
        return buf

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def string(self) -> str:
        """A u16-length-prefixed UTF-8 string."""
        (n,) = self.unpack("<H")
        return self.read(n).decode("utf-8")

    def end(self) -> None:
        if self.fh.read(1):
            raise FormatError(f"trailing bytes after {self.what} payload")


def load_checkpoint(path) -> ParamStore:
    with open(path, "rb") as fh:
        reader = FramedReader(fh, CKPT_MAGIC, CKPT_VERSION, "checkpoint")
        (count,) = reader.unpack("<I")
        tensors: dict[str, Tensor] = {}
        for _ in range(count):
            name = reader.string()
            (rank,) = reader.unpack("<B")
            shape = reader.unpack(f"<{rank}I")
            n = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(reader.read(4 * n), dtype="<f4").reshape(shape)
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
