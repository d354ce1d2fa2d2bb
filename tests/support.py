"""Model presets, sum and product ops, the long-form layer-norm backward, a
full-prefix reference decoder, parameter names, dataset and mask
measurements, and the capacity bound that only the tests use.

Test modules import this file by name (`from support import ...`); pytest puts
the tests directory on sys.path because it has no __init__.py.
"""

import numpy as np

from doss import autograd as ag
from doss.data import DomainDataset
from doss.errors import ConfigError
from doss.masks import DomainMask, MaskSet, PruneSpec, pool_layout
from doss.model import (BOS_ID, EOS_ID, ModelConfig, ParameterRegistry, ParamStore,
                        decode_logits, encode, layout_views)


def sum_all(a: ag.Tensor) -> ag.Tensor:
    """Sum of every element, as a scalar tape node."""
    return ag._node(np.asarray(a.data.sum()), "sum_all", (a,),
                    lambda g: (np.full_like(a.data, float(g)),))


def mul(a: ag.Tensor, b: ag.Tensor) -> ag.Tensor:
    """Elementwise product; either side may broadcast against the other."""
    return ag._node(a.data * b.data, "mul", (a, b),
                    lambda g: (ag._unbroadcast(g * b.data, a.data.shape),
                               ag._unbroadcast(g * a.data, b.data.shape)))


def layer_norm_backward_long_form(x: np.ndarray, gain: np.ndarray, g: np.ndarray,
                                  eps: float = 1e-6) -> np.ndarray:
    """The input gradient of `ag.layer_norm` through the variance and mean
    terms separately, as the op computed it before its compact form."""
    d = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    dxhat = g * gain
    dvar = (dxhat * xc * -0.5 * ivar ** 3).sum(axis=-1, keepdims=True)
    dmu = (-dxhat * ivar).sum(axis=-1, keepdims=True) + dvar * (-2.0 * xc).mean(axis=-1, keepdims=True)
    return dxhat * ivar + dvar * 2.0 * xc / d + dmu / d


def mini_config(vocab_size: int = 32) -> ModelConfig:
    """Small preset (tens of thousands of parameters)."""
    return ModelConfig(vocab_size=vocab_size, d_model=32, ffn_dim=64,
                       n_enc_layers=2, n_dec_layers=2, n_heads=2, max_len=32)


def full_scale_config() -> ModelConfig:
    """Full-scale preset, ~406M parameters (for counting only)."""
    return ModelConfig(vocab_size=42000, d_model=1024, ffn_dim=8192,
                       n_enc_layers=6, n_dec_layers=6, n_heads=16, max_len=256)


def full_prefix_decode(effective: ParamStore, model_cfg: ModelConfig, src: np.ndarray,
                       max_len: int) -> tuple[list[list[int]], list[np.ndarray]]:
    """Reference greedy decoder: reruns the decoder over the whole prefix at
    every step and keeps its last-position logits. Returns `greedy_decode`'s
    token lists and each step's (batch, vocab) logits."""
    src = np.asarray(src)
    steps = []
    with ag.no_grad():
        memory, pad_mask = encode(effective, model_cfg, src)
        out = np.full((src.shape[0], 1), BOS_ID, dtype=np.int64)
        done = np.zeros(src.shape[0], dtype=bool)
        for _ in range(min(max_len, max(model_cfg.max_len - 1, 1))):
            steps.append(decode_logits(effective, model_cfg, memory, pad_mask, out).data[:, -1, :])
            nxt = steps[-1].argmax(axis=1)
            out = np.concatenate([out, nxt[:, None]], axis=1)
            done |= nxt == EOS_ID
            if done.all():
                break
    tokens = out[:, 1:]
    ends = np.where(done, (tokens == EOS_ID).argmax(axis=1) + 1, tokens.shape[1])
    return [row[:end].tolist() for row, end in zip(tokens, ends)], steps


def param_names(store: ParamStore) -> list[str]:
    """The store's tensor names in layout order."""
    return [name for name, _ in store.items()]


def checksum_bytes(ds: DomainDataset) -> bytes:
    """The domain id and every pair, as bytes that differ when any token does."""
    chunks = [ds.domain_id.encode()]
    for src, tgt in ds.pairs:
        chunks.append(np.asarray(src, dtype="<u4").tobytes())
        chunks.append(b"|")
        chunks.append(np.asarray(tgt, dtype="<u4").tobytes())
    return b"".join(chunks)


def pool_size(registry: ParameterRegistry, region: str) -> int:
    """Elements in a region's maskable pool."""
    return sum(i.size for i in registry.maskable_infos(region))


def region_ones(mask: DomainMask, registry: ParameterRegistry, region: str) -> int:
    """Ones of a mask inside one region's maskable pool."""
    return int(sum(mask.bits[i.name].sum() for i in registry.maskable_infos(region)))


def random_mask(registry: ParameterRegistry, domain_id: str, rng: np.random.Generator,
                density: float) -> DomainMask:
    """A mask in the registry's pool layout with each element 1 with
    probability `density`."""
    layout = pool_layout(registry)
    vector = rng.random(sum(n for _, n in layout)) < density
    return DomainMask(domain_id, layout_views(vector, layout),
                      PruneSpec(1 - density, 1 - density))


def is_pairwise_disjoint(masks: MaskSet) -> bool:
    """True when no element is 1 in two masks of the set."""
    ms = list(masks)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if any(np.any(ms[i].bits[n] & ms[j].bits[n]) for n in ms[i].bits):
                return False
    return True


def capacity(spec: PruneSpec) -> int:
    """Maximum number of full-density disjoint domains for these fractions."""
    if spec.alpha >= 1.0 or spec.beta >= 1.0:
        raise ConfigError("capacity undefined when a prune fraction is 1")
    return int(np.floor(min(1.0 / (1.0 - spec.alpha), 1.0 / (1.0 - spec.beta))))
