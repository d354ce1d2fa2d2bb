"""Model presets and dataset and mask measurements that only the tests use.

Test modules import this file by name (`from support import ...`); pytest puts
the tests directory on sys.path because it has no __init__.py.
"""

import numpy as np

from doss.data import DomainDataset
from doss.masks import DomainMask, MaskSet
from doss.model import ModelConfig, ParameterRegistry


def mini_config(vocab_size: int = 32) -> ModelConfig:
    """Small preset (tens of thousands of parameters)."""
    return ModelConfig(vocab_size=vocab_size, d_model=32, ffn_dim=64,
                       n_enc_layers=2, n_dec_layers=2, n_heads=2, max_len=32)


def full_scale_config() -> ModelConfig:
    """Full-scale preset, ~406M parameters (for counting only)."""
    return ModelConfig(vocab_size=42000, d_model=1024, ffn_dim=8192,
                       n_enc_layers=6, n_dec_layers=6, n_heads=16, max_len=256)


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


def is_pairwise_disjoint(masks: MaskSet) -> bool:
    """True when no element is 1 in two masks of the set."""
    ms = list(masks)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if any(np.any(ms[i].bits[n] & ms[j].bits[n]) for n in ms[i].bits):
                return False
    return True
