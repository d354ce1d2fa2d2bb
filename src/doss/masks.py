"""Per-domain binary masks: creation by finetune + magnitude pruning,
disjointness constraints, overlap statistics, overlay inference, and the
mask file format.

A mask is one bool vector (1 = domain-specific and trainable, 0 = shared and
frozen at the base values) over an ordered (tensor name, size) layout; every
mask over a parameter layout has its pool layout, each region's maskable
tensors in name order, encoder first. Region and maskability follow from a
tensor's name and rank (`model.region`, `model.maskable`). Non-maskable tensors
have implicit all-zero masks.
Pruning is global within each region: the encoder's maskable pool is ranked
as one vector and the top (1 - alpha) fraction by |value| is kept; same for
the decoder with beta. Ties break by pool order, i.e. (tensor name, index).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FormatError, RegistryMismatchError
from .model import (DECODER, ENCODER, FramedReader, Layout, ParamStore, layout_views,
                    maskable, region)

MASK_MAGIC = b"DOSSMASK"
MASK_VERSION = 1


@dataclass(frozen=True)
class PruneSpec:
    """Prune fractions of the encoder (alpha) and decoder (beta) pools."""
    alpha: float
    beta: float

    def validate(self) -> "PruneSpec":
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ConfigError(f"prune fractions must be in [0, 1]: {self}")
        return self


class DomainMask:
    """One domain's mask: a bool vector over an ordered (name, size) layout.
    The constructor copies a name -> bitset map into a new vector; `bits`
    then maps each name to its 1-D view."""

    def __init__(self, domain_id: str, bits: dict[str, np.ndarray], spec: PruneSpec):
        self.domain_id, self.spec = domain_id, spec
        self.layout = tuple((n, np.size(b)) for n, b in bits.items())
        self.vector = np.concatenate([np.ravel(b) for b in bits.values()] or [[]]).astype(bool)
        self.bits = layout_views(self.vector, self.layout)

    def popcount(self) -> int:
        return int(np.count_nonzero(self.vector))

    def require_matches(self, layout: Layout) -> None:
        if self.layout != pool_layout(layout):
            raise RegistryMismatchError(
                f"mask {self.domain_id!r} does not cover the layout's maskable pool")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DomainMask):
            return NotImplemented
        # equal masks select the same elements in any layout order
        return (self.domain_id == other.domain_id and self.spec == other.spec
                and self.bits.keys() == other.bits.keys()
                and all(np.array_equal(self.bits[n], other.bits[n]) for n in self.bits))


def _vectors(masks) -> list[np.ndarray]:
    """The masks' vectors, after checking that they share one layout."""
    masks = list(masks)
    if any(m.layout != masks[0].layout for m in masks[1:]):
        raise RegistryMismatchError("masks have different layouts")
    return [m.vector for m in masks]


@dataclass
class MaskSet:
    """Domain masks in presentation order (order matters for disjoint mode)."""
    masks: list[DomainMask] = field(default_factory=list)

    def __post_init__(self):
        ids = [m.domain_id for m in self.masks]
        if len(set(ids)) != len(ids):
            raise RegistryMismatchError(f"duplicate domain ids in mask set: {ids}")

    def __iter__(self):
        return iter(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def ids(self) -> list[str]:
        return [m.domain_id for m in self.masks]

    def get(self, domain_id: str) -> DomainMask:
        for m in self.masks:
            if m.domain_id == domain_id:
                return m
        raise KeyError(f"no mask for domain {domain_id!r}")

    def plus(self, mask: DomainMask) -> "MaskSet":
        return MaskSet(self.masks + [mask])

    def union_bits(self) -> dict[str, np.ndarray]:
        return self.union_mask().bits if self.masks else {}

    def union_mask(self, domain_id: str = "union") -> "DomainMask":
        if not self.masks:
            raise RegistryMismatchError("union of an empty mask set")
        union = np.logical_or.reduce(_vectors(self.masks))
        return DomainMask(domain_id, layout_views(union, self.masks[0].layout),
                          self.masks[0].spec)


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def _region_pool(layout: Layout, pool: str) -> list[tuple[str, int]]:
    """(name, size) of a region's maskable tensors in lexicographic name order."""
    entries = sorted((name, math.prod(shape)) for name, shape in layout
                     if maskable(shape) and region(name) == pool)
    if not entries:
        raise RegistryMismatchError(f"empty maskable pool in region {pool!r}")
    return entries


def pool_layout(layout: Layout) -> tuple[tuple[str, int], ...]:
    """The layout of every mask over a parameter layout: the region pools,
    encoder first."""
    return tuple(entry for pool in (ENCODER, DECODER) for entry in _region_pool(layout, pool))


def _keep_flags(finetuned: ParamStore, entries, fraction_pruned: float) -> np.ndarray:
    absvals = np.concatenate([np.abs(finetuned.array(name)).ravel() for name, _ in entries])
    keep = int(round((1.0 - fraction_pruned) * absvals.size))
    # the keep largest, ties broken by (name, index): every value above the keep-th
    # largest (the largest for keep 0), then that value's first ones in pool order
    kth = absvals.size - max(keep, 1)
    cut = np.partition(absvals, kth)[kth]
    flags = absvals > cut
    ties = np.flatnonzero(absvals == cut)
    flags[ties[:keep - np.count_nonzero(flags)]] = True
    return flags


def magnitude_prune(finetuned: ParamStore, layout: Layout, spec: PruneSpec,
                    domain_id: str = "") -> DomainMask:
    """Keep the top (1-alpha)/(1-beta) fraction by |value| per region of
    `layout`, which must be the store's."""
    spec.validate()
    if finetuned.layout != tuple(layout):
        raise RegistryMismatchError("store does not match the layout's names and shapes")
    flags = np.concatenate([_keep_flags(finetuned, _region_pool(layout, pool), frac)
                            for pool, frac in ((ENCODER, spec.alpha), (DECODER, spec.beta))])
    return DomainMask(domain_id, layout_views(flags, pool_layout(layout)), spec)


def magnitude_prune_disjoint(finetuned: ParamStore, layout: Layout, spec: PruneSpec,
                             claimed: MaskSet, domain_id: str = "") -> DomainMask:
    """Like magnitude_prune, but drop any element already claimed by another
    domain. The result is not padded back to the nominal fraction."""
    mask = magnitude_prune(finetuned, layout, spec, domain_id)
    own, *others = _vectors([mask, *claimed])
    if others:
        own &= ~np.logical_or.reduce(others)
    return mask


def create_domain_mask(base: ParamStore, domain_data, spec: PruneSpec, train_cfg, model_cfg,
                       disjoint_against: MaskSet | None = None) -> DomainMask:
    """Finetune a copy of the base on one domain with `train_cfg` (the
    manifest's mask-creation config), then magnitude-prune it; the base is
    never mutated."""
    from . import training  # circular at module level: training drives the finetune

    finetuned = training.train_full(base, domain_data, train_cfg, model_cfg)
    if disjoint_against is not None:
        return magnitude_prune_disjoint(finetuned, base.layout, spec, disjoint_against,
                                        domain_id=domain_data.domain_id)
    return magnitude_prune(finetuned, base.layout, spec, domain_id=domain_data.domain_id)


def full_mask(layout: Layout, domain_id: str) -> DomainMask:
    """All-ones mask over the maskable pool (alpha = beta = 0)."""
    return DomainMask(domain_id, {n: np.ones(size, dtype=bool)
                                  for n, size in pool_layout(layout)}, PruneSpec(0.0, 0.0))


# ---------------------------------------------------------------------------
# overlap statistics
# ---------------------------------------------------------------------------


@dataclass
class OverlapStats:
    domain_ids: list[str]
    shared_ones: np.ndarray  # int matrix
    jaccard: np.ndarray      # float matrix

    def to_lines(self) -> list[str]:
        lines = ["domain_a,domain_b,shared_ones,jaccard"]
        for i, a in enumerate(self.domain_ids):
            for j, b in enumerate(self.domain_ids):
                lines.append(f"{a},{b},{int(self.shared_ones[i, j])},{self.jaccard[i, j]:.6f}")
        return lines


def overlap_stats(masks: MaskSet) -> OverlapStats:
    """Pairwise shared-ones counts and Jaccard similarity over the mask set."""
    vecs = np.array(_vectors(masks), dtype=np.int64)
    shared = vecs @ vecs.T
    ones = np.diag(shared)
    union = ones[:, None] + ones[None, :] - shared
    jac = np.divide(shared, union, out=np.zeros(shared.shape), where=union > 0)
    return OverlapStats(masks.ids(), shared, jac)


# ---------------------------------------------------------------------------
# overlay
# ---------------------------------------------------------------------------


class StoreMask(NamedTuple):
    """A DomainMask on a ParamStore's vector, 0 on the tensors it does not
    name. Its sparse random ones are also held as indices: on this pattern a
    gather/scatter is ~3x faster than a `where=` vector op."""
    keep: np.ndarray  # bool: the mask's bits
    ones: np.ndarray  # indices of the mask's ones


def on_store(mask: DomainMask, store: ParamStore) -> StoreMask:
    """Map `mask` onto `store`'s vector layout."""
    bits = np.zeros(store.vector.size, dtype=bool)
    views = layout_views(bits, store.layout)
    for name, b in mask.bits.items():
        if name not in store or store.array(name).size != b.size:
            raise RegistryMismatchError(f"mask names no tensor of its size: {name}")
        views[name][...] = b.reshape(views[name].shape)
    return StoreMask(bits, np.flatnonzero(bits))


def overlay(base: ParamStore, trained: ParamStore, mask: DomainMask) -> ParamStore:
    """Effective per-domain parameters: trained where the mask is 1, base
    elsewhere (including every non-maskable tensor)."""
    base.require_same_structure(trained)
    out, ones = base.copy(), on_store(mask, base).ones
    out.vector[ones] = trained.vector[ones]
    return out


# ---------------------------------------------------------------------------
# mask file format
# ---------------------------------------------------------------------------


def save_mask(mask: DomainMask, path) -> None:
    """DOSSMASK file: magic, version, alpha/beta f64, domain id, then per
    tensor its name, element count, and the bitset packed LSB-first."""
    with open(path, "wb") as fh:
        fh.write(MASK_MAGIC)
        fh.write(struct.pack("<Hdd", MASK_VERSION, mask.spec.alpha, mask.spec.beta))
        raw = mask.domain_id.encode("utf-8")
        fh.write(struct.pack("<H", len(raw)))
        fh.write(raw)
        fh.write(struct.pack("<I", len(mask.bits)))
        for name, bits in mask.bits.items():
            nraw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nraw)))
            fh.write(nraw)
            fh.write(struct.pack("<Q", bits.size))
            fh.write(np.packbits(bits, bitorder="little").tobytes())


def load_mask(path) -> DomainMask:
    with open(path, "rb") as fh:
        reader = FramedReader(fh, MASK_MAGIC, MASK_VERSION, "mask")
        alpha, beta = reader.unpack("<dd")
        domain_id = reader.string()
        (count,) = reader.unpack("<I")
        bits: dict[str, np.ndarray] = {}
        for _ in range(count):
            name = reader.string()
            (size,) = reader.unpack("<Q")
            packed = np.frombuffer(reader.read((size + 7) // 8), dtype=np.uint8)
            if name in bits:
                raise FormatError(f"mask holds tensor {name!r} twice")
            bits[name] = np.unpackbits(packed, count=size, bitorder="little").astype(bool)
        reader.end()
    return DomainMask(domain_id, bits, PruneSpec(alpha, beta))
