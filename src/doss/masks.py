"""Per-domain binary masks: creation by finetune + magnitude pruning,
disjointness constraints, overlap statistics, overlay inference, and the
mask file format.

A mask stores one flat bitset per maskable tensor (1 = domain-specific and
trainable, 0 = shared and frozen at the base values). Non-maskable tensors
have implicit all-zero masks. Pruning is global within each region: the
encoder's maskable pool is ranked as one vector and the top (1 - alpha)
fraction by |value| is kept; same for the decoder with beta. Ties break by
(tensor name, flat index).
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RegistryMismatchError
from .model import DECODER, ENCODER, FramedReader, ParameterRegistry, ParamStore

MASK_MAGIC = b"DOSSMASK"
MASK_VERSION = 1


@dataclass(frozen=True)
class PruneSpec:
    """Region prune fractions and the length of the mask-creation finetune."""
    alpha: float
    beta: float
    ft_epochs: int = 5

    def validate(self) -> "PruneSpec":
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ConfigError(f"prune fractions must be in [0, 1]: {self}")
        if self.ft_epochs < 1:
            raise ConfigError(f"ft_epochs must be >= 1: {self}")
        return self


@dataclass
class DomainMask:
    """Flat boolean bitset per maskable tensor for one domain."""
    domain_id: str
    bits: dict[str, np.ndarray]
    spec: PruneSpec

    def popcount(self) -> int:
        return int(sum(b.sum() for b in self.bits.values()))

    def region_ones(self, registry: ParameterRegistry, region: str) -> int:
        return int(sum(self.bits[i.name].sum() for i in registry.maskable_infos(region)))

    def require_matches(self, registry: ParameterRegistry) -> None:
        expected = {i.name: i.size for i in registry.maskable_infos()}
        got = {n: b.size for n, b in self.bits.items()}
        if expected != got:
            raise RegistryMismatchError(
                f"mask {self.domain_id!r} does not cover the registry's maskable pool")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DomainMask):
            return NotImplemented
        # ft_epochs is creation provenance, not part of the serialized identity
        return (self.domain_id == other.domain_id
                and self.spec.alpha == other.spec.alpha
                and self.spec.beta == other.spec.beta
                and self.bits.keys() == other.bits.keys()
                and all(np.array_equal(self.bits[n], other.bits[n]) for n in self.bits))


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
        if not self.masks:
            return {}
        out = {n: b.copy() for n, b in self.masks[0].bits.items()}
        for m in self.masks[1:]:
            for n, b in m.bits.items():
                out[n] |= b
        return out

    def union_mask(self, domain_id: str = "union") -> "DomainMask":
        if not self.masks:
            raise RegistryMismatchError("union of an empty mask set")
        spec = self.masks[0].spec
        return DomainMask(domain_id, self.union_bits(), spec)

    def is_pairwise_disjoint(self) -> bool:
        for i in range(len(self.masks)):
            for j in range(i + 1, len(self.masks)):
                a, b = self.masks[i], self.masks[j]
                if any(np.any(a.bits[n] & b.bits[n]) for n in a.bits):
                    return False
        return True


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def _region_pool(registry: ParameterRegistry, region: str):
    """Maskable tensors of a region in lexicographic name order."""
    infos = sorted(registry.maskable_infos(region), key=lambda i: i.name)
    if not infos:
        raise RegistryMismatchError(f"empty maskable pool in region {region!r}")
    return infos


def _keep_flags(finetuned: ParamStore, infos, fraction_pruned: float) -> np.ndarray:
    absvals = np.concatenate([np.abs(finetuned.array(i.name)).ravel() for i in infos])
    keep = int(round((1.0 - fraction_pruned) * absvals.size))
    flags = np.zeros(absvals.size, dtype=bool)
    if keep > 0:
        # stable sort on the concatenated pool realizes the (name, index) tie-break
        order = np.argsort(-absvals, kind="stable")
        flags[order[:keep]] = True
    return flags


def _split_flags(flags: np.ndarray, infos) -> dict[str, np.ndarray]:
    out = {}
    ofs = 0
    for i in infos:
        out[i.name] = flags[ofs:ofs + i.size].copy()
        ofs += i.size
    return out


def magnitude_prune(finetuned: ParamStore, registry: ParameterRegistry,
                    spec: PruneSpec, domain_id: str = "") -> DomainMask:
    """Keep the top (1-alpha)/(1-beta) fraction by |value| per region."""
    spec.validate()
    finetuned.require_matches(registry)
    bits: dict[str, np.ndarray] = {}
    for region, frac in ((ENCODER, spec.alpha), (DECODER, spec.beta)):
        infos = _region_pool(registry, region)
        bits.update(_split_flags(_keep_flags(finetuned, infos, frac), infos))
    return DomainMask(domain_id, bits, spec)


def magnitude_prune_disjoint(finetuned: ParamStore, registry: ParameterRegistry,
                             spec: PruneSpec, claimed: MaskSet,
                             domain_id: str = "") -> DomainMask:
    """Like magnitude_prune, but drop any element already claimed by another
    domain. The result is not padded back to the nominal fraction."""
    for m in claimed:
        m.require_matches(registry)
    mask = magnitude_prune(finetuned, registry, spec, domain_id)
    for name, union in claimed.union_bits().items():
        mask.bits[name] &= ~union
    return mask


def create_domain_mask(base: ParamStore, domain_data, spec: PruneSpec, train_cfg,
                       registry: ParameterRegistry, model_cfg,
                       disjoint_against: MaskSet | None = None,
                       log=None) -> DomainMask:
    """Finetune a copy of the base for spec.ft_epochs, then magnitude-prune.

    The base store is never mutated; the finetuned copy is discarded after
    pruning.
    """
    from . import training  # circular at module level: training drives the finetune

    spec.validate()
    cfg = dataclasses.replace(train_cfg, max_steps=None, epochs=spec.ft_epochs)
    finetuned = training.train_full(base, domain_data, cfg, model_cfg, log=log)
    if disjoint_against is not None:
        return magnitude_prune_disjoint(finetuned, registry, spec, disjoint_against,
                                        domain_id=domain_data.domain_id)
    return magnitude_prune(finetuned, registry, spec, domain_id=domain_data.domain_id)


def full_mask(registry: ParameterRegistry, domain_id: str) -> DomainMask:
    """All-ones mask over the maskable pool (alpha = beta = 0)."""
    bits = {i.name: np.ones(i.size, dtype=bool) for i in registry.maskable_infos()}
    return DomainMask(domain_id, bits, PruneSpec(0.0, 0.0, 1))


def capacity(spec: PruneSpec) -> int:
    """Maximum number of full-density disjoint domains for these fractions."""
    if spec.alpha >= 1.0 or spec.beta >= 1.0:
        raise ConfigError("capacity undefined when a prune fraction is 1")
    return int(np.floor(min(1.0 / (1.0 - spec.alpha), 1.0 / (1.0 - spec.beta))))


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
    mask_list = list(masks)
    for m in mask_list[1:]:
        if m.bits.keys() != mask_list[0].bits.keys() or any(
                m.bits[n].size != mask_list[0].bits[n].size for n in m.bits):
            raise RegistryMismatchError("masks in the set cover different tensors")
    n = len(mask_list)
    shared = np.zeros((n, n), dtype=np.int64)
    jac = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            inter = sum(int((mask_list[i].bits[t] & mask_list[j].bits[t]).sum())
                        for t in mask_list[i].bits)
            union = sum(int((mask_list[i].bits[t] | mask_list[j].bits[t]).sum())
                        for t in mask_list[i].bits)
            shared[i, j] = shared[j, i] = inter
            jac[i, j] = jac[j, i] = inter / union if union else 0.0
    return OverlapStats([m.domain_id for m in mask_list], shared, jac)


# ---------------------------------------------------------------------------
# overlay
# ---------------------------------------------------------------------------


def overlay(base: ParamStore, trained: ParamStore, mask: DomainMask) -> ParamStore:
    """Effective per-domain parameters: trained where the mask is 1, base
    elsewhere (including every non-maskable tensor)."""
    from .autograd import Tensor

    base.require_same_structure(trained)
    out = {}
    for name, t in base.items():
        if name in mask.bits:
            if mask.bits[name].size != t.data.size:
                raise RegistryMismatchError(f"mask length mismatch for {name}")
            sel = mask.bits[name].reshape(t.data.shape)
            data = np.where(sel, trained.array(name), t.data)
        else:
            data = t.data.copy()
        out[name] = Tensor(data, requires_grad=True, name=name)
    return ParamStore(out)


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
            bits[name] = np.unpackbits(packed, count=size, bitorder="little").astype(bool)
        reader.end()
    return DomainMask(domain_id, bits, PruneSpec(alpha, beta))
