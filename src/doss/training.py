"""Training regimes: full finetuning/pretraining, structure-aware masked
joint training, and the domain-extension protocols.

Masked updates make two guarantees. `_train_step` zeroes gradients where
the domain mask is 0, before the clip and the Adam moments, and `adam_step`
writes parameters through np.where on the mask, so masked-out elements keep
their exact bit pattern. Non-maskable tensors (biases, layer norms) are never
touched by masked training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Sequence

import numpy as np

from . import autograd as ag
from .data import Batch, DomainDataset, batch_iterator, concat_datasets, epoch_batches
from .errors import ConfigError, NumericsError
from .masks import DomainMask, MaskSet, create_domain_mask, full_mask
from .model import DropCtx, ModelConfig, PAD_ID, ParameterRegistry, ParamStore, forward


# ---------------------------------------------------------------------------
# configs and optimizer state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    warmup_steps: int
    batch_tokens: int
    dropout: float
    max_steps: int | None = None
    epochs: int | None = None
    seed: int = 0
    grad_clip: float | None = 1.0
    mixing: str = "round_robin"

    def validate(self) -> "TrainConfig":
        if self.learning_rate <= 0 or self.warmup_steps < 1 or self.batch_tokens < 1:
            raise ConfigError(f"learning_rate/warmup/batch_tokens must be positive: {self}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1): {self.dropout}")
        if (self.max_steps is None) == (self.epochs is None):
            raise ConfigError("exactly one of max_steps or epochs must be set")
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigError("max_steps must be >= 0")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError("grad_clip must be positive or None")
        if self.mixing not in ("round_robin", "proportional"):
            raise ConfigError(f"unknown mixing strategy {self.mixing!r}")
        return self


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros(cls, params: ParamStore) -> "OptimizerState":
        return cls(m={n: np.zeros_like(t.data) for n, t in params.items()},
                   v={n: np.zeros_like(t.data) for n, t in params.items()})


class MetricsLog:
    """Collects (step, domain_id, loss, lr) rows; written as CSV."""

    def __init__(self):
        self.rows: list[tuple[int, str, float, float]] = []

    def add(self, step: int, domain_id: str, loss: float, lr: float) -> None:
        self.rows.append((step, domain_id, loss, lr))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("step,domain_id,loss,lr\n")
            for step, domain_id, loss, lr in self.rows:
                fh.write(f"{step},{domain_id},{loss!r},{lr!r}\n")


# ---------------------------------------------------------------------------
# schedule and optimizer
# ---------------------------------------------------------------------------


def lr_schedule(step: int, warmup: int, base_lr: float) -> float:
    """Inverse square root schedule with linear warmup; peak at step == warmup."""
    if step < 1:
        raise ConfigError(f"lr_schedule step must be >= 1, got {step}")
    return base_lr * min(step / warmup, math.sqrt(warmup / step))


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place if their global L2 norm exceeds max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        factor = max_norm / total
        for name in grads:
            grads[name] = grads[name] * factor
    return total


def adam_step(params: ParamStore, grads: dict[str, np.ndarray], state: OptimizerState,
              lr: float, betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
              mask: DomainMask | None = None) -> tuple[ParamStore, OptimizerState]:
    """One Adam update with bias correction. Under a mask only the mask's
    ones are written and non-maskable tensors are skipped; the caller zeroes
    the gradients where the mask is 0."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.data)
        elif not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for {name!r} at optimizer step {t}")
        sel = None
        if mask is not None:
            flat = mask.bits.get(name)
            if flat is None:
                continue  # non-maskable: frozen at the shared values
            sel = flat.reshape(tensor.data.shape)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / (1.0 - b1 ** t)
        v_hat = state.v[name] / (1.0 - b2 ** t)
        delta = lr * m_hat / (np.sqrt(v_hat) + eps)
        if sel is not None:
            tensor.data = np.where(sel, tensor.data - delta, tensor.data)
        else:
            tensor.data = tensor.data - delta
    return params, state


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _train_step(params: ParamStore, model_cfg: ModelConfig, batch: Batch, step: int,
                cfg: TrainConfig, state: OptimizerState,
                mask: DomainMask | None, log: MetricsLog | None) -> float:
    drop = DropCtx(cfg.seed, step, cfg.dropout)
    logits = forward(params, model_cfg, batch.src, batch.tgt_in, drop=drop)
    loss = ag.cross_entropy(logits, batch.tgt_out, PAD_ID)
    grads = ag.backward(loss)
    if mask is not None:
        for name in list(grads):
            flat = mask.bits.get(name)
            if flat is not None:
                grads[name] = grads[name] * flat.reshape(grads[name].shape)
    if cfg.grad_clip is not None:
        clip_by_global_norm(grads, cfg.grad_clip)
    lr = lr_schedule(step, cfg.warmup_steps, cfg.learning_rate)
    adam_step(params, grads, state, lr, mask=mask)
    value = float(loss.data)
    if log is not None:
        log.add(step, batch.domain_id, value, lr)
    return value


def _train(start: ParamStore, batches, cfg: TrainConfig, model_cfg: ModelConfig,
           maskset: MaskSet | None, log: MetricsLog | None) -> ParamStore:
    """One train step per batch on a copy of `start`, with fresh Adam moments;
    under a mask set each batch updates only its domain's mask."""
    params = start.copy()
    state = OptimizerState.zeros(params)
    for step, batch in enumerate(batches, 1):
        mask = None if maskset is None else maskset.get(batch.domain_id)
        _train_step(params, model_cfg, batch, step, cfg, state, mask, log)
    return params


def train_full(start: ParamStore, data, cfg: TrainConfig, model_cfg: ModelConfig,
               log: MetricsLog | None = None) -> ParamStore:
    """Finetune every parameter on one dataset (or a concatenation of several)."""
    cfg.validate()
    ds = concat_datasets(list(data)) if isinstance(data, (list, tuple)) else data
    if ds.size == 0:
        raise ConfigError("training data is empty")
    if cfg.epochs is not None:
        batches = (batch for epoch in range(cfg.epochs)
                   for batch in epoch_batches(ds, cfg.batch_tokens, cfg.seed, epoch))
    else:
        batches = islice(batch_iterator([ds], "round_robin", cfg.batch_tokens, cfg.seed),
                         cfg.max_steps)
    return _train(start, batches, cfg, model_cfg, None, log)


def train_doss(base: ParamStore, maskset: MaskSet, datasets: Sequence[DomainDataset],
               cfg: TrainConfig, model_cfg: ModelConfig,
               log: MetricsLog | None = None) -> ParamStore:
    """Structure-aware joint training: each single-domain mini-batch updates
    only that domain's masked parameters."""
    cfg.validate()
    if cfg.max_steps is None:
        raise ConfigError("train_doss is step-based; set max_steps")
    ids = sorted(m.domain_id for m in maskset)
    if ids != sorted(ds.domain_id for ds in datasets):
        raise ConfigError(f"mask set {ids} does not match datasets "
                          f"{sorted(ds.domain_id for ds in datasets)}")
    batches = islice(batch_iterator(datasets, cfg.mixing, cfg.batch_tokens, cfg.seed),
                     cfg.max_steps)
    return _train(base, batches, cfg, model_cfg, maskset, log)


# ---------------------------------------------------------------------------
# domain extension
# ---------------------------------------------------------------------------


class ExtensionMode(str, Enum):
    FT_ALL_ONES = "ft_all_ones"
    NEW_ONLY_UNCONSTRAINED = "new_only_unconstrained"
    ALL_MASKS_JOINT = "all_masks_joint"
    NEW_ONLY_DISJOINT = "new_only_disjoint"


def extend_domain(lam: ParamStore, base: ParamStore, maskset: MaskSet,
                  new_data: DomainDataset, mode: ExtensionMode | str, spec,
                  cfg: TrainConfig, *, model_cfg: ModelConfig,
                  registry: ParameterRegistry, mask_cfg: TrainConfig | None = None,
                  existing_data: Sequence[DomainDataset] | None = None,
                  log: MetricsLog | None = None) -> tuple[ParamStore, MaskSet]:
    """Adapt a jointly trained model to one new domain.

    Modes: ft_all_ones records an all-ones mask and continues training on the
    new data; new_only_unconstrained / new_only_disjoint create a fresh mask
    from the base model (the latter disjoint from the union of existing
    masks) and train on the new data only; all_masks_joint creates an
    unconstrained mask and jointly retrains all domains. Optimizer state
    starts fresh in every mode.
    """
    mode = ExtensionMode(mode)
    if new_data.domain_id in maskset.ids():
        raise ConfigError(f"domain {new_data.domain_id!r} already has a mask")
    if mode is ExtensionMode.FT_ALL_ONES:
        new_mask = full_mask(registry, new_data.domain_id)
    else:
        if mask_cfg is None:
            raise ConfigError(f"mode {mode.value} needs a mask-creation train config")
        disjoint_against = maskset if mode is ExtensionMode.NEW_ONLY_DISJOINT else None
        new_mask = create_domain_mask(base, new_data, spec, mask_cfg, registry,
                                      model_cfg, disjoint_against=disjoint_against)
    if mode is ExtensionMode.ALL_MASKS_JOINT:
        if existing_data is None:
            raise ConfigError("all_masks_joint needs the existing domains' data")
        new_set = maskset.plus(new_mask)
        trained = train_doss(lam, new_set, list(existing_data) + [new_data],
                             cfg, model_cfg, log=log)
        return trained, new_set
    trained = train_doss(lam, MaskSet([new_mask]), [new_data], cfg, model_cfg, log=log)
    return trained, maskset.plus(new_mask)
