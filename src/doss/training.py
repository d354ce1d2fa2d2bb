"""Training regimes: full finetuning/pretraining, structure-aware masked
joint training, and the domain-extension protocols.

Parameters, gradients and Adam moments share the trained store's vector
layout; `_train` maps each domain's mask onto it once. A masked step keeps
its gradient only at the mask's ones: `_train_step` zeroes it everywhere
else, on the tensors the mask does not name (biases, layer norms) too, in one
op before the clip, so the clip norm covers only what the step trains. Then
`adam_step` writes only the mask's ones, so every other element keeps its
exact bit pattern. A step checks its loss for a non-finite value once, before
`backward`, and `adam_step` checks the gradient vector; the ops check nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from . import EXTENSION_MODES, autograd as ag
from .data import MIXINGS, Batch, DomainDataset, batch_iterator, concat_datasets, epoch_batches
from .errors import ConfigError, NumericsError
from .masks import MaskSet, StoreMask, create_domain_mask, full_mask, on_store
from .model import DropCtx, ModelConfig, PAD_ID, ParamStore, forward, layout_views


# ---------------------------------------------------------------------------
# configs and optimizer state
# ---------------------------------------------------------------------------

GRAD_CLIP = 1.0  # every train step clips the gradient's global L2 norm to this
_ADAM_CHUNK = 32768  # elements: adam_step's 6 vector chunks, 256 KB each, fit a 2 MB L2


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    warmup_steps: int
    batch_tokens: int
    dropout: float
    max_steps: int | None = None
    epochs: int | None = None
    seed: int = 0
    mixing: str = "round_robin"

    def validate(self) -> "TrainConfig":
        if not 0 < self.learning_rate < math.inf or self.warmup_steps < 1 or self.batch_tokens < 1:
            raise ConfigError(f"learning_rate/warmup/batch_tokens must be finite and positive: "
                              f"{self}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1): {self.dropout}")
        if (self.max_steps is None) == (self.epochs is None):
            raise ConfigError("exactly one of max_steps or epochs must be set")
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigError("max_steps must be >= 0")
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.mixing not in MIXINGS:
            raise ConfigError(f"unknown mixing strategy {self.mixing!r}")
        return self


@dataclass
class OptimizerState:
    """Adam moments laid out like the store's vector, two scratch buffers of
    one `adam_step` chunk so that an update allocates no vector temporaries,
    and the train step's gradient vector with a view per tensor, made once
    for the store's layout."""
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    grad: np.ndarray
    grad_views: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros(cls, params: ParamStore) -> "OptimizerState":
        n = params.vector.size
        grad = np.zeros(n)
        return cls(np.zeros(n), np.zeros(n), (np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK)),
                   grad, layout_views(grad, params.layout))


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


def clip_by_global_norm(grad: np.ndarray, grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale the gradient vector in place if its global L2 norm exceeds
    max_norm. `grads` are views of `grad` that cover its nonzero elements; the
    norm sums their squares in the dict's order, and one vector op scales."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        grad *= max_norm / total
    return total


def adam_step(params: ParamStore, grad: np.ndarray, state: OptimizerState,
              lr: float, betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
              mask: StoreMask | None = None) -> tuple[ParamStore, OptimizerState]:
    """One Adam update with bias correction, in place over `params.vector`;
    `grad` and the moments share its layout. Under a mask only its ones are
    written; the caller zeroes the gradient outside them."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    finite = np.isfinite(grad)
    if not finite.all():
        name = next(n for n, ok in layout_views(finite, params.layout).items() if not ok.all())
        raise NumericsError(f"non-finite gradient for {name!r} at optimizer step {t}")
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    bounds = range(0, grad.size, _ADAM_CHUNK)
    if mask is not None:  # the mask's ones in each chunk
        cuts = np.searchsorted(mask.ones, [*bounds, grad.size])
    for i, lo in enumerate(bounds):
        part = slice(lo, lo + _ADAM_CHUNK)
        g, m, v = grad[part], state.m[part], state.v[part]
        s1, s2 = (s[:g.size] for s in state.scratch)
        # in place, with the same elementwise ops in the same order as
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g); delta = lr*m_hat / (sqrt(v_hat) + eps)
        np.add(np.multiply(b1, m, out=m), np.multiply(1.0 - b1, g, out=s1), out=m)
        np.add(np.multiply(b2, v, out=v),
               np.multiply(1.0 - b2, np.multiply(g, g, out=s1), out=s1), out=v)
        np.divide(np.multiply(lr, np.divide(m, c1, out=s1), out=s1),
                  np.add(np.sqrt(np.divide(v, c2, out=s2), out=s2), eps, out=s2), out=s1)
        if mask is None:
            params.vector[part] -= s1
        else:
            ones = mask.ones[cuts[i]:cuts[i + 1]]
            params.vector[ones] -= s1[ones - lo]
    return params, state


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _train_step(params: ParamStore, model_cfg: ModelConfig, batch: Batch, step: int,
                cfg: TrainConfig, state: OptimizerState,
                mask: StoreMask | None, log: MetricsLog | None) -> float:
    drop = DropCtx(cfg.dropout, ag.derived_rng(cfg.seed, step)) if cfg.dropout > 0.0 else None
    logits = forward(params, model_cfg, batch.src, batch.tgt_in, drop=drop)
    loss = ag.cross_entropy(logits, batch.tgt_out[batch.tgt_in != PAD_ID])
    ag.check_finite(loss)
    grad = state.grad
    grad.fill(0.0)  # tensors the tape does not reach keep 0
    grads = ag.backward(loss, state.grad_views)
    if mask is not None:
        grad *= mask.keep
    # backward's order: another summation order changes the norm's last bits
    clip_by_global_norm(grad, grads, GRAD_CLIP)
    lr = lr_schedule(step, cfg.warmup_steps, cfg.learning_rate)
    adam_step(params, grad, state, lr, mask=mask)
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
    on_params = {m.domain_id: on_store(m, params) for m in maskset or ()}
    for step, batch in enumerate(batches, 1):
        mask = None if maskset is None else on_params[batch.domain_id]
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


def extend_domain(lam: ParamStore, base: ParamStore, maskset: MaskSet,
                  new_data: DomainDataset, mode: str, spec,
                  cfg: TrainConfig, *, model_cfg: ModelConfig,
                  mask_cfg: TrainConfig | None = None,
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
    if mode not in EXTENSION_MODES:
        raise ConfigError(f"unknown extension mode {mode!r}: one of {EXTENSION_MODES}")
    if new_data.domain_id in maskset.ids():
        raise ConfigError(f"domain {new_data.domain_id!r} already has a mask")
    if mode == "ft_all_ones":
        new_mask = full_mask(base.layout, new_data.domain_id)
    else:
        if mask_cfg is None:
            raise ConfigError(f"mode {mode} needs a mask-creation train config")
        disjoint_against = maskset if mode == "new_only_disjoint" else None
        new_mask = create_domain_mask(base, new_data, spec, mask_cfg, model_cfg,
                                      disjoint_against=disjoint_against)
    if mode == "all_masks_joint":
        if existing_data is None:
            raise ConfigError("all_masks_joint needs the existing domains' data")
        new_set = maskset.plus(new_mask)
        trained = train_doss(lam, new_set, list(existing_data) + [new_data],
                             cfg, model_cfg, log=log)
        return trained, new_set
    trained = train_doss(lam, MaskSet([new_mask]), [new_data], cfg, model_cfg, log=log)
    return trained, maskset.plus(new_mask)
