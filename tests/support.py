"""Model presets, sum, product and row-selection ops, the long-form layer-norm
backward, the former expressions of the rewritten kernels, a causal mask at
an offset, a padded reference
model and a full-prefix reference decoder over it, an n-gram-counting BLEU
oracle, parameter names, dataset and mask measurements, and the capacity
bound that only the tests use.

Test modules import this file by name (`from support import ...`); pytest puts
the tests directory on sys.path because it has no __init__.py.
"""

import math
from collections import Counter

import numpy as np

from doss import autograd as ag
from doss.data import DomainDataset
from doss.errors import ConfigError
from doss.evaluation import rows_to_decode
from doss.masks import DomainMask, MaskSet, PruneSpec, pool_layout
from doss.model import (BOS_ID, EOS_ID, PAD_ID, Layout, ModelConfig, ParamStore, layout_views,
                        maskable, positional_encoding, region)


def sum_all(a: ag.Tensor) -> ag.Tensor:
    """Sum of every element, as a scalar tape node."""
    return ag._node(np.asarray(a.data.sum()), "sum_all", (a,),
                    lambda g: (np.full_like(a.data, float(g)),))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def mul(a: ag.Tensor, b: ag.Tensor) -> ag.Tensor:
    """Elementwise product; either side may broadcast against the other."""
    return ag._node(a.data * b.data, "mul", (a, b),
                    lambda g: (_unbroadcast(g * b.data, a.data.shape),
                               _unbroadcast(g * a.data, b.data.shape)))


def take_rows(a: ag.Tensor, index: np.ndarray) -> ag.Tensor:
    """The rows `index` of a 2-D array, in that order."""
    def bw(g):
        da = np.zeros_like(a.data)
        np.add.at(da, index, g)
        return (da,)
    return ag._node(a.data[index], "take_rows", (a,), bw)


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


# ---------------------------------------------------------------------------
# the kernels' former expressions: each rewrite must keep their bits
# ---------------------------------------------------------------------------


def attention_reference(q, k, v, n_heads, mask, q_rows, kv_rows, g):
    """`ag.attention`'s output and (q, k, v) gradients for the upstream
    gradient `g`, as the op computed them on query-major (B, H, S_q, S_kv)
    scores over views of (B, S, D) blocks."""
    b, d = q_rows.b, q.shape[-1]
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)

    def heads(x, rows):
        return rows.scatter(x).reshape(b, rows.s, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x, rows):
        return rows.gather(x.transpose(0, 2, 1, 3).reshape(b, rows.s, d))

    qh, vh = heads(q, q_rows), heads(v, kv_rows)
    kt = heads(k, kv_rows).transpose(0, 1, 3, 2)
    scores = (qh @ kt) * c
    if mask is not None:
        scores = scores + mask
    s_kv = kv_rows.s
    row_max = scores.reshape(-1, s_kv).T.copy().max(axis=0).reshape(scores.shape[:-1] + (1,))
    e = np.exp(scores - row_max)
    p = e / e.sum(axis=-1, keepdims=True)
    gh = heads(g, q_rows)
    gp = gh @ vh.swapaxes(-1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * c
    gkt = qh.swapaxes(-1, -2) @ gs
    return (merge(p @ vh, q_rows), merge(gs @ kt.swapaxes(-1, -2), q_rows),
            merge(gkt.transpose(0, 1, 3, 2), kv_rows), merge(p.swapaxes(-1, -2) @ gh, kv_rows))


def offset_causal_mask(t: int, start: int) -> np.ndarray:
    """Additive (1, 1, t, start + t) mask of t queries after `start` earlier
    positions: query i sees keys 0..start + i."""
    return np.triu(np.full((t, start + t), -1e30), k=start + 1)[None, None]


def layer_norm_reference(x, gain, bias, g, eps=1e-6):
    """`ag.layer_norm`'s output and (x, gain, bias) gradients through
    `np.mean` and out-of-place expressions."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xc * ivar
    dxhat = g * gain
    dx = ivar * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                 - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    lead = tuple(range(g.ndim - 1))
    return xhat * gain + bias, dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def dropout_keep_reference(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted dropout's keep values from a bool draw."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


def embedding_grad_reference(table_shape, ids, g, scale):
    """The embedding table's gradient through `np.add.at`."""
    dt = np.zeros(table_shape)
    np.add.at(dt, np.asarray(ids).ravel(), (g * scale).reshape(-1, table_shape[1]))
    return dt


def adam_reference(vector, grad, m, v, t, lr, ones=None, betas=(0.9, 0.999), eps=1e-8):
    """One in-place Adam update in single passes over whole vectors; under
    `ones` (indices) only those elements of `vector` are written."""
    b1, b2 = betas
    s1, s2 = np.empty_like(grad), np.empty_like(grad)
    np.add(np.multiply(b1, m, out=m), np.multiply(1.0 - b1, grad, out=s1), out=m)
    np.add(np.multiply(b2, v, out=v),
           np.multiply(1.0 - b2, np.multiply(grad, grad, out=s1), out=s1), out=v)
    delta = np.divide(np.multiply(lr, np.divide(m, 1.0 - b1 ** t, out=s1), out=s1),
                      np.add(np.sqrt(np.divide(v, 1.0 - b2 ** t, out=s2), out=s2), eps, out=s2),
                      out=s1)
    if ones is None:
        vector -= delta
    else:
        vector[ones] -= delta[ones]


def clip_reference(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Clip a name -> gradient dict in place by squaring each tensor, in the
    dict's order; returns the norm before clipping."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def mini_config(vocab_size: int = 32) -> ModelConfig:
    """Small preset (tens of thousands of parameters)."""
    return ModelConfig(vocab_size=vocab_size, d_model=32, ffn_dim=64,
                       n_enc_layers=2, n_dec_layers=2, n_heads=2, max_len=32)


def full_scale_config() -> ModelConfig:
    """Full-scale preset, ~406M parameters (for counting only)."""
    return ModelConfig(vocab_size=42000, d_model=1024, ffn_dim=8192,
                       n_enc_layers=6, n_dec_layers=6, n_heads=16, max_len=256)


# ---------------------------------------------------------------------------
# the padded reference model: every (B, S) position is a row
# ---------------------------------------------------------------------------


def _ref_norm(params: ParamStore, prefix: str, x: ag.Tensor) -> ag.Tensor:
    return ag.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _ref_ffn(params: ParamStore, prefix: str, x: ag.Tensor) -> ag.Tensor:
    h = ag.relu(ag.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return ag.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _ref_attention(params: ParamStore, cfg: ModelConfig, prefix: str, x: ag.Tensor,
                   kv: ag.Tensor, q_rows: ag.Rows, kv_rows: ag.Rows,
                   mask: np.ndarray) -> ag.Tensor:
    q = ag.linear(x, params[f"{prefix}.wq"], params[f"{prefix}.bq"])
    k = ag.linear(kv, params[f"{prefix}.wk"])
    v = ag.linear(kv, params[f"{prefix}.wv"], params[f"{prefix}.bv"])
    ctx = ag.attention(q, k, v, cfg.n_heads, mask, q_rows, kv_rows)
    return ag.linear(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _ref_embed(params: ParamStore, cfg: ModelConfig, table: str, ids: np.ndarray) -> ag.Tensor:
    pe = positional_encoding(cfg.max_len, cfg.d_model)
    return ag.embedding(params[table], ids.ravel(), math.sqrt(cfg.d_model),
                        np.tile(pe[:ids.shape[1]], (ids.shape[0], 1)))


def padded_encode(params: ParamStore, cfg: ModelConfig, src: np.ndarray) -> ag.Tensor:
    """The encoder as it ran before pad-free rows: a row per (B, S) position,
    pads included, hidden from attention by the additive key mask only."""
    rows = ag.Rows(*src.shape)
    mask = np.where(src == PAD_ID, -1e30, 0.0)[:, None, None, :]
    x = _ref_embed(params, cfg, "enc.embed", src)
    for i in range(cfg.n_enc_layers):
        p = f"enc.L{i}"
        h = _ref_norm(params, f"{p}.sa_norm", x)
        x = ag.add(x, _ref_attention(params, cfg, f"{p}.sa", h, h, rows, rows, mask))
        x = ag.add(x, _ref_ffn(params, f"{p}.ffn", _ref_norm(params, f"{p}.ffn_norm", x)))
    return _ref_norm(params, "enc.final_norm", x)


def padded_decode_logits(params: ParamStore, cfg: ModelConfig, memory: ag.Tensor,
                         src: np.ndarray, tgt_in: np.ndarray) -> ag.Tensor:
    """The decoder as it ran before pad-free rows, against `padded_encode`'s
    memory: every target position is computed, pads included. Returns
    (B * T, vocab) logits, a row per position in row-major order."""
    (b, s), t = src.shape, tgt_in.shape[1]
    rows, src_rows = ag.Rows(b, t), ag.Rows(b, s)
    pad_mask = np.where(src == PAD_ID, -1e30, 0.0)[:, None, None, :]
    causal = np.triu(np.full((t, t), -1e30), k=1)[None, None]
    x = _ref_embed(params, cfg, "dec.embed", tgt_in)
    for i in range(cfg.n_dec_layers):
        p = f"dec.L{i}"
        h = _ref_norm(params, f"{p}.sa_norm", x)
        x = ag.add(x, _ref_attention(params, cfg, f"{p}.sa", h, h, rows, rows, causal))
        h = _ref_norm(params, f"{p}.ca_norm", x)
        x = ag.add(x, _ref_attention(params, cfg, f"{p}.ca", h, memory, rows, src_rows, pad_mask))
        x = ag.add(x, _ref_ffn(params, f"{p}.ffn", _ref_norm(params, f"{p}.ffn_norm", x)))
    x = _ref_norm(params, "dec.final_norm", x)
    return ag.linear(x, params["dec.out_proj"])


def padded_forward(params: ParamStore, cfg: ModelConfig, src: np.ndarray,
                   tgt_in: np.ndarray) -> ag.Tensor:
    """Reference for `model.forward` without dropout: (B * T, vocab) logits
    computed at every position, pads included, and a tape to take gradients
    through."""
    return padded_decode_logits(params, cfg, padded_encode(params, cfg, src), src, tgt_in)


def full_prefix_decode(effective: ParamStore, model_cfg: ModelConfig, src: np.ndarray,
                       max_len: int) -> tuple[list[list[int]], list[np.ndarray]]:
    """Reference greedy decoder: reruns the padded reference decoder over the
    whole prefix of every row at every step. Returns `greedy_decode`'s token
    lists and, per step, the last-position logits of the rows that
    `greedy_decode` decodes at that step (`rows_to_decode`)."""
    src = np.asarray(src)
    steps = []
    with ag.no_grad():
        memory = padded_encode(effective, model_cfg, src)
        out = np.full((src.shape[0], 1), BOS_ID, dtype=np.int64)
        done = np.zeros(src.shape[0], dtype=bool)
        rows = np.arange(src.shape[0])
        for _ in range(min(max_len, max(model_cfg.max_len - 1, 1))):
            logits = padded_decode_logits(effective, model_cfg, memory, src, out).data
            logits = logits.reshape(*out.shape, -1)[:, -1]
            steps.append(logits[rows])
            nxt = logits.argmax(axis=1)
            out = np.concatenate([out, nxt[:, None]], axis=1)
            done |= nxt == EOS_ID
            if done.all():
                break
            rows = rows[rows_to_decode(done[rows])]
    tokens = out[:, 1:]
    ends = np.where(done, (tokens == EOS_ID).argmax(axis=1) + 1, tokens.shape[1])
    return [row[:end].tolist() for row, end in zip(tokens, ends)], steps


def oracle_sentence_stats(hyp, ref, max_n: int = 4) -> list[int]:
    """One sentence's BLEU statistics, counted with Counters: hypothesis and
    reference length, then per order n the clipped n-gram matches and the
    hypothesis n-gram count."""
    row = [len(hyp), len(ref)]
    for n in range(1, max_n + 1):
        hyp_ngrams = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
        ref_ngrams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        row.append(sum(min(c, ref_ngrams.get(g, 0)) for g, c in hyp_ngrams.items()))
        row.append(max(len(hyp) - n + 1, 0))
    return row


def oracle_bleu_from_sums(sums, max_n: int = 4) -> float:
    """Corpus BLEU from the column sums of the per-sentence statistics,
    written from the scoring formula: add-one smoothing for n >= 2 and the
    brevity penalty."""
    c, r = sums[0], sums[1]
    precisions = []
    for n in range(1, max_n + 1):
        match, total = sums[2 * n], sums[2 * n + 1]
        smooth = 1 if n >= 2 else 0
        if match + smooth == 0 or total + smooth == 0:
            return 0.0
        precisions.append((match + smooth) / (total + smooth))
    if c == 0:
        return 0.0
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / max_n)


def oracle_bleu(hyps, refs, max_n: int = 4) -> float:
    """Independent n-gram-counting oracle for `corpus_bleu`."""
    rows = [oracle_sentence_stats(h, r, max_n) for h, r in zip(hyps, refs)]
    return oracle_bleu_from_sums([sum(col) for col in zip(*rows)], max_n)


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


def region_pool(layout: Layout, pool: str | None = None) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of the maskable tensors of a region (of both when None),
    in layout order."""
    return [(name, shape) for name, shape in layout
            if maskable(shape) and pool in (None, region(name))]


def pool_size(layout: Layout, pool: str | None = None) -> int:
    """Elements in a region's maskable pool (in both pools when None)."""
    return sum(math.prod(shape) for _, shape in region_pool(layout, pool))


def region_ones(mask: DomainMask, layout: Layout, pool: str) -> int:
    """Ones of a mask inside one region's maskable pool."""
    return int(sum(mask.bits[name].sum() for name, _ in region_pool(layout, pool)))


def random_mask(layout: Layout, domain_id: str, rng: np.random.Generator,
                density: float) -> DomainMask:
    """A mask in the layout's pool layout with each element 1 with
    probability `density`."""
    pool = pool_layout(layout)
    vector = rng.random(sum(n for _, n in pool)) < density
    return DomainMask(domain_id, layout_views(vector, pool),
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
