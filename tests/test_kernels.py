"""The rewritten kernels against their former expressions, bit for bit: a
kernel that keeps its floating-point operations and their order keeps every
trained artifact's bytes."""

import numpy as np
import pytest

from doss import autograd as ag
from doss import training
from doss.masks import StoreMask
from doss.model import ParamStore, key_mask, layout_views
from doss.training import OptimizerState, adam_step, clip_by_global_norm
from support import (adam_reference, attention_reference, clip_reference,
                     dropout_keep_reference, embedding_grad_reference, layer_norm_reference,
                     offset_causal_mask)


def bits(arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def attention_and_grads(q, k, v, n_heads, mask, q_rows, kv_rows, g):
    out = ag.attention(*(ag.Tensor(x, requires_grad=True) for x in (q, k, v)),
                       n_heads, mask, q_rows, kv_rows)
    return (out.data, *out._backward(g))


def attention_case(r, q_rows, kv_rows, mask, d=64, n_heads=4):
    q, g = r.normal(size=(2, q_rows.count, d))
    k, v = r.normal(size=(2, kv_rows.count, d))
    return q, k, v, n_heads, mask, q_rows, kv_rows, g


def live_map(r, b, s):
    """A (B, S) map whose rows end at random lengths of 1 to S."""
    return np.arange(s) < r.integers(1, s + 1, size=(b, 1))


def test_attention_with_key_masks():
    r = np.random.default_rng(0)
    tgt, src = live_map(r, 36, 7), live_map(r, 36, 6)
    tgt_rows, src_rows = ag.Rows.where(tgt), ag.Rows.where(src)
    for args in (attention_case(r, src_rows, src_rows, key_mask(src)),  # encoder self
                 attention_case(r, tgt_rows, src_rows, key_mask(src)),  # cross
                 attention_case(r, tgt_rows, src_rows, key_mask(src), d=8, n_heads=1)):
        assert bits(attention_and_grads(*args)) == bits(attention_reference(*args))


@pytest.mark.parametrize("start", [0, 3])
def test_attention_with_a_causal_mask_at_an_offset(start):
    r = np.random.default_rng(1)
    args = attention_case(r, ag.Rows(5, 4), ag.Rows(5, start + 4),
                          offset_causal_mask(4, start))
    assert bits(attention_and_grads(*args)) == bits(attention_reference(*args))


@pytest.mark.parametrize("b,s_kv", [(1, 1), (3, 4), (40, 7)])
def test_attention_of_a_decode_step(b, s_kv):
    # one new position per row against its cached keys, with no mask: the
    # products then have one query row
    r = np.random.default_rng(2)
    args = attention_case(r, ag.Rows(b, 1), ag.Rows(b, s_kv), None)
    assert bits(attention_and_grads(*args)) == bits(attention_reference(*args))


@pytest.mark.parametrize("s_q", [1, 9])
def test_attention_over_eight_or_more_keys_is_close(s_q):
    # not bit for bit: the key-major softmax adds the keys in order, while
    # numpy's sum along a contiguous key axis of 8 or more elements adds
    # pairwise partial sums, so the sums' last bits may differ
    r = np.random.default_rng(3)
    args = attention_case(r, ag.Rows(6, s_q), ag.Rows(6, 9),
                          offset_causal_mask(s_q, 9 - s_q))
    for got, want in zip(attention_and_grads(*args), attention_reference(*args)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(252, 64), (3, 7, 64), (5,)])
def test_layer_norm_forward_and_backward(shape):
    r = np.random.default_rng(4)
    x, g = r.normal(size=shape) * 3.0 + 1.5, r.normal(size=shape)
    gain, bias = r.uniform(0.5, 2.0, shape[-1]), r.normal(size=shape[-1])
    out = ag.layer_norm(ag.Tensor(x, requires_grad=True), ag.Tensor(gain, requires_grad=True),
                        ag.Tensor(bias, requires_grad=True))
    got = (out.data, *out._backward(g))
    assert bits(got) == bits(layer_norm_reference(x, gain, bias, g))


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
def test_dropout_keep_values(rate):
    r = np.random.default_rng(5)
    x, g = r.normal(size=(2, 180, 64))
    out = ag.dropout(ag.Tensor(x, requires_grad=True), rate, ag.derived_rng(9, rate))
    keep = dropout_keep_reference(ag.derived_rng(9, rate), x.shape, rate)
    assert bits([out.data, *out._backward(g)]) == bits([x * keep, g * keep])


def test_embedding_gradient_with_repeated_ids_and_a_negative_zero():
    r = np.random.default_rng(6)
    ids = np.array([[0, 2, 2, 5], [5, 2, 0, 4]])
    g = r.normal(size=(2, 4, 3))
    g[0, 0] = -0.0  # id 0's first row: 0.0 + -0.0 is 0.0
    g[1, 3, 1] = -0.0  # id 4's only row
    table = ag.Tensor(r.normal(size=(7, 3)), requires_grad=True)
    out = ag.embedding(table, ids, 1.75, np.zeros(3))
    (got,) = out._backward(g)
    assert bits([got]) == bits([embedding_grad_reference(table.shape, ids, g, 1.75)])


@pytest.mark.parametrize("masked", [False, True])
def test_adam_over_a_vector_of_partial_chunks(masked):
    r = np.random.default_rng(7)
    n = 2 * training._ADAM_CHUNK + 1237
    store = ParamStore({"w": ag.Tensor(r.normal(size=n))})
    keep = r.random(n) < 0.4
    mask = StoreMask(keep, np.flatnonzero(keep)) if masked else None
    state = OptimizerState.zeros(store)
    vector, m, v = store.vector.copy(), np.zeros(n), np.zeros(n)
    for t in range(1, 4):
        grad = r.normal(size=n) * (keep if masked else 1.0)
        lr = float(r.uniform(1e-4, 1e-2))
        adam_step(store, grad, state, lr, mask=mask)
        adam_reference(vector, grad, m, v, t, lr, None if mask is None else mask.ones)
        assert bits([store.vector, state.m, state.v]) == bits([vector, m, v]), t


@pytest.mark.parametrize("scale", [10.0, 1e-3])
def test_clip_when_it_fires_and_when_it_does_not(scale):
    r = np.random.default_rng(8)
    layout = (("a", (30, 4)), ("b", (4,)), ("c", (17, 3)), ("d", (5,)))
    grad = r.normal(size=sum(int(np.prod(s)) for _, s in layout)) * scale
    grad[-5:] = 0.0  # "d" has no gradient: it is not in backward's order
    grad[3] = -0.0
    order = ["c", "a", "b"]
    expect = grad.copy()
    views, expect_views = layout_views(grad, layout), layout_views(expect, layout)
    norm = clip_by_global_norm(grad, {n: views[n] for n in order}, 1.0)
    assert norm == clip_reference({n: expect_views[n] for n in order}, 1.0)
    assert (norm > 1.0) == (scale > 1.0)
    assert bits([grad]) == bits([expect])
