"""Tensor op contracts and gradient checks against central finite differences."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doss import autograd as ag
from doss.errors import DossError, NumericsError, ShapeError
from doss.model import BOS_ID, PAD_ID, DropCtx, build_model, forward
from support import layer_norm_backward_long_form, mini_config, mul, sum_all

H = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def numeric_grad(fn, arrays, idx_array, h=H):
    """Independent oracle: central differences of a scalar-valued fn."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + h
            fp = fn(arrays)
            arr[i] = orig - h
            fm = fn(arrays)
            arr[i] = orig
            g[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads[idx_array]


def check_grads(build, arrays):
    """build(arrays as Tensors) -> scalar Tensor; compares every coordinate."""
    tensors = [ag.Tensor(a.copy(), requires_grad=True, name=f"t{k}")
               for k, a in enumerate(arrays)]
    grads = ag.backward(build(tensors))

    def fn(arrs):
        with ag.no_grad():
            return float(build([ag.Tensor(a) for a in arrs]).data)

    for k in range(len(arrays)):
        num = numeric_grad(fn, [a.copy() for a in arrays], k)
        ana = grads.get(f"t{k}")
        assert ana is not None, f"no gradient for input {k}"
        err = np.abs(ana - num)
        bound = REL_TOL * np.maximum(np.abs(ana), np.abs(num)) + ABS_FLOOR
        assert np.all(err <= bound), \
            f"grad mismatch input {k}: max err {err.max():.3e}"


def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------


def unfused_attention(q, k, v, n_heads, mask):
    """The op-by-op numpy chain that `ag.attention` fuses: split heads, scaled
    scores plus mask, max-subtracted softmax, weighted values, merge heads."""
    b, s_q, d = q.shape
    s_kv, dh = k.shape[1], d // n_heads
    qh = q.reshape((b, s_q, n_heads, dh)).transpose((0, 2, 1, 3))
    kh = k.reshape((b, s_kv, n_heads, dh)).transpose((0, 2, 1, 3))
    vh = v.reshape((b, s_kv, n_heads, dh)).transpose((0, 2, 1, 3))
    scores = (qh @ kh.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ctx = (e / e.sum(axis=-1, keepdims=True)) @ vh
    return ctx.transpose((0, 2, 1, 3)).reshape((b, s_q, d))


def attend(q, k, v, n_heads, mask):
    """`ag.attention` on (B, S, D) blocks whose every position is a row;
    returns the (B, S_q, D) block."""
    (b, s_q, d), s_kv = q.shape, k.shape[1]
    out = ag.attention(*(ag.Tensor(x.reshape(-1, d)) for x in (q, k, v)), n_heads, mask,
                       ag.Rows(b, s_q), ag.Rows(b, s_kv))
    return out.data.reshape(b, s_q, d)


def hide_key(b, s_kv, pos):
    """Additive (B, 1, 1, S_kv) mask hiding key position `pos`."""
    mask = np.zeros((b, 1, 1, s_kv))
    mask[:, :, :, pos] = -1e30
    return mask


def test_matmul_identity():
    # linear without a bias is the plain matrix product
    a = ag.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ag.linear(a, ag.Tensor(np.eye(2))).data, a.data)
    b = ag.Tensor([[5.0], [7.0]])
    assert np.array_equal(ag.linear(ag.Tensor(np.eye(2)), b).data, b.data)


def test_matmul_hand_value_scalar_loop_oracle():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0], [1.0]])
    out = ag.linear(ag.Tensor(a), ag.Tensor(b)).data
    # independent scalar-loop product
    expect = np.zeros((2, 1))
    for i in range(2):
        for j in range(1):
            for k in range(2):
                expect[i, j] += a[i, k] * b[k, j]
    assert np.array_equal(out, expect)
    assert out.tolist() == [[3.0], [7.0]]
    biased = ag.linear(ag.Tensor(a), ag.Tensor(b), ag.Tensor([0.5])).data
    assert biased.tolist() == [[3.5], [7.5]]


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ag.linear(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        ag.linear(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((3, 2))),
                  ag.Tensor(np.ones(3)))
    with pytest.raises(ShapeError):  # activations are token rows: 2-D only
        ag.linear(ag.Tensor(np.ones((2, 3, 3))), ag.Tensor(np.ones((3, 2))))
    q, rows = ag.Tensor(np.ones((6, 4))), ag.Rows(2, 3)
    with pytest.raises(ShapeError):  # k and v lengths differ
        ag.attention(q, ag.Tensor(np.ones((10, 4))), q, 2, None, rows, ag.Rows(2, 5))
    with pytest.raises(ShapeError):  # 4 is not a multiple of 3 heads
        ag.attention(q, q, q, 3, None, rows, rows)
    with pytest.raises(ShapeError):  # 6 rows, but the grid holds 4 live positions
        ag.attention(q, q, q, 2, None, ag.Rows.where(np.array([[1, 1, 0], [1, 1, 0]]) > 0), rows)


def test_softmax_symmetry_and_stability():
    # attention's softmax: equal scores weigh the values equally
    q, k = np.ones((1, 1, 2)), np.ones((1, 3, 2))
    v = np.array([[[1.0, 2.0], [3.0, 4.0], [8.0, 0.0]]])
    assert np.allclose(attend(q, k, v, 1, None), [[[4.0, 2.0]]])
    # scores of +-1000 stay finite, forward and backward
    q = ag.Tensor(np.ones((1, 1)), requires_grad=True, name="q")
    k = ag.Tensor([[1000.0], [-1000.0]], requires_grad=True, name="k")
    v = ag.Tensor([[3.0], [5.0]], requires_grad=True, name="v")
    out = ag.attention(q, k, v, 1, None, ag.Rows(1, 1), ag.Rows(1, 2))
    assert out.data.tolist() == [[3.0]]
    grads = ag.backward(sum_all(out))
    assert sorted(grads) == ["k", "q", "v"]
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_softmax_exp_formula_oracle():
    # one head of width 1: the scores are q * k, and v = (1, 0) reads the
    # weight of the first key
    q = np.array([[[1.0]]])
    k = np.array([[[1.0], [2.0]]])
    v = np.array([[[1.0], [0.0]]])
    x = np.array([1.0, 2.0])
    weight = float(attend(q, k, v, 1, None)[0, 0, 0])
    assert abs(weight - np.exp(x[0]) / np.exp(x).sum()) < 1e-15
    assert abs(weight - 0.2689414213699951) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-300, max_value=300), min_size=1, max_size=12))
def test_softmax_sums_to_one(values):
    # keys on the axes make the scores `values`; identity values read the weights
    n = len(values)
    q = np.ones((1, 1, n))
    k = (np.diag(values) * math.sqrt(n))[None]
    out = attend(q, k, np.eye(n)[None], 1, None)
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) <= 1e-12


def test_attention_matches_unfused_chain_bit_for_bit():
    r = rng()
    q = r.normal(size=(3, 4, 8))
    kv = r.normal(size=(3, 5, 8))
    causal = np.triu(np.full((4, 4), -1e30), k=1)[None, None]
    for args in ((q, q, q, 2, None), (q, q, q, 4, causal),
                 (q, kv, kv, 2, hide_key(3, 5, 1)), (q, kv, kv[:, ::-1].copy(), 1, None)):
        assert np.array_equal(attend(*args), unfused_attention(*args))


def test_attention_rows_scatter_into_zero_padded_blocks():
    # rows at the live positions of each grid give the zero-padded block
    # chain's values at the live query positions, bit for bit
    r = rng()
    q_live = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]], dtype=bool)
    kv_live = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 1, 0, 0, 0]], dtype=bool)
    q_rows, kv_rows = ag.Rows.where(q_live), ag.Rows.where(kv_live)
    q, k, v = (r.normal(size=(n, 8)) for n in (q_rows.count, kv_rows.count, kv_rows.count))
    mask = np.where(kv_live, 0.0, -1e30)[:, None, None, :]
    out = ag.attention(ag.Tensor(q), ag.Tensor(k), ag.Tensor(v), 2, mask, q_rows, kv_rows)
    blocks = [rows.scatter(x) for rows, x in ((q_rows, q), (kv_rows, k), (kv_rows, v))]
    assert np.array_equal(out.data, unfused_attention(*blocks, 2, mask)[q_live])


def test_rows_scatter_and_gather():
    live = np.array([[1, 1, 0], [1, 0, 0]], dtype=bool)
    rows = ag.Rows.where(live)
    x = np.arange(6.0).reshape(3, 2)
    block = rows.scatter(x)
    assert block.shape == (2, 3, 2) and rows.count == 3
    assert np.array_equal(block[live], x) and not block[~live].any()
    assert np.array_equal(rows.gather(block), x)
    full, y = ag.Rows.where(np.ones((2, 3), dtype=bool)), np.ones((6, 2))
    assert full.index is None  # every position has a row: both ways are views
    assert np.shares_memory(full.scatter(y), y)
    assert np.shares_memory(full.gather(full.scatter(y)), y)

def test_layer_norm_constant_vector():
    out = ag.layer_norm(ag.Tensor([3.0, 3.0, 3.0]), ag.Tensor(np.ones(3)),
                        ag.Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_analytic():
    out = ag.layer_norm(ag.Tensor([1.0, -1.0]), ag.Tensor(np.ones(2)),
                        ag.Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-6)
    out = ag.layer_norm(ag.Tensor([2.0, 4.0]), ag.Tensor([3.0, 3.0]),
                        ag.Tensor([1.0, 1.0]), eps=1e-12)
    assert np.allclose(out.data, [-2.0, 4.0], atol=1e-6)


def test_layer_norm_shape_check():
    with pytest.raises(ShapeError):
        ag.layer_norm(ag.Tensor([1.0, 2.0]), ag.Tensor(np.ones(3)), ag.Tensor(np.zeros(3)))


def test_cross_entropy_uniform_is_log_vocab():
    logits = ag.Tensor(np.zeros((6, 7)))
    targets = np.array([1, 2, 3, 4, 5, 6])
    loss = ag.cross_entropy(logits, targets)
    assert abs(float(loss.data) - math.log(7)) < 1e-12


def test_cross_entropy_confident_limit():
    logits = np.full((1, 4), -200.0)
    logits[0, 2] = 200.0
    loss = ag.cross_entropy(ag.Tensor(logits), np.array([2]))
    assert float(loss.data) < 1e-12


def test_cross_entropy_two_class_hand_value():
    logits = ag.Tensor(np.array([[0.0, math.log(3.0)]]))
    loss = ag.cross_entropy(logits, np.array([1]))
    # softmax = [1/4, 3/4]; -ln(3/4)
    assert abs(float(loss.data) - (-math.log(0.75))) < 1e-12
    assert abs(float(loss.data) - 0.2876820724517809) < 1e-12


def test_cross_entropy_shape_mismatch_and_empty_targets_are_errors():
    cases = [((2, 3, 4), [[1, 2, 3], [1, 2, 3]]),  # grid-shaped logits
             ((3, 4), [1, 2]),                      # fewer targets than rows
             ((3, 4), [[1], [2], [3]]),             # targets not a vector
             ((0, 4), []),                          # no targets
             ((2, 4), [1, 4]),                      # id past the vocab
             ((2, 4), [-1, 0])]                     # negative id
    for shape, targets in cases:
        with pytest.raises(ShapeError):
            ag.cross_entropy(ag.Tensor(np.zeros(shape)), np.array(targets, dtype=np.int64))


def test_check_finite_names_the_first_non_finite_op():
    # the ops do not check their outputs; check_finite walks the tape from the
    # root and names the first op, in topo_order, whose output is not finite
    x = ag.Tensor([1e308, 1.0], requires_grad=True, name="x")
    with np.errstate(over="ignore"):
        big = ag.add(x, x)  # overflows to [inf, 2], and relu keeps the inf
    loss = sum_all(mul(ag.relu(big), ag.Tensor([2.0, 1.0])))
    assert (big.op, loss.op, x.op) == ("add", "sum_all", None)
    with pytest.raises(NumericsError, match="produced by add$"):
        ag.check_finite(loss)
    # the caveat: a -inf that relu maps to 0 is not reported
    with np.errstate(over="ignore"):
        ag.check_finite(sum_all(ag.relu(ag.add(ag.Tensor([-1e308]), ag.Tensor([-1e308])))))


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_sum_is_ones():
    x = ag.Tensor(rng().normal(size=(3, 4)), requires_grad=True, name="x")
    grads = ag.backward(sum_all(x))
    assert np.array_equal(grads["x"], np.ones((3, 4)))


def test_backward_half_square_is_x():
    x = ag.Tensor(rng().normal(size=(5,)), requires_grad=True, name="x")
    loss = mul(sum_all(mul(x, x)), ag.Tensor(0.5))
    grads = ag.backward(loss)
    assert np.allclose(grads["x"], x.data, atol=1e-12)


def test_backward_requires_scalar():
    x = ag.Tensor(np.ones((2, 2)), requires_grad=True, name="x")
    with pytest.raises(ShapeError):
        ag.backward(mul(x, x))


def test_backward_does_not_accumulate_across_calls():
    x = ag.Tensor(np.ones(3), requires_grad=True, name="x")
    for _ in range(2):
        grads = ag.backward(sum_all(x))
    assert np.array_equal(grads["x"], np.ones(3))


def test_tape_is_freed_without_the_cycle_collector():
    w = ag.Tensor(np.ones((3, 2)), requires_grad=True, name="w")
    gc.collect()
    gc.disable()
    try:
        x = ag.Tensor(np.ones((4, 3)))
        loss = sum_all(ag.relu(ag.linear(x, w)))
        ag.backward(loss)
        del loss
        assert gc.collect() == 0  # nothing on the tape was cyclic garbage
    finally:
        gc.enable()


def test_backward_frees_each_activation_as_it_walks_and_consumes_the_tape():
    cfg = mini_config()
    store, _ = build_model(cfg, seed=5)
    src = np.array([[5, 6, 7, 0], [8, 9, 0, 0]])
    tgt_in = np.array([[BOS_ID, 5, 6], [BOS_ID, 8, PAD_ID]])
    loss = ag.cross_entropy(forward(store, cfg, src, tgt_in, DropCtx(0.2, ag.derived_rng(9, 3))),
                            np.array([6, 7, 2, 9, 2]))
    ops = [node for node in ag.topo_order(loss) if node.op is not None]
    assert len(ops) == 84
    values = [weakref.ref(node.data) for node in ops[:-1]]  # every activation but the loss
    rule, alive = ops[0]._backward, []
    # the walk runs the first op's rule last: by then only that op's value is left
    ops[0]._backward = lambda g: (alive.append(sum(ref() is not None for ref in values)),
                                  rule(g))[1]
    del ops
    gc.disable()
    try:
        grads = ag.backward(loss)
        assert alive == [1]
        assert [ref for ref in values if ref() is not None] == []
    finally:
        gc.enable()
    assert sorted(grads) == sorted(name for name, _ in store.items())
    with pytest.raises(DossError, match="consumed by an earlier backward"):
        ag.backward(loss)
    with pytest.raises(DossError, match="consumed by an earlier backward"):
        ag.backward(sum_all(mul(loss, loss)))  # a new loss on a consumed node


def test_topo_order_visits_each_node_once():
    x = ag.Tensor(np.ones(2), requires_grad=True, name="x")
    y = mul(x, x)
    z = ag.add(y, y)  # diamond: y feeds z twice
    loss = sum_all(z)
    order = ag.topo_order(loss)
    assert len(order) == len({id(n) for n in order})
    grads = ag.backward(loss)
    assert np.allclose(grads["x"], 4.0 * x.data)


def test_backward_returns_named_leaves_in_topo_order():
    # clip_by_global_norm sums the norms in this order, so it is part of the
    # numerics of every training step
    r = rng()
    w = ag.Tensor(r.normal(size=(3, 2)), requires_grad=True, name="w")
    b = ag.Tensor(r.normal(size=(2,)), requires_grad=True, name="b")
    g = ag.Tensor(np.ones(2), requires_grad=True, name="g")
    x = ag.Tensor(r.normal(size=(4, 3)), name="x")  # named, but no gradient
    unnamed = ag.Tensor(np.ones(2), requires_grad=True)
    h = ag.layer_norm(ag.linear(x, w, b), g, unnamed)
    loss = sum_all(mul(ag.relu(h), h))
    expect = [n.name for n in ag.topo_order(loss)
              if n._backward is None and n.requires_grad and n.name is not None]
    assert sorted(expect) == ["b", "g", "w"]
    assert list(ag.backward(loss)) == expect


def test_forward_backward_deterministic():
    r = rng()
    a = r.normal(size=(4, 3))
    b = r.normal(size=(3, 2))

    def run():
        ta = ag.Tensor(a.copy(), requires_grad=True, name="a")
        tb = ag.Tensor(b.copy(), requires_grad=True, name="b")
        out = ag.linear(ag.relu(ta), tb)
        loss = ag.cross_entropy(out, np.array([1, 0, 1, 0]))
        return ag.backward(loss), loss.data.copy()

    (g1, l1), (g2, l2) = run(), run()
    assert np.array_equal(l1, l2)
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


# ---------------------------------------------------------------------------
# finite-difference gradient checks (criterion: rel err <= 1e-4 at h=1e-5)
# ---------------------------------------------------------------------------


def _away_from_kinks(a, margin=0.05):
    a = a.copy()
    a[np.abs(a) < margin] += 2 * margin
    return a


def test_add_requires_equal_shapes():
    with pytest.raises(ShapeError):
        ag.add(ag.Tensor(np.ones((3, 4))), ag.Tensor(np.ones(4)))


def test_gradcheck_mul_broadcast():
    # add, then the tests' broadcasting product: its gradient sums back down
    r = rng()
    check_grads(lambda t: sum_all(mul(ag.add(t[0], t[1]), t[2])),
                [r.uniform(-2, 2, (3, 4)), r.uniform(-2, 2, (3, 4)),
                 r.uniform(-2, 2, (4,))])


def test_gradcheck_matmul():
    # the product alone, then with a bias
    r = rng()
    check_grads(lambda t: sum_all(mul(ag.linear(t[0], t[1]), t[2])),
                [r.uniform(-2, 2, (6, 4)), r.uniform(-2, 2, (4, 3)),
                 r.uniform(-2, 2, (6, 3))])
    check_grads(lambda t: sum_all(mul(ag.linear(t[0], t[1], t[2]), t[3])),
                [r.uniform(-2, 2, (6, 4)), r.uniform(-2, 2, (4, 3)),
                 r.uniform(-2, 2, (3,)), r.uniform(-2, 2, (6, 3))])


@pytest.mark.parametrize("masked", [False, True])
def test_gradcheck_self_attention(masked):
    # one input feeds q, k and v: its three gradients are summed; masked, the
    # second sequence has a pad position, which gets no row
    r = rng()
    if masked:
        live = np.array([[1, 1, 1], [1, 1, 0]], dtype=bool)
        rows, mask = ag.Rows.where(live), np.where(live, 0.0, -1e30)[:, None, None, :]
    else:
        rows, mask = ag.Rows(2, 3), None
    n = rows.count
    check_grads(lambda t: sum_all(mul(ag.attention(t[0], t[0], t[0], 2, mask, rows, rows), t[1])),
                [r.uniform(-2, 2, (n, 4)), r.uniform(-2, 2, (n, 4))])


@pytest.mark.parametrize("masked", [False, True])
def test_gradcheck_cross_attention(masked):
    r = rng()
    q_rows = ag.Rows(2, 2)
    if masked:
        live = np.array([[0, 1, 1], [1, 1, 1]], dtype=bool)  # key 0 of row 0: no row
        kv_rows, mask = ag.Rows.where(live), hide_key(2, 3, 0) * ~live[:, None, None, :]
    else:
        kv_rows, mask = ag.Rows(2, 3), None
    n = kv_rows.count
    check_grads(lambda t: sum_all(mul(ag.attention(t[0], t[1], t[2], 2, mask, q_rows, kv_rows),
                                      t[3])),
                [r.uniform(-2, 2, (4, 4)), r.uniform(-2, 2, (n, 4)),
                 r.uniform(-2, 2, (n, 4)), r.uniform(-2, 2, (4, 4))])


def test_gradcheck_relu():
    r = rng()
    x = _away_from_kinks(r.uniform(-2, 2, (3, 5)))
    check_grads(lambda t: sum_all(mul(ag.relu(t[0]), t[1])),
                [x, r.uniform(-2, 2, (3, 5))])


def test_gradcheck_layer_norm():
    r = rng()
    check_grads(lambda t: sum_all(mul(ag.layer_norm(t[0], t[1], t[2]), t[3])),
                [r.uniform(-2, 2, (3, 6)), r.uniform(0.5, 2, (6,)),
                 r.uniform(-1, 1, (6,)), r.uniform(-2, 2, (3, 6))])


def test_layer_norm_backward_matches_long_form():
    # a desk-shaped batch (36 rows of 7 positions, d_model 64) far from zero
    r = rng()
    x = r.normal(size=(36, 7, 64)) + 1e3
    gain, bias = r.uniform(0.5, 2, (64,)), r.uniform(-1, 1, (64,))
    up = r.normal(size=x.shape)
    t = ag.Tensor(x, requires_grad=True, name="x")
    grads = ag.backward(sum_all(mul(ag.layer_norm(t, ag.Tensor(gain), ag.Tensor(bias)),
                                    ag.Tensor(up))))
    expect = layer_norm_backward_long_form(x, gain, up)
    assert np.abs(grads["x"] - expect).max() <= 1e-10 * np.abs(expect).max()


def test_linear_backward_matches_3d_products():
    # a desk-shaped batch as 252 token rows, against numpy's 3-D products
    r = rng()
    x, w, b = r.normal(size=(36, 7, 64)), r.normal(size=(64, 64)), r.normal(size=(64,))
    up = r.normal(size=(36, 7, 64))
    ts = [ag.Tensor(a, requires_grad=True, name=n)
          for a, n in ((x.reshape(-1, 64), "x"), (w, "w"), (b, "b"))]
    out = ag.linear(*ts)
    np.testing.assert_allclose(out.data, (x @ w + b).reshape(-1, 64), rtol=0, atol=1e-12)
    grads = ag.backward(sum_all(mul(out, ag.Tensor(up.reshape(-1, 64)))))
    np.testing.assert_allclose(grads["x"], (up @ w.T).reshape(-1, 64), rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads["w"], np.einsum("bsk,bsn->kn", x, up), rtol=0, atol=1e-10)
    np.testing.assert_allclose(grads["b"], up.sum(axis=(0, 1)), rtol=0, atol=1e-12)


def test_gradcheck_embedding():
    r = rng()
    ids = np.array([[0, 2, 1], [3, 3, 0]])
    offset = r.uniform(-1, 1, (1, 3, 5))
    check_grads(lambda t: sum_all(mul(ag.embedding(t[0], ids, 1.7, offset), t[1])),
                [r.uniform(-2, 2, (4, 5)), r.uniform(-2, 2, (2, 3, 5))])


def test_gradcheck_cross_entropy():
    r = rng()
    targets = np.array([1, 4, 0, 2, 0, 0])
    check_grads(lambda t: ag.cross_entropy(t[0], targets),
                [r.uniform(-2, 2, (6, 5))])


def test_gradcheck_dropout_fixed_mask():
    r = rng()
    # the same derived rng per call makes dropout a fixed linear map
    check_grads(lambda t: sum_all(ag.dropout(t[0], 0.4, ag.derived_rng(7, 0, "gc"))),
                [r.uniform(-2, 2, (4, 4))])


# ---------------------------------------------------------------------------
# seeded rng derivation
# ---------------------------------------------------------------------------


def test_derive_seed_stable_and_distinct():
    assert ag.derive_seed(1, "x") == ag.derive_seed(1, "x")
    assert ag.derive_seed(1, "x") != ag.derive_seed(2, "x")
    assert ag.derive_seed(1, "x") != ag.derive_seed(1, "y")


def test_dropout_zero_rate_is_identity():
    x = ag.Tensor(np.ones(4))
    assert ag.dropout(x, 0.0, ag.derived_rng(1)) is x
    with pytest.raises(ShapeError):
        ag.dropout(x, 1.0, ag.derived_rng(1))
