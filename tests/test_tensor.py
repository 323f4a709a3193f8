"""Numeric engine tests: hand oracles plus central-difference gradient checks."""

import numpy as np
import pytest

from mcvv import tensor as T
from mcvv.tensor import Tensor


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# -- matmul ---------------------------------------------------------------------


def test_matmul_identity():
    b = t64([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    eye = t64(np.eye(3))
    out = T.matmul(eye, b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_hand():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    b = t64([[1.0], [1.0]])
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_grad_is_ones_times_bt():
    rng = np.random.default_rng(0)
    a = t64(rng.standard_normal((3, 4)), requires_grad=True)
    b = t64(rng.standard_normal((4, 5)))
    loss = T.tsum(T.matmul(a, b))
    T.backward(loss)
    expected = np.ones((3, 5)) @ b.data.T
    np.testing.assert_allclose(a.grad, expected, rtol=1e-12)


def test_matmul_constant_operand_gets_no_gradient():
    # embed's shape: a constant [B, N, k] cube array times a [k, d] parameter
    rng = np.random.default_rng(3)
    a = t64(rng.standard_normal((2, 3, 4)))
    b = t64(rng.standard_normal((4, 5)), requires_grad=True)
    out = T.matmul(a, b)
    ga, gb = out._grad_fn(np.ones(out.shape))
    assert ga is None
    T.backward(T.tsum(out))
    expected = sum(a.data[i].T @ np.ones((3, 5)) for i in range(2))
    np.testing.assert_allclose(gb, expected, rtol=1e-12)
    np.testing.assert_allclose(b.grad, expected, rtol=1e-12)
    assert a.grad is None


def test_matmul_grad_vs_central_differences():
    rng = np.random.default_rng(1)
    a = t64(rng.standard_normal((3, 4)), requires_grad=True)
    b = t64(rng.standard_normal((4, 2)), requires_grad=True)

    def f(params):
        return T.tsum(T.power(T.matmul(params[0], params[1]), 2.0))

    assert T.gradcheck(f, [a, b]) < 1e-6


def test_matmul_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))


def test_matmul_batched_against_loop():
    rng = np.random.default_rng(2)
    a = t64(rng.standard_normal((5, 3, 4)), requires_grad=True)
    b = t64(rng.standard_normal((4, 2)), requires_grad=True)
    out = T.matmul(a, b)
    for i in range(5):
        np.testing.assert_allclose(out.data[i], a.data[i] @ b.data, rtol=1e-12)

    def f(params):
        return T.tsum(T.power(T.matmul(params[0], params[1]), 2.0))

    assert T.gradcheck(f, [a, b]) < 1e-6


# -- softmax ----------------------------------------------------------------------


def test_softmax_uniform():
    out = T.softmax(t64([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = T.softmax(t64([1000.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    x = t64(rng.standard_normal((7, 9)) * 10)
    out = T.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(7), atol=1e-12)
    assert (out.data > 0).all()


def test_softmax_grad_vs_central_differences():
    rng = np.random.default_rng(4)
    x = t64(rng.standard_normal((4, 5)), requires_grad=True)
    w = rng.standard_normal((4, 5))

    def f(params):
        return T.tsum(T.mul(T.softmax(params[0], axis=-1), Tensor(w)))

    assert T.gradcheck(f, [x]) < 1e-6


# -- layer_norm --------------------------------------------------------------------


def test_layer_norm_constant_slice_is_zero():
    x = t64(np.full((3, 8), 2.5))
    gain = t64(np.ones(8))
    bias = t64(np.zeros(8))
    out = T.layer_norm(x, gain, bias)
    np.testing.assert_allclose(out.data, np.zeros((3, 8)), atol=1e-12)


def test_layer_norm_two_point():
    out = T.layer_norm(t64([1.0, 3.0]), t64(np.ones(2)), t64(np.zeros(2)), eps=1e-20)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-9)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(5)
    x = t64(rng.standard_normal((6, 16)) * 3 + 1)
    out = T.layer_norm(x, t64(np.ones(16)), t64(np.zeros(16)), eps=1e-12)
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-10
    assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-6


def test_layer_norm_grad_vs_central_differences():
    rng = np.random.default_rng(6)
    x = t64(rng.standard_normal((3, 6)), requires_grad=True)
    gain = t64(rng.standard_normal(6), requires_grad=True)
    bias = t64(rng.standard_normal(6), requires_grad=True)
    w = rng.standard_normal((3, 6))

    def f(params):
        return T.tsum(T.mul(T.layer_norm(params[0], params[1], params[2]), Tensor(w)))

    assert T.gradcheck(f, [x, gain, bias]) < 1e-6


# -- misc ops ------------------------------------------------------------------------


def test_gelu_zero():
    assert T.gelu(t64([0.0])).data[0] == 0.0


def test_gelu_limits():
    out = T.gelu(t64([10.0, -10.0]))
    np.testing.assert_allclose(out.data, [10.0, 0.0], atol=1e-12)


def test_linear_identity():
    x = t64([[1.0, 2.0, 3.0]])
    out = T.linear(x, t64(np.eye(3)), t64(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_concat_four_vectors():
    parts = [t64(np.full(8, float(i))) for i in range(4)]
    out = T.concat(parts, axis=0)
    assert out.shape == (32,)
    np.testing.assert_array_equal(out.data[8:16], np.ones(8))


def test_concat_extent_mismatch():
    with pytest.raises(T.ShapeError):
        T.concat([t64(np.zeros((2, 3))), t64(np.zeros((2, 4)))], axis=0)


def test_no_inner_broadcast():
    with pytest.raises(T.ShapeError):
        T.add(t64(np.zeros((4, 1))), t64(np.zeros((4, 5))))


def test_leading_broadcast_bias():
    x = t64(np.ones((3, 4)), requires_grad=True)
    b = t64(np.arange(4.0), requires_grad=True)
    out = T.add(x, b)
    T.backward(T.tsum(out))
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))


def test_dtype_mismatch_rejected():
    a = Tensor(np.zeros(3, dtype=np.float32))
    b = Tensor(np.zeros(3, dtype=np.float64))
    with pytest.raises(TypeError):
        T.add(a, b)


def test_repeat_and_grad():
    x = t64(np.array([[1.0], [2.0]]), requires_grad=True)
    out = T.repeat(x, 3, axis=1)
    assert out.shape == (2, 3)
    T.backward(T.tsum(T.mul(out, out)))
    np.testing.assert_allclose(x.grad, [[6.0], [12.0]])


def test_nonfinite_raises_with_op_name():
    with pytest.raises(T.NonFiniteError, match="log"):
        T.log(t64([-1.0]))


def test_nonfinite_on_construction():
    with pytest.raises(T.NonFiniteError):
        Tensor(np.array([np.nan]))


# -- backward ---------------------------------------------------------------------------


def test_backward_sum_of_squares():
    x = t64([1.0, 2.0, 3.0], requires_grad=True)
    loss = T.tsum(T.power(x, 2.0))
    T.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_fanout_accumulates():
    x = t64([5.0], requires_grad=True)
    y = T.add(x, x)
    T.backward(T.tsum(y))
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_rejects_non_scalar():
    x = t64([1.0, 2.0], requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.backward(x)


def test_backward_visits_shared_subgraph_once():
    x = t64([2.0], requires_grad=True)
    y = T.mul(x, 3.0)
    loss = T.tsum(T.mul(y, y))
    T.backward(loss)
    # d/dx (3x)^2 = 18x = 36
    np.testing.assert_allclose(x.grad, [36.0])


# -- gradcheck ----------------------------------------------------------------------------


def test_gradcheck_quadratic_near_exact():
    x = t64([1.0, -2.0, 3.0], requires_grad=True)

    def f(params):
        return T.tsum(T.power(params[0], 2.0))

    assert T.gradcheck(f, [x]) < 1e-9


def _random_mlp(seed):
    rng = np.random.default_rng(seed)
    w1 = t64(rng.standard_normal((6, 8)) * 0.5, requires_grad=True)
    b1 = t64(rng.standard_normal(8) * 0.1, requires_grad=True)
    w2 = t64(rng.standard_normal((8, 3)) * 0.5, requires_grad=True)
    b2 = t64(rng.standard_normal(3) * 0.1, requires_grad=True)
    x = Tensor(rng.standard_normal((4, 6)))

    def f(params):
        h = T.gelu(T.linear(x, params[0], params[1]))
        out = T.softmax(T.linear(h, params[2], params[3]), axis=-1)
        return T.tsum(T.mul(out, out))

    return f, [w1, b1, w2, b2]


def test_gradcheck_random_mlp():
    f, params = _random_mlp(7)
    assert T.gradcheck(f, params) < 1e-6


LADDER = (5e-4, 5e-5, 5e-6)


def test_gradcheck_ladder_never_worse_than_one_step():
    f, params = _random_mlp(12)
    ladder = T.gradcheck(f, params, steps=LADDER)
    for step in LADDER:
        assert ladder <= T.gradcheck(f, params, steps=(step,))


def test_gradcheck_ladder_flags_wrong_gradient():
    rng = np.random.default_rng(13)
    x = t64(rng.standard_normal(5), requires_grad=True)
    w = rng.standard_normal(5)

    def doubled_identity(a):
        # value a, but a backward that claims twice the true gradient
        return Tensor._from_op(a.data.copy(), (a,), lambda g: (2.0 * g,), "doubled")

    def f(params):
        return T.tsum(T.mul(doubled_identity(params[0]), Tensor(w)))

    assert T.gradcheck(f, [x], steps=LADDER) > 1e-2


def test_determinism_bitwise():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 5))

    def run():
        a = t64(x, requires_grad=True)
        loss = T.tsum(T.power(T.softmax(T.matmul(a, a), axis=-1), 3.0))
        T.backward(loss)
        return loss.data.copy(), a.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


# -- gradient property sweep: >= 100 random shapes/seeds across all ops ------------------


def _case_unary(name, fn, seed, positive=False, away_from_zero=False):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
    vals = rng.standard_normal(shape)
    if positive:
        vals = np.abs(vals) + 0.5
    if away_from_zero:
        vals = np.sign(vals) * (np.abs(vals) + 0.3)
    x = t64(vals, requires_grad=True)
    w = rng.standard_normal(fn(x).shape)

    def f(params):
        return T.tsum(T.mul(fn(params[0]), Tensor(w)))

    return f, [x]


UNARY_OPS = [
    ("neg", T.neg, {}),
    ("log", T.log, {"positive": True}),
    ("abs", T.tabs, {"away_from_zero": True}),
    ("gelu", T.gelu, {}),
    ("softmax", lambda t: T.softmax(t, axis=-1), {}),
    ("power", lambda t: T.power(t, 3.0), {"away_from_zero": True}),
    ("mean", lambda t: T.tmean(t, axis=0, keepdims=True), {}),
    ("sum_axis", lambda t: T.tsum(t, axis=-1, keepdims=True), {}),
]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name,fn,opts", UNARY_OPS, ids=[o[0] for o in UNARY_OPS])
def test_unary_gradients_random(name, fn, opts, seed):
    f, params = _case_unary(name, fn, seed * 31 + 7, **opts)
    assert T.gradcheck(f, params) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_binary_gradients_random(seed):
    rng = np.random.default_rng(seed * 17 + 3)
    shape = tuple(rng.integers(1, 5, size=2))
    a = t64(rng.standard_normal(shape), requires_grad=True)
    b = t64(np.sign(rng.standard_normal(shape)) * (np.abs(rng.standard_normal(shape)) + 0.5),
            requires_grad=True)
    w = rng.standard_normal(shape)

    ops = [T.add, T.sub, T.mul]
    op = ops[seed % len(ops)]

    def f(params):
        return T.tsum(T.mul(op(params[0], params[1]), Tensor(w)))

    assert T.gradcheck(f, [a, b]) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_structural_gradients_random(seed):
    rng = np.random.default_rng(seed * 13 + 11)
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    a = t64(rng.standard_normal((n, m)), requires_grad=True)
    b = t64(rng.standard_normal((n, m)), requires_grad=True)

    def f(params):
        cat = T.concat([params[0], params[1]], axis=0)
        sliced = cat[1:, :]
        back = T.transpose(T.reshape(sliced, (m, 2 * n - 1)))
        return T.tsum(T.power(back, 2.0))

    assert T.gradcheck(f, [a, b]) < 1e-6
