"""Numeric engine tests: hand oracles plus central-difference gradient checks."""

import hashlib
import math
import weakref

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


def test_matmul_needs_equal_batch_axes():
    # a product with a weight is a linear; matmul does not broadcast
    with pytest.raises(T.ShapeError, match="batch axes differ"):
        T.matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((4, 5))))


# -- linear ---------------------------------------------------------------------

LINEAR_SHAPES = [(3, 4), (2, 3, 4), (2, 2, 3, 4)]


def _linear_operands(shape, dtype, bias, requires_grad=False, seed=6):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=requires_grad)
    w = Tensor(rng.standard_normal((shape[-1], 5)).astype(dtype), requires_grad=requires_grad)
    b = Tensor(rng.standard_normal(5).astype(dtype), requires_grad=requires_grad) if bias else None
    return x, w, b


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("shape", LINEAR_SHAPES)
def test_linear_matches_numpy(shape, bias):
    for dtype in (np.float64, np.float32):
        x, w, b = _linear_operands(shape, dtype, bias)
        expected = np.matmul(x.data, w.data)
        if bias:
            expected = expected + b.data
        out = T.linear(x, w, b)
        assert out.shape == shape[:-1] + (5,) and out.dtype == dtype
        if dtype == np.float64:
            np.testing.assert_array_equal(out.data, expected)
        else:
            np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("shape", LINEAR_SHAPES)
def test_linear_grad_vs_central_differences(shape, bias):
    x, w, b = _linear_operands(shape, np.float64, bias, requires_grad=True)
    params = [x, w] + ([b] if bias else [])

    def f(ps):
        return T.tsum(T.power(T.linear(*ps), 2.0))

    assert T.gradcheck(f, params) < 1e-6


def test_linear_with_a_bias_records_one_graph_node():
    x, w, b = _linear_operands((2, 3, 4), np.float64, True, requires_grad=True)
    out = T.linear(x, w, b)
    assert out._op == "linear" and out._parents == (x, w, b)
    assert all(p._grad_fn is None for p in out._parents)


def test_linear_rejects_mismatched_operands():
    x, w, b = _linear_operands((2, 3, 4), np.float64, True)
    with pytest.raises(T.ShapeError):
        T.linear(x, t64(np.zeros((5, 4))))
    with pytest.raises(T.ShapeError):
        T.linear(x, t64(np.zeros((2, 4, 5))))
    with pytest.raises(T.ShapeError, match="bias"):
        T.linear(x, w, t64(np.zeros((1, 5))))
    with pytest.raises(TypeError):
        T.linear(x, Tensor(w.data.astype(np.float32)))


def test_linear_constant_operand_gets_no_gradient():
    # embed's shape: a constant [B, N, k] cube array times a [k, d] parameter
    rng = np.random.default_rng(3)
    a = t64(rng.standard_normal((2, 3, 4)))
    b = t64(rng.standard_normal((4, 5)), requires_grad=True)
    out = T.linear(a, b)
    ga, gb = out._grad_fn(np.ones(out.shape))
    assert ga is None
    T.backward(T.tsum(out))
    expected = sum(a.data[i].T @ np.ones((3, 5)) for i in range(2))
    np.testing.assert_allclose(gb, expected, rtol=1e-12)
    np.testing.assert_allclose(b.grad, expected, rtol=1e-12)
    assert a.grad is None


def test_linear_batched_against_loop():
    rng = np.random.default_rng(2)
    a = t64(rng.standard_normal((5, 3, 4)), requires_grad=True)
    b = t64(rng.standard_normal((4, 2)), requires_grad=True)
    out = T.linear(a, b)
    for i in range(5):
        np.testing.assert_allclose(out.data[i], a.data[i] @ b.data, rtol=1e-12)

    def f(params):
        return T.tsum(T.power(T.linear(params[0], params[1]), 2.0))

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


ERF_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64],
                                     ids=["float32", "float64"])
ERF_TOLERANCE = {np.float32: 5e-7, np.float64: 0.0}   # float64 is math.erf itself


@ERF_DTYPES
def test_erf_matches_math_erf(dtype):
    x = np.linspace(-6.0, 6.0, 120_001).astype(dtype)
    exact = np.array([math.erf(v) for v in x.tolist()])
    out = T.erf(x)
    assert out.dtype == dtype
    assert np.abs(out - exact).max() <= ERF_TOLERANCE[dtype]


@ERF_DTYPES
def test_erf_is_odd_and_zero_at_zero(dtype):
    x = np.random.default_rng(0).uniform(-6.0, 6.0, 10_000).astype(dtype)
    np.testing.assert_array_equal(T.erf(-x), -T.erf(x))
    zero = T.erf(np.array([0.0, -0.0], dtype))
    assert zero.dtype == dtype
    np.testing.assert_array_equal(zero, [0.0, 0.0])


@ERF_DTYPES
def test_erf_extremes_raise_no_floating_point_error(dtype):
    # Underflow stays ignored, as numpy's default: squaring a subnormal underflows.
    info = np.finfo(dtype)
    big = {np.float32: 3.4e38, np.float64: 1e300}[dtype]
    huge = np.array([big, -big, info.max, -info.max, np.inf, -np.inf], dtype)
    tiny = np.array([info.smallest_subnormal, -info.smallest_subnormal, 3 * info.smallest_subnormal,
                     info.tiny / 1024, -info.tiny / 2, info.tiny], dtype)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out_huge, out_tiny = T.erf(huge), T.erf(tiny)
    assert out_huge.dtype == out_tiny.dtype == dtype
    np.testing.assert_array_equal(out_huge, np.sign(huge))
    slope = tiny.astype(np.float64) * (2.0 / math.sqrt(math.pi))   # erf(x) ~ x * 2/sqrt(pi)
    np.testing.assert_allclose(out_tiny, slope, rtol=2 * info.eps, atol=info.smallest_subnormal)


def test_erf_of_a_0d_float64_is_a_0d_float64_array():
    out = T.erf(np.array(0.5))
    assert isinstance(out, np.ndarray) and out.shape == () and out.dtype == np.float64
    assert out == math.erf(0.5)


def test_erf_float32_output_is_pinned():
    # the training dtype: same-seed reports depend on every bit of it
    x = np.linspace(-6.0, 6.0, 120_001).astype(np.float32)
    assert (hashlib.sha256(T.erf(x).tobytes()).hexdigest()
            == "cd43b2654ae0b4885155a927c063daa0eaeaf3e4c6c4811a1755d736d9efe8e7")


def test_erf_rejects_other_dtypes():
    with pytest.raises(TypeError, match="float16"):
        T.erf(np.zeros(3, np.float16))


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


def test_contiguous_copies_a_view_row_major_and_passes_its_gradient():
    x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
    view = T.transpose(x)
    out = T.contiguous(view)
    assert not view.data.flags.c_contiguous and out.data.flags.c_contiguous
    np.testing.assert_array_equal(out.data, view.data)
    w = np.arange(6.0).reshape(3, 2)
    T.backward(T.tsum(T.mul(out, t64(w))))
    np.testing.assert_array_equal(x.grad, w.T)


def test_nonfinite_raises_with_op_name():
    with pytest.raises(T.NonFiniteError, match="log"):
        T.log(t64([-1.0]))


def test_softmax_hides_a_fault_that_the_producing_op_names():
    # one score overflows to -inf, which softmax turns into a finite 0 weight:
    # only matmul's own check sees it
    q = Tensor(np.array([[1e20]], dtype=np.float32))
    k = Tensor(np.array([[-1e20, 1.0]], dtype=np.float32))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isneginf((q.data @ k.data)[0, 0])
        with pytest.raises(T.NonFiniteError, match=r"^non-finite values produced by 'matmul'$"):
            T.softmax(T.matmul(q, k))


def test_inverse_square_root_hides_a_fault_that_the_producing_op_names():
    # x * x overflows to inf, and its sum's inverse square root is a finite 0,
    # as in loss.correlation_matrix: only mul's own check sees it
    x = Tensor(np.full(3, 1e20, dtype=np.float32))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.float32(np.inf) ** -0.5 == 0.0
        with pytest.raises(T.NonFiniteError, match=r"^non-finite values produced by 'mul'$"):
            T.power(T.tsum(T.mul(x, x)), -0.5)


def test_gradcheck_is_inf_where_the_backward_overflows():
    # repeat's forward only copies, but its backward sums: three float32
    # gradients of 3e38 overflow to inf, which backward passes on unchecked
    x = Tensor(np.full((1, 2), 1e-38, dtype=np.float32), requires_grad=True)
    scale = Tensor(np.full((3, 2), 3e38, dtype=np.float32))

    def f(params):
        return T.tsum(T.mul(T.repeat(params[0], 3, axis=0), scale))

    with np.errstate(over="ignore", invalid="ignore"):
        assert T.gradcheck(f, [x]) == math.inf
    assert np.isposinf(x.grad).all()


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
    # a leaf keeps accumulating across separate graphs, each one consumed
    T.backward(T.tsum(T.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [12.0])


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


def test_backward_consumes_the_graph():
    x = t64([1.0, 2.0], requires_grad=True)
    hidden = T.mul(x, 3.0)
    loss = T.tsum(T.power(hidden, 2.0))
    ref = weakref.ref(hidden)
    del hidden
    T.backward(loss)
    assert ref() is None   # freed although the loss is alive
    assert loss._parents == () and loss._grad_fn is None
    np.testing.assert_array_equal(loss.grad, 1.0)   # the loss keeps its gradient
    np.testing.assert_allclose(x.grad, [18.0, 36.0])


def test_backward_through_a_consumed_graph_names_the_op():
    x = t64([1.0, 2.0], requires_grad=True)
    hidden = T.mul(x, x)
    loss = T.tsum(hidden)
    T.backward(loss)
    with pytest.raises(RuntimeError, match=r"^backward through 'sum': an earlier backward "
                                           r"consumed its graph$"):
        T.backward(loss)
    # a new loss on a consumed interior node fails the same way
    with pytest.raises(RuntimeError, match=r"'mul'"):
        T.backward(T.tsum(T.neg(hidden)))


# -- no_grad ------------------------------------------------------------------------------


def test_no_grad_records_nothing():
    x = t64([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = T.tsum(T.mul(x, x))
    assert not y.requires_grad and y._parents == () and y._grad_fn is None
    assert y.item() == 5.0


def test_no_grad_mode_is_restored_after_the_block():
    x = t64([1.0], requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            pass
        assert not T.neg(x).requires_grad   # an inner block restores the outer mode
    assert T.neg(x).requires_grad
    with pytest.raises(KeyError):
        with T.no_grad():
            raise KeyError("inside")
    assert T.neg(x)._parents == (x,)


# -- gradcheck ----------------------------------------------------------------------------


def test_gradcheck_quadratic_near_exact():
    x = t64([1.0, -2.0, 3.0], requires_grad=True)

    def f(params):
        return T.tsum(T.power(params[0], 2.0))

    assert T.gradcheck(f, [x]) < 1e-9


def _doubled_identity(a):
    # value a, but a backward that claims twice the true gradient
    return Tensor._from_op(a.data.copy(), (a,), lambda g: (2.0 * g,), "doubled")


def _random_mlp(seed, planted=False):
    """A two-layer MLP loss; ``planted`` doubles the last bias's gradient."""
    rng = np.random.default_rng(seed)
    w1 = t64(rng.standard_normal((6, 8)) * 0.5, requires_grad=True)
    b1 = t64(rng.standard_normal(8) * 0.1, requires_grad=True)
    w2 = t64(rng.standard_normal((8, 3)) * 0.5, requires_grad=True)
    b2 = t64(rng.standard_normal(3) * 0.1, requires_grad=True)
    x = Tensor(rng.standard_normal((4, 6)))

    def f(params):
        h = T.gelu(T.linear(x, params[0], params[1]))
        bias = _doubled_identity(params[3]) if planted else params[3]
        out = T.softmax(T.linear(h, params[2], bias), axis=-1)
        return T.tsum(T.mul(out, out))

    return f, [w1, b1, w2, b2]


def test_gradcheck_random_mlp():
    f, params = _random_mlp(7)
    assert T.gradcheck(f, params) < 1e-6


def test_gradcheck_numeric_side_records_no_graph():
    f, params = _random_mlp(3)
    recorded = []

    def watched(ps):
        out = f(ps)
        recorded.append(out.requires_grad)
        return out

    T.gradcheck(watched, params, steps=(1e-5, 1e-6))
    n = sum(p.size for p in params)
    assert recorded[0] and not any(recorded[1:])
    assert 2 * n <= len(recorded) - 1 <= 4 * n   # one or both steps per coordinate
    assert T.tsum(params[0]).requires_grad   # recording is back on afterwards


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

    def f(params):
        return T.tsum(T.mul(_doubled_identity(params[0]), Tensor(w)))

    assert T.gradcheck(f, [x], steps=LADDER) > 1e-2


def _full_ladder_gradcheck(f, params, steps):
    """T.gradcheck without its early exit: every coordinate at every step."""
    T.zero_grads(params)
    T.backward(f(params))
    worst = []
    with T.no_grad():
        for p in params:
            aflat = p.grad.reshape(-1).copy()
            flat = p.data.reshape(-1)
            errs = np.empty((len(steps), flat.size))
            for i in range(flat.size):
                orig = flat[i]
                ana = float(aflat[i])
                for k, step in enumerate(steps):
                    flat[i] = orig + step
                    f_plus = float(f(params).data)
                    flat[i] = orig - step
                    f_minus = float(f(params).data)
                    flat[i] = orig
                    numeric = (f_plus - f_minus) / (2.0 * step)
                    errs[k, i] = abs(numeric - ana) / max(abs(numeric), abs(ana), 1e-8)
            worst.append(errs.min(axis=0).max())
    return float(max(worst))


@pytest.mark.parametrize("planted", [False, True], ids=["correct", "planted-wrong"])
def test_gradcheck_early_exit_equals_full_ladder(planted):
    f, params = _random_mlp(21, planted=planted)
    calls = []

    def counted(ps):
        calls.append(None)
        return f(ps)

    early = T.gradcheck(counted, params, steps=LADDER)
    full = _full_ladder_gradcheck(f, params, LADDER)
    assert early == full   # the same float, not within a tolerance
    assert (full > 1e-2) == planted
    n = sum(p.size for p in params)
    assert len(calls) - 1 < 2 * len(LADDER) * n   # some ladder steps were skipped


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
