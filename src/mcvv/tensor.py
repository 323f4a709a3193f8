"""Dense tensors with reverse-mode differentiation.

Small numpy-backed engine with one functional op API: every operation is a
module function (``add``, ``matmul``, ``tsum``, ...), and ``Tensor`` carries
no operator or method aliases beyond indexing. Each operation records its
parents and a gradient closure; ``backward`` walks the graph once in reverse
topological order and accumulates gradients additively across fan-out. Two
dtypes are supported, float32 (training) and float64 (verification); binary
operations require matching dtypes. Only the elementwise ops (add, sub, mul)
broadcast, and only over leading axes: the smaller operand must equal the
trailing shape of the larger one. Anything else needs an explicit
reshape/repeat. ``linear`` flattens its input's leading axes into the rows
of one product with the weight; ``matmul`` needs equal batch axes.

A graph lives until one ``backward`` consumes it, as PyTorch's default
``retain_graph=False`` does: once a node's gradient closure has run, the node
drops its gradient, parents and closure, so each layer's activations and
gradients die as soon as the walk has passed them. Leaves keep accumulating
``.grad``, and the loss keeps its own; a second ``backward`` through a
consumed graph raises. Inside ``no_grad()`` operations record nothing, so a
forward that is never differentiated (evaluation) builds no graph at all.

Every operation checks its output for NaN/Inf and raises NonFiniteError
naming the operation instead of letting bad values propagate: a later check
could miss it, as softmax maps a -inf score to a 0 weight. Operations that
only move values (reshape, transpose, contiguous, getitem, concat, repeat,
and the tubelet module's partition) skip the check, which cannot fail on
finite inputs. ``backward`` checks no gradient: a non-finite one reaches
each weight it flows to, and ``train.adam_step`` checks those first.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

_ALLOWED_DTYPES = (np.float32, np.float64)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# Ops whose outputs are finite whenever their inputs are; see the module docstring.
_MOVES_VALUES = frozenset({"reshape", "transpose", "contiguous", "getitem", "concat",
                           "repeat", "partition"})


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by '{op}'")


class _GradMode(threading.local):
    """Whether operations record a graph, per thread; see `no_grad`."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Operations inside the block, on this thread, record no graph: their
    outputs have no parents and do not require gradients. The previous mode
    comes back when the block ends, also when it raises."""
    before = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = before


class Tensor:
    """N-dimensional array participating in a differentiable graph.

    The graph is implicit: non-leaf tensors hold their parents and a
    closure computing parent gradients from the output gradient, until
    `backward` consumes them (see the module docstring); under `no_grad` they
    hold neither. A graph must stay on the thread that built it; the arrays
    themselves are value-semantic and safe to hand across threads.
    """

    # __weakref__ lets a caller watch a graph die without keeping it alive.
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float64)
        _ensure_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable | None = None
        self._op = "leaf"

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 grad_fn: Callable, op: str) -> "Tensor":
        if op not in _MOVES_VALUES:
            _ensure_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._op = op
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._grad_fn = grad_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._grad_fn = None
        return out

    # -- basic properties ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self._op})"

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _check_dtypes(a: Tensor, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
        raise TypeError(f"dtype mismatch in '{op}': {a.dtype} vs {b.dtype}")


def _check_broadcast(sa: tuple, sb: tuple, op: str) -> None:
    """Allow equal shapes, scalars, or the smaller shape as a trailing suffix."""
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if big[len(big) - len(small):] != small:
        raise ShapeError(f"shapes {sa} and {sb} incompatible in '{op}' "
                         "(only leading-axis broadcast is supported)")


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over leading axes broadcast during the forward pass."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad


# -- elementwise arithmetic ----------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "add")
    _check_broadcast(a.shape, b.shape, "add")
    out_data = a.data + b.data

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return Tensor._from_op(out_data, (a, b), grad_fn, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "sub")
    _check_broadcast(a.shape, b.shape, "sub")
    out_data = a.data - b.data

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return Tensor._from_op(out_data, (a, b), grad_fn, "sub")


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "mul")
    _check_broadcast(a.shape, b.shape, "mul")
    out_data = a.data * b.data

    def grad_fn(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return Tensor._from_op(out_data, (a, b), grad_fn, "mul")


def neg(a: Tensor) -> Tensor:
    return Tensor._from_op(-a.data, (a,), lambda g: (-g,), "neg")


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    with np.errstate(all="ignore"):
        out_data = a.data ** exponent

    def grad_fn(g):
        if exponent == 0.0:
            return (np.zeros_like(a.data),)
        return (g * exponent * a.data ** (exponent - 1.0),)

    return Tensor._from_op(out_data, (a,), grad_fn, "power")


def log(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out_data = np.log(a.data)

    def grad_fn(g):
        return (g / a.data,)

    return Tensor._from_op(out_data, (a,), grad_fn, "log")


def tabs(a: Tensor) -> Tensor:
    out_data = np.abs(a.data)

    def grad_fn(g):
        return (g * np.sign(a.data),)

    return Tensor._from_op(out_data, (a,), grad_fn, "abs")


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out_data = np.clip(a.data, lo, hi)

    def grad_fn(g):
        inside = ((a.data >= lo) & (a.data <= hi)).astype(a.data.dtype)
        return (g * inside,)

    return Tensor._from_op(out_data, (a,), grad_fn, "clamp")


# -- error function -----------------------------------------------------------------
#
# float32 (training and evaluation): Eigen's generic_fast_erf_float,
# x * A(x^2) / B(x^2) on [-4, 4]; beyond 4, erf rounds to +-1 in float32.
# Coefficients run from the highest power down. float64 (gradient checks):
# the standard library's erf, elementwise.
_ERF32_A = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                     -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                     -1.60960333262415e-02], dtype=np.float32)
_ERF32_B = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                     -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
_ERF64 = np.frompyfunc(math.erf, 1, 1)


def _horner(z: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """The polynomial with ``coefs`` (highest power first) at ``z``, in a
    fresh array of z's dtype."""
    p = np.multiply(z, coefs[0])
    for c in coefs[1:-1]:
        p += c
        p *= z
    p += coefs[-1]
    return p


def erf(x: np.ndarray) -> np.ndarray:
    """Error function of a float32 or float64 array, as an array of x's dtype
    and shape. float32 is within 5e-7 absolute of the exact erf; float64 is
    ``math.erf``. No finite input overflows."""
    if x.dtype == np.float32:
        x = np.clip(x, -4.0, 4.0)
        z = x * x
        p = _horner(z, _ERF32_A)
        p /= _horner(z, _ERF32_B)
        p *= x   # last, so a subnormal x is scaled once, not rounded through A
        return p
    if x.dtype == np.float64:
        return np.asarray(_ERF64(x), dtype=np.float64)   # a 0-d x gives a Python float
    raise TypeError(f"erf supports float32 and float64, got {x.dtype}")


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out_data = a.data * cdf

    def grad_fn(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
        return (g * (cdf + a.data * pdf),)

    return Tensor._from_op(out_data, (a,), grad_fn, "gelu")


# -- shape manipulation ----------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out_data = a.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(a.shape),)

    return Tensor._from_op(out_data, (a,), grad_fn, "reshape")


def transpose(a: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(x) for x in axes)
    inv = np.argsort(axes)
    out_data = a.data.transpose(axes)

    def grad_fn(g):
        return (g.transpose(inv),)

    return Tensor._from_op(out_data, (a,), grad_fn, "transpose")


def contiguous(a: Tensor) -> Tensor:
    """The same values in a fresh row-major array. numpy picks its matmul
    kernel by operand layout, so a one-row product matches the corresponding
    row of a many-row product bit for bit only when the right operand is
    row-major."""
    return Tensor._from_op(np.ascontiguousarray(a.data), (a,), lambda g: (g,), "contiguous")


def getitem(a: Tensor, idx) -> Tensor:
    """Basic (slice/int) indexing; advanced integer-array indexing is not supported."""
    out_data = a.data[idx]

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[idx] += g
        return (full,)

    return Tensor._from_op(out_data, (a,), grad_fn, "getitem")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    first = parts[0]
    for p in parts[1:]:
        _check_dtypes(first, p, "concat")
        if p.ndim != first.ndim:
            raise ShapeError("concat rank mismatch")
        for ax in range(first.ndim):
            if ax != axis % first.ndim and p.shape[ax] != first.shape[ax]:
                raise ShapeError(f"concat extent mismatch on axis {ax}: "
                                 f"{p.shape} vs {first.shape}")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis % first.ndim] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, offsets, axis=axis))

    return Tensor._from_op(out_data, parts, grad_fn, "concat")


def repeat(a: Tensor, reps: int, axis: int) -> Tensor:
    """Explicit broadcast: repeat a length-1 axis `reps` times."""
    if a.shape[axis] != 1:
        raise ShapeError(f"repeat needs extent 1 on axis {axis}, got {a.shape}")
    out_data = np.repeat(a.data, reps, axis=axis)

    def grad_fn(g):
        return (g.sum(axis=axis, keepdims=True),)

    return Tensor._from_op(out_data, (a,), grad_fn, "repeat")


# -- reductions -------------------------------------------------------------------


def _spread(g: np.ndarray, a: Tensor, axis, keepdims: bool) -> np.ndarray:
    """The gradient ``g`` of a reduction of ``a`` over ``axis`` (all axes
    when None), broadcast back to ``a``'s shape as a read-only view."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, a.shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    return Tensor._from_op(np.asarray(out_data), (a,),
                           lambda g: (_spread(g, a, axis, keepdims).copy(),), "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        return ((_spread(g, a, axis, keepdims) / count).astype(a.data.dtype, copy=False),)

    return Tensor._from_op(np.asarray(out_data), (a,), grad_fn, "mean")


# -- linear algebra -----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; any leading batch axes must be
    equal in both operands. A layer's product with a weight is `linear`."""
    _check_dtypes(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch axes differ: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def grad_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None
        return ga, gb

    return Tensor._from_op(out_data, (a, b), grad_fn, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x [..., d] @ w [d, k] (+ b [k]) -> [..., k], as one op. x's leading
    axes are flattened into the rows of one GEMM, so the forward, the input
    gradient and the weight gradient are each one product; the bias is added
    in place, and its gradient is one row sum. A constant x (such as embed's
    cube matrix) gets no gradient, which spares the GEMM that would compute
    and discard it."""
    parents = (x, w) if b is None else (x, w, b)
    for p in parents[1:]:
        _check_dtypes(x, p, "linear")
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear needs x [..., d] and w [d, k], got {x.shape} @ {w.shape}")
    d, k = w.shape
    if b is not None and b.shape != (k,):
        raise ShapeError(f"linear bias shape {b.shape}, expected ({k},)")
    x2 = x.data.reshape(-1, d)   # a view wherever x's rows are laid out evenly
    out2 = np.matmul(x2, w.data)
    if b is not None:
        out2 += b.data

    def grad_fn(g):
        g2 = g.reshape(-1, k)
        gx = np.matmul(g2, w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = np.matmul(x2.T, g2) if w.requires_grad else None
        if b is None:
            return gx, gw
        return gx, gw, (g2.sum(axis=0) if b.requires_grad else None)

    return Tensor._from_op(out2.reshape(x.shape[:-1] + (k,)), parents, grad_fn, "linear")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._from_op(out_data, (a,), grad_fn, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize the last axis (eps inside the square root), then affine."""
    _check_dtypes(x, gain, "layer_norm")
    _check_dtypes(x, bias, "layer_norm")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} "
                         f"do not match last axis {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out_data = gain.data * xhat + bias.data

    def grad_fn(g):
        dxhat = g * gain.data
        gx = inv_std * (dxhat
                        - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        lead = tuple(range(g.ndim - 1))   # () for a 1-D x: the sums are then copies
        return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return Tensor._from_op(out_data, (x, gain, bias), grad_fn, "layer_norm")


# -- backward pass ---------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from a scalar loss,
    consuming the graph on the way: each interior node drops its gradient,
    parents and closure once its closure has run. The loss keeps its .grad."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.requires_grad and node._op != "leaf" and node._grad_fn is None:
            raise RuntimeError(f"backward through '{node._op}': an earlier backward "
                               "consumed its graph")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._grad_fn is None:
            continue
        if node.grad is not None:
            grads = node._grad_fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
        if node is not loss:
            node.grad = None
        node._parents = ()
        node._grad_fn = None


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# -- parameter initialisation ---------------------------------------------------------


def init_normal(rng, shape, dtype, std: float) -> Tensor:
    """Trainable leaf drawn from N(0, std^2)."""
    return Tensor(rng.normal(0.0, std, size=shape).astype(dtype), requires_grad=True)


def init_glorot(rng, shape, dtype) -> Tensor:
    """Trainable weight with fan-scaled (Glorot) std over its last two axes; a
    fixed tiny std leaves a desk-scale network input-insensitive within the
    step budgets used here."""
    return init_normal(rng, shape, dtype, (2.0 / (shape[-2] + shape[-1])) ** 0.5)


def init_zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def init_ones(shape, dtype) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


def gradcheck(f: Callable[[Sequence[Tensor]], Tensor],
              params: Sequence[Tensor],
              steps: Sequence[float] = (1e-5,)) -> float:
    """Max relative error of reverse-mode gradients vs central differences.

    `f` must deterministically map the (mutated in place) params to a scalar
    Tensor. Relative error uses max(|analytic|, |numeric|, 1e-8) as the
    denominator, and each coordinate is scored by its best step in `steps`.
    No single step suits every coordinate of a deep model: structurally-zero
    gradients (a key bias cancels inside softmax) need a large step so 1-ulp
    loss round-off stays under the denominator floor, while stiff coordinates
    need a small step to bound truncation. A wrong analytic gradient
    disagrees at every step, so the per-coordinate minimum filters only
    measurement noise, never a real defect.

    A coordinate's remaining steps are skipped once its best error so far is
    <= the running maximum: its minimum can then no longer raise the result,
    so the value equals that of the full ladder.
    """
    params = list(params)
    zero_grads(params)
    backward(f(params))

    worst = 0.0
    with no_grad():   # the numeric side reads only values
        for p in params:
            aflat = np.zeros(p.size) if p.grad is None else p.grad.reshape(-1).copy()
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                ana = float(aflat[i])
                best = math.inf
                for step in steps:
                    flat[i] = orig + step
                    f_plus = float(f(params).data)
                    flat[i] = orig - step
                    f_minus = float(f(params).data)
                    flat[i] = orig
                    numeric = (f_plus - f_minus) / (2.0 * step)
                    best = min(best, abs(numeric - ana) / max(abs(numeric), abs(ana), 1e-8))
                    if best <= worst:
                        break
                worst = max(worst, best)
    return worst
