"""Reverse-mode automatic differentiation over float64 numpy arrays.

Tensors form an explicit op graph; backward() walks it in reverse
topological order and accumulates exact analytic gradients into the
leaves. Ops never mutate forward values, and every op boundary rejects
NaN/Inf so saturation bugs surface where they happen.

An op output keeps its parents and backward closure only when it requires
a gradient: some input does, and `no_grad()` is not active. So inside
`no_grad()`, and over inputs that need no gradient, ops compute the same
values but record no graph. Such inputs are constants and frozen parameters:
`optim.AdamW` sets a parameter's `requires_grad=False` when its group is
disabled, and the parameter stays frozen until another optimizer enables its
group. The mode is per thread, so an inference pass on one thread never
detaches a training graph on another.

The transformer layers run on three fused ops, each one graph node with a
hand-written backward in place of a chain of the elementwise ops:
`layer_norm`, `linear` (matmul plus bias) and multi-head `attention` (head
split, scaled scores, bias and mask, softmax, head merge). They equal their
chains bit for bit. The forward evaluates the chain's numpy expressions in
its order, on operands of the same memory layout, since BLAS rounding
depends on layout. The backward replays the chain's gradient arithmetic and
gives each input one `accumulate_grad` call per consumer it had in the
chain, in the chain's reversed topological order. The node's parents are
ordered so that `backward`'s depth-first walk reaches the rest of the graph
in the chain's order. Signs of zero: the chain kept each intermediate
gradient in a buffer started as zeros, which turns -0.0 into +0.0. The
replay skips that add. A signed zero can only produce signed zeros
downstream, and every buffer `accumulate_grad` keeps also starts at +0.0,
where +0.0 + -0.0 = +0.0, so no stored gradient can differ.

A batched graph keeps the bits of the per-example graphs it replaces through
a row order (`RowOrder`). Each row of a batched node carries a key,
(example,) or (example, context). A row-ordered op (`Rows`) computes no
parameter gradient in its backward; it leaves the order a function of its
output gradient. The order's `drain`, which `backward` reaches after every
row-ordered node, computes each parameter's rows exactly as the one-row
graphs do and adds them to its `grad` in key order, which is the order in
which the per-example graphs added theirs. Only the batched end-to-end step
uses it: reordering every reduction instead would change the bits of the
other training recipes.

GELU's tanh term keeps the bits of numpy's `x**3`, which is slow on a
negative base (numpy leaves its vector pow loop there). The forward takes
the cube as `copysign(power(|x|, 3.0), x)`, exact where x >= 0. Where x < 0
it rests on one measured assumption: numpy's `x**3` lies within 1 ulp of
that cube. The forward checks every cube within GELU_CUBE_ULPS = 2 ulp;
where they do not all give the same t, and for zero, subnormal or
overflowing cubes, it recomputes with `x**3`. So `gelu` equals the plain
expression bit for bit, and `tests/test_autodiff.py` pins both the equality
and the assumption. Those bits belong to the numpy build and CPU features:
the negative-base `x**3` matches neither libm's pow nor the correctly
rounded cube, so checkpoints, metrics and benchmark digests reproduce on
the same numpy build and CPU features, not across hosts.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import threading
from collections import Counter
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DeterminismError, DimensionError, DomainError

NLL_FLOOR = 1e-30
MASK_NEG = -1e30  # additive attention mask; exp(MASK_NEG - max) underflows to exactly 0
# `_at_full_shape`: OpenBLAS's small-matrix gemm bound on M * N * K, and the
# rows a product below it is padded to
SMALL_GEMM_MNK = 1_000_000
PADDED_ROWS = 8


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.isfinite(arr).all():
        raise DomainError(f"{where}: non-finite values rejected at op boundary")


_grad_mode = threading.local()


def grad_enabled() -> bool:
    """False inside `no_grad()` on the calling thread."""
    return getattr(_grad_mode, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph on this thread until the block exits (nesting allowed)."""
    previous = grad_enabled()
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Tensor:
    """A node in the computation graph.

    `data` is always a C-contiguous float64 array, checked for NaN/Inf once
    here; `_op` names the producing op in that check's error. `grad` stays
    None until backward() reaches the node (Parameters keep a persistent grad
    buffer). A node that requires no gradient drops its parents and backward
    closure, so a frozen parameter (`requires_grad=False`) records no graph.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        values,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: Callable[[np.ndarray], None] | None = None,
        _op: str = "tensor",
    ):
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags.c_contiguous:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        _check_finite(arr, _op)
        requires_grad = requires_grad or (grad_enabled() and any(p.requires_grad for p in _parents))
        if not requires_grad:
            _parents, _backward_fn = (), None
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None and g.shape == self.data.shape:
            # 0.0 + g to the bit, signed zeros too, in the data's C layout
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Reverse-mode accumulation from a scalar loss node."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # Operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable leaf with a persistent gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, values, name: str):
        super().__init__(values, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce a gradient back to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# Elementwise and structural ops ----------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward_fn=backward, _op="add")


def neg(a: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(-g)

    return Tensor(-a.data, _parents=(a,), _backward_fn=backward, _op="neg")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward_fn=backward, _op="mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return Tensor(a.data * c, _parents=(a,), _backward_fn=backward, _op="scale")


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must be at least 2-D here; reshape vectors first")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports stacked (batched) operands with broadcasting."""
    _check_matmul(a, b)
    backward = functools.partial(_matmul_backward, a, b)
    return Tensor(a.data @ b.data, _parents=(a, b), _backward_fn=backward, _op="matmul")


def _matmul_input_grad(a: Tensor, b: Tensor, g: np.ndarray) -> np.ndarray:
    return _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)


def _matmul_backward(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    if a.requires_grad:
        a.accumulate_grad(_matmul_input_grad(a, b, g))
    if b.requires_grad:
        b.accumulate_grad(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = np.argsort(axes)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.transpose(g, inverse))

    return Tensor(np.transpose(a.data, axes), _parents=(a,), _backward_fn=backward, _op="transpose")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.reshape(old))

    return Tensor(a.data.reshape(shape), _parents=(a,), _backward_fn=backward, _op="reshape")


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise DomainError("concat of zero tensors")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                part.accumulate_grad(g[tuple(sl)])

    out = np.concatenate([p.data for p in parts], axis=axis)
    return Tensor(out, _parents=tuple(parts), _backward_fn=backward, _op="concat")


def stack_scalars(parts: Sequence[Tensor]) -> Tensor:
    """Pack scalar tensors into a 1-D vector."""
    if not parts:
        raise DomainError("stack of zero tensors")
    for p in parts:
        if p.data.size != 1:
            raise DimensionError("stack_scalars expects scalar tensors")

    def backward(g: np.ndarray) -> None:
        for i, part in enumerate(parts):
            if part.requires_grad:
                part.accumulate_grad(np.full_like(part.data, g[i]))

    out = np.array([p.data.reshape(()) for p in parts])
    return Tensor(out, _parents=tuple(parts), _backward_fn=backward, _op="stack_scalars")


def _select(a: Tensor, index, op: str) -> Tensor:
    """`a.data[index]`; backward scatters the gradient into zeros of a's shape."""

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[index] = g
            a.accumulate_grad(buf)

    return Tensor(a.data[index], _parents=(a,), _backward_fn=backward, _op=op)


def take_row(a: Tensor, row: int) -> Tensor:
    """Row `row` of `a` along its first axis, as a (1, ...) tensor."""
    return _select(a, slice(row, row + 1), "take_row")


def take_position(a: Tensor, pos: int) -> Tensor:
    """Select one position along the second-to-last axis (e.g. first-token pooling)."""
    if a.ndim < 2:
        raise DimensionError("take_position needs at least 2 dims")
    if not (0 <= pos < a.shape[-2]):
        raise IndexError(f"position {pos} out of range for shape {a.shape}")
    return _select(a, (..., pos, slice(None)), "take_position")


def _checked_ids(table: Tensor, ids) -> np.ndarray:
    """`ids` as an array, each a row of `table`."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"ids out of range for table of {table.shape[0]} rows")
    return ids


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` by integer ids; backward scatter-adds."""
    ids = _checked_ids(table, ids)

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.shape[1]))
            table.accumulate_grad(buf)

    return Tensor(table.data[ids], _parents=(table,), _backward_fn=backward, _op="embedding")


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray) -> None:
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate_grad(np.full_like(a.data, g if np.isscalar(g) else g.reshape(())))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(gg, a.shape).copy())

    return Tensor(out_data, _parents=(a,), _backward_fn=backward, _op="reduce_sum")


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def log(a: Tensor) -> Tensor:
    if (a.data <= 0).any():
        raise DomainError("log requires strictly positive values")
    out_data = np.log(a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g / a.data)

    return Tensor(out_data, _parents=(a,), _backward_fn=backward, _op="log")


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * out_data)

    return Tensor(out_data, _parents=(a,), _backward_fn=backward, _op="exp")


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p; non-integer exponents require a strictly positive base."""
    p = float(p)
    if p != int(p) and (a.data <= 0).any():
        raise DomainError("power with non-integer exponent needs a positive base")
    out_data = a.data**p

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * p * a.data ** (p - 1.0))

    return Tensor(out_data, _parents=(a,), _backward_fn=backward, _op="power")


GELU_C = math.sqrt(2.0 / math.pi)
# numpy's negative-base x**3 lies within 1 ulp of -(|x|**3), pinned by
# tests/test_autodiff.py::test_gelu_fast_path_assumptions; 2 leaves a margin.
GELU_CUBE_ULPS = 2
# Below this many negative inputs the fast path's fixed cost of ~50 numpy
# calls outweighs the negative-base pow it saves (decoder steps and
# one-question encodes).
GELU_FAST_MIN_NEGATIVES = 512
GELU_BLOCK = 16384  # elements per block; bounds the fast path's temporaries
_TINY = np.finfo(np.float64).tiny
_HUGE = 1e308  # a cube beyond this has no finite neighbours 2 ulp out


def _gelu_tanh_exact(x: np.ndarray) -> np.ndarray:
    return np.tanh(GELU_C * (x + 0.044715 * x**3))


def _gelu_inner(x: np.ndarray, cube: np.ndarray) -> np.ndarray:
    """GELU_C * (x + 0.044715 * cube), computed in place in `cube`."""
    np.multiply(cube, 0.044715, out=cube)
    np.add(cube, x, out=cube)
    np.multiply(cube, GELU_C, out=cube)
    return cube


def _gelu_tanh_block(x: np.ndarray, t: np.ndarray) -> None:
    """Write `_gelu_tanh_exact(x)` into t, bit for bit, for a 1-D block.

    Its large temporaries span the whole block, as the plain expression's
    do; temporaries sized by the count of negatives raised peak RSS."""
    negative = x < 0
    cube = np.abs(x)
    np.power(cube, 3.0, out=cube)
    np.copysign(cube, x, out=cube)  # x**3's bits where x >= 0
    # Where x < 0, x**3 is the cube or one of its neighbours within
    # GELU_CUBE_ULPS; on finite negative normals a step on the int64 view is
    # one ulp. Zero, subnormal and overflowing cubes get a normal stand-in,
    # which makes no NaN, and take the exact path.
    unsure = cube > -_TINY
    unsure &= negative
    unsure |= cube < -_HUGE
    cube[unsure] = -1.0
    # IEEE * and + are monotone: where the outermost neighbours give one
    # inner value, all do.
    bits, steps = cube.view(np.int64), negative * GELU_CUBE_ULPS
    lo = _gelu_inner(x, (bits + steps).view(np.float64))
    hi = _gelu_inner(x, np.subtract(bits, steps, out=steps).view(np.float64))
    check = (lo != hi).nonzero()[0]
    del lo, hi, steps
    xs, cs = x[check], cube[check]
    np.tanh(_gelu_inner(x, cube), out=t)
    del cube
    if check.size:  # np.tanh need not be monotone: evaluate every neighbour
        w = GELU_CUBE_ULPS
        near = [[step] for step in range(-w, w + 1) if step]
        inner = _gelu_inner(xs, (cs.view(np.int64) + near).view(np.float64))
        unsure[check] |= (np.tanh(inner) != t[check]).any(axis=0)
    slow = unsure.nonzero()[0]
    if slow.size:
        t[slow] = _gelu_tanh_exact(x[slow])


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """`_gelu_tanh_exact(x)` bit for bit, without its slow negative-base pow
    on most elements."""
    if np.count_nonzero(x < 0) < GELU_FAST_MIN_NEGATIVES:
        return _gelu_tanh_exact(x)
    t = np.empty_like(x)
    flat_x, flat_t = x.reshape(-1), t.reshape(-1)
    for start in range(0, flat_x.size, GELU_BLOCK):
        block = slice(start, start + GELU_BLOCK)
        _gelu_tanh_block(flat_x[block], flat_t[block])
    return t


def gelu(a: Tensor) -> Tensor:
    """Smooth GELU (tanh form); smoothness keeps finite-difference checks tight."""
    x = a.data
    t = _gelu_tanh(x)
    out_data = 0.5 * x * (1.0 + t)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            sech2 = 1.0 - t * t
            d_inner = GELU_C * (1.0 + 3 * 0.044715 * x**2)
            a.accumulate_grad(g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner))

    return Tensor(out_data, _parents=(a,), _backward_fn=backward, _op="gelu")


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - t * t))

    return Tensor(t, _parents=(a,), _backward_fn=backward, _op="tanh")


# Softmax-family ops ------------------------------------------------------


def softmax(a: Tensor, tau: float = 1.0, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis with temperature and optional additive mask.

    Computed with max-subtraction. `mask` is a constant (non-differentiated)
    additive array, typically 0 / MASK_NEG.
    """
    if tau <= 0:
        raise DomainError(f"softmax temperature must be positive, got {tau}")
    z = a.data / tau
    if mask is not None:
        z = z + mask
    out_data = _softmax_rows(z)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_softmax_rows_backward(out_data, g) / tau)

    return Tensor(out_data, _parents=(a,), _backward_fn=backward, _op="softmax")


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a fresh array, which it overwrites; the
    in-place subtract and divide round exactly as the out-of-place ones."""
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_rows_backward(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def scaled_softmax(scores, tau: float) -> Tensor:
    """Temperature-scaled softmax over a score vector: p_i = exp(s_i/tau)/sum_j exp(s_j/tau)."""
    scores = _coerce(scores)
    if scores.ndim != 1 or scores.shape[0] < 1:
        raise DomainError(f"scaled_softmax expects a non-empty vector, got shape {scores.shape}")
    if not tau > 0:
        raise DomainError(f"scaling factor must be positive, got {tau}")
    return softmax(scores, tau=tau)


def nll(probabilities: Tensor, target_index: int) -> Tensor:
    """Negative log-likelihood -log p[target] with a 1e-30 probability floor."""
    probabilities = _coerce(probabilities)
    if probabilities.ndim != 1:
        raise DimensionError("nll expects a probability vector")
    n = probabilities.shape[0]
    if not (0 <= target_index < n):
        raise IndexError(f"target index {target_index} out of range for length {n}")
    p_eff = max(float(probabilities.data[target_index]), NLL_FLOOR)

    def backward(g: np.ndarray) -> None:
        if probabilities.requires_grad:
            buf = np.zeros_like(probabilities.data)
            buf[target_index] = -float(g.reshape(())) / p_eff
            probabilities.accumulate_grad(buf)

    return Tensor(-math.log(p_eff), _parents=(probabilities,), _backward_fn=backward, _op="nll")


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = (m + np.log(s)).squeeze(axis=axis)
    soft = e / s

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.expand_dims(g, axis) * soft)

    return Tensor(out_data, _parents=(a,), _backward_fn=backward, _op="logsumexp")


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log softmax over the last axis, with max-subtraction."""
    m = z.max(axis=-1, keepdims=True)
    return z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))


def cross_entropy_rows(scores: Tensor, targets: np.ndarray, tau: float = 1.0) -> Tensor:
    """Mean over rows of -log softmax(row/tau)[target]; fused, analytically exact.

    Equivalent to mean_i nll(scaled_softmax(scores[i], tau), targets[i]) but
    evaluated in log space.
    """
    if scores.ndim != 2:
        raise DimensionError("cross_entropy_rows expects a 2-D score matrix")
    if not tau > 0:
        raise DomainError(f"scaling factor must be positive, got {tau}")
    targets = np.asarray(targets, dtype=np.int64)
    n_rows, n_cols = scores.shape
    if targets.shape != (n_rows,):
        raise DimensionError("one target per row required")
    if targets.min() < 0 or targets.max() >= n_cols:
        raise IndexError("target column out of range")
    log_probs = _log_softmax(scores.data / tau)
    rows = np.arange(n_rows)
    out_data = -log_probs[rows, targets].mean()
    soft = np.exp(log_probs)

    def backward(g: np.ndarray) -> None:
        if scores.requires_grad:
            buf = soft.copy()
            buf[rows, targets] -= 1.0
            scores.accumulate_grad(buf * (float(g.reshape(())) / (tau * n_rows)))

    return Tensor(out_data, _parents=(scores,), _backward_fn=backward, _op="cross_entropy_rows")


def sequence_log_prob(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-sequence sum of log softmax(logits)[t, target_t]; shape (B,T,V) -> (B,)."""
    if logits.ndim != 3:
        raise DimensionError("sequence_log_prob expects (batch, steps, vocab) logits")
    targets = np.asarray(targets, dtype=np.int64)
    b, t, v = logits.shape
    if targets.shape != (b, t):
        raise DimensionError("targets must be (batch, steps)")
    log_probs = _log_softmax(logits.data)
    bi = np.arange(b)[:, None]
    ti = np.arange(t)[None, :]
    out_data = log_probs[bi, ti, targets].sum(axis=1)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            buf = -np.exp(log_probs) * g[:, None, None]
            np.add.at(buf, (bi, ti, targets), g[:, None])
            logits.accumulate_grad(buf)

    return Tensor(out_data, _parents=(logits,), _backward_fn=backward, _op="sequence_log_prob")


def biased_attention(
    query: Tensor, keys: Tensor, values: Tensor, bias: Tensor | np.ndarray
) -> Tensor:
    """One-head `attention` of 2-D query/keys/values with an additive logit
    bias per key position: softmax(q.k^T/sqrt(d) + bias) @ values, with
    gradients through the bias too."""
    bias = _coerce(bias)
    if query.ndim != 2 or bias.shape != keys.shape[:1]:
        raise DimensionError(
            f"biased_attention expects 2-D operands and one bias per key, got {bias.shape}"
        )
    return attention(query, keys, values, 1, bias=bias)


# Fused layer ops (see the module docstring) ------------------------------


def layer_norm(
    x: Tensor, gain: Tensor, bias: Tensor, eps: float, rows: Rows | None = None
) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis; with
    `rows`, over (n, T, d) rows, row-ordered (see `Rows`)."""
    c = 1.0 / x.shape[-1]
    mean = x.data.sum(axis=-1, keepdims=True) * c
    centered = x.data - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * c
    shifted = var + eps
    inv = shifted**-0.5
    normed = centered * inv
    out_data = normed * gain.data + bias.data

    def backward(g: np.ndarray) -> None:
        if rows is not None:  # functions over arrays only (see `RowOrder`)
            rows.deliver(bias, lambda: g.sum(axis=1))
            rows.deliver(gain, lambda: (g * normed).sum(axis=1))
        else:
            if bias.requires_grad:
                bias.accumulate_grad(_unbroadcast(g, bias.shape))
            if gain.requires_grad:
                gain.accumulate_grad(_unbroadcast(g * normed, gain.shape))
        if not x.requires_grad:
            return
        g_normed = g * gain.data
        # through inv = shifted**-0.5, shifted = var + eps and var = sum(sq) * c
        g_sq = _unbroadcast(g_normed * centered, inv.shape) * -0.5 * shifted**-1.5 * c
        # centered feeds normed, then both operands of sq = centered * centered
        g_centered = g_normed * inv
        g_centered += g_sq * centered
        g_centered += g_sq * centered
        x.accumulate_grad(g_centered)
        x.accumulate_grad(np.broadcast_to(-_unbroadcast(g_centered, mean.shape) * c, x.shape))

    if rows is not None:
        return rows.node(out_data, (x, gain, bias), (gain, bias), backward, "layer_norm")
    return Tensor(out_data, _parents=(x, gain, bias), _backward_fn=backward, _op="layer_norm")


def linear(x: Tensor, w: Tensor, b: Tensor, rows: Rows | None = None) -> Tensor:
    """x @ w + b; with `rows`, over (n, T, d) rows, row-ordered (see `Rows`)."""
    _check_matmul(x, w)
    input_grad = functools.partial(_matmul_input_grad, x, w)
    return _linear_node(x, w, b, rows, x.data @ w.data + b.data, input_grad, "linear")


def _linear_node(
    x: Tensor, w: Tensor, b: Tensor, rows: Rows | None, out_data: np.ndarray,
    input_grad: Callable[[np.ndarray], np.ndarray], op: str,
) -> Tensor:
    """The node of a `linear` value: the bias and weight gradients are
    `_unbroadcast` of g and of swapaxes(x) @ g, or with `rows` the same per
    row; the input gradient is the caller's `input_grad(g)`."""

    def backward(g: np.ndarray) -> None:
        x_t = np.swapaxes(x.data, -1, -2)
        if rows is None:
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g, b.shape))
            if w.requires_grad:
                w.accumulate_grad(_unbroadcast(x_t @ g, w.shape))
        else:  # functions over arrays, never `x` (see `RowOrder`)
            rows.deliver(b, lambda: g.sum(axis=1))
            rows.deliver(w, lambda: x_t @ g)
        if x.requires_grad:
            x.accumulate_grad(input_grad(g))

    if rows is not None:
        return rows.node(out_data, (x, w, b), (w, b), backward, op)
    return Tensor(out_data, _parents=(x, w, b), _backward_fn=backward, _op=op)


def attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int,
    mask: np.ndarray | None = None, bias: Tensor | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention of (..., T, d) queries over
    (..., S, d) keys and (..., S, dv) values -> (..., T, dv).

    Each head attends with softmax(q.k^T/sqrt(d/heads) + bias + mask) over
    the S keys. `bias` is a differentiated logit bias and `mask` a constant
    additive one (0 / MASK_NEG); either broadcasts against the (..., heads,
    T, S) scores.
    """
    return _attention(q, k, v, heads, mask, bias, operator.matmul, "attention")


def _attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray | None, bias: Tensor | None,
    product: Callable[[np.ndarray, np.ndarray], np.ndarray], op: str,
) -> Tensor:
    """`attention`, with `product` for the matmuls whose sums have more than
    one nonzero term in a pooled forward (see `PooledRows.attention`)."""
    (*lead, _, d), k_shape, v_shape = q.data.shape, k.data.shape, v.data.shape
    s, dv = k_shape[-2], v_shape[-1]
    if d % heads or dv % heads or k_shape != (*lead, s, d) or v_shape != (*lead, s, dv):
        raise DimensionError(f"attention shapes disagree: {q.shape}, {k_shape}, {v_shape}")
    c = 1.0 / math.sqrt(d // heads)
    qh, vh = _split_heads(q.data, heads), _split_heads(v.data, heads)
    keys_t = np.ascontiguousarray(np.moveaxis(k.data.reshape(*lead, s, heads, -1), -3, -1))
    z = product(qh, keys_t) * c
    if bias is not None:
        z = z + bias.data
    if mask is not None:
        z = z + mask
    weights = _softmax_rows(z)
    out_data = _merge_heads(product(weights, vh))

    def backward(g: np.ndarray) -> None:
        g_mixed = _split_heads(g, heads)
        g_z = _softmax_rows_backward(weights, product(g_mixed, np.swapaxes(vh, -1, -2)))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g_z, bias.shape))
        g_scores = g_z * c
        if q.requires_grad:
            q.accumulate_grad(_merge_heads(product(g_scores, np.swapaxes(keys_t, -1, -2))))
        if k.requires_grad:
            k.accumulate_grad(_merge_heads(np.swapaxes(np.swapaxes(qh, -1, -2) @ g_scores, -1, -2)))
        if v.requires_grad:
            v.accumulate_grad(_merge_heads(np.swapaxes(weights, -1, -2) @ g_mixed))

    # parents in the order the composed chain's depth-first walk reached them
    parents = (q, k, v) if bias is None else (q, k, bias, v)
    return Tensor(out_data, _parents=parents, _backward_fn=backward, _op=op)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., T, d) -> contiguous (..., heads, T, d / heads)."""
    return np.ascontiguousarray(np.swapaxes(x.reshape(*x.shape[:-1], heads, -1), -2, -3))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, T, dh) -> (..., T, heads * dh)."""
    return np.swapaxes(x, -2, -3).reshape(*x.shape[:-3], x.shape[-2], -1)


class PooledRows:
    """The rows a pooled forward keeps of its (B, T, ·) sequences, T >= 2:
    positions 0 and 1, since a one-row `linear` (a lone sequence's) would
    take BLAS gemv, which rounds otherwise than gemm. Only position 0 is
    pooled, so every other row's gradient is zero, and `cut`, `linear` and
    `attention` give at the kept rows the values and gradients of the plain
    ops over all T positions, bit for bit. Every product with more than one
    nonzero term per sum runs per sequence at the full shape
    (`_at_full_shape`), so no bit depends on B. `linear` builds the node of
    plain and row-ordered `linear` (`_linear_node`)."""

    __slots__ = ("length", "rows")
    kept = 2

    def __init__(self, length: int, rows: Rows | None):
        self.length = length
        self.rows = rows

    def cut(self, a: Tensor) -> Tensor:
        """(B, T, d) -> its kept (B, 2, d) rows; backward scatters into zeros."""
        return _select(a, (slice(None), slice(self.kept)), "cut")

    def linear(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """`linear` over (B, 2, d) kept rows, its product and input gradient
        at the full shape (`_at_full_shape`), with `linear`'s bias and weight
        gradients."""
        _check_matmul(x, w)
        out_data = _at_full_shape(x.data, w.data, self.length) + b.data
        return _linear_node(
            x, w, b, self.rows, out_data,
            lambda g: _pooled_input_grad(g, w.data, self.length), "pooled_linear",
        )

    def attention(self, q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray) -> Tensor:
        """`attention` of the kept (B, 2, d) query rows over (B, T, d) keys
        and values. The scores, the mix and the weight and query gradients
        run at the full shape (`_at_full_shape`); the key and value gradients
        contract over the kept rows alone, where each sum has one nonzero
        term (position 0's), so any order gives its bits."""
        full = functools.partial(_at_full_shape, length=self.length)
        return _attention(q, k, v, heads, mask, None, full, "pooled_attention")


def _pooled_input_grad(g: np.ndarray, w: np.ndarray, length: int) -> np.ndarray:
    """The input gradient of `PooledRows.linear`: `g` times w.T at the full shape."""
    return _at_full_shape(g, w.T, length)


def _at_full_shape(a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
    """(..., n, e) `a` placed in zeros of its full (..., T, e) shape, times
    `b`, then cut: each row equals the full product's bit for bit. BLAS picks
    its kernel by shape, so a product over the n rows alone can round
    otherwise (OpenBLAS does for two rows of 16-wide heads at some T).

    OpenBLAS takes its small-matrix kernel when T * K * N is at most
    SMALL_GEMM_MNK, for (..., K, N) `b`; there, over a C-contiguous `b`, the
    first rows of a product do not depend on how many rows follow, so `a`
    is padded to min(T, PADDED_ROWS) rows only. A transposed `b` (the
    backward's) or a larger product keeps all T rows."""
    n, (k, m) = a.shape[-2], b.shape[-2:]
    if b.flags.c_contiguous and length * k * m <= SMALL_GEMM_MNK:
        length = min(length, PADDED_ROWS)
    full = np.zeros((*a.shape[:-2], length, a.shape[-1]))
    full[..., :n, :] = a
    return (full @ b)[..., :n, :]


# Row-ordered ops (see `RowOrder`) -------------------------------------------

# A parameter's share of one row: a dense array of its shape, or for an
# embedding (table rows, their values)
Contribution = np.ndarray | tuple[np.ndarray, np.ndarray]


class RowOrder:
    """The parameter gradients of one batched graph, added in key order.

    A batched graph runs the rows of many per-example graphs through one
    node, so a parameter's gradient summed over the rows would round
    otherwise than the per-example graphs, which each added their own
    contribution in turn. Here each row carries a key, (example,) or
    (example, context), sorting as `backward` reached the per-example graphs.
    A row-ordered node (`Rows.node`) registers at forward time its rows' keys
    for each parameter it reads that requires a gradient. Its backward
    computes no parameter gradient: it leaves each such parameter a function
    of its output gradient (`Rows.deliver`) that returns one contribution per
    row, as the row's one-row graph computes it. Every row-ordered node has
    `drain` as a parent, so `backward` reaches `drain` after all of them.
    There, per parameter, a registered key that never arrived raises; else
    each function is called once and the rows are added to `grad` in key
    order, the rows of one key in arrival order. The functions close over
    numpy arrays only, never a Tensor, so the order forms no reference cycle.
    """

    def __init__(self):
        # per parameter: (parameter, registered keys, delivered (keys, function) pairs)
        self.params: dict[int, tuple[Tensor, list[tuple], list]] = {}
        add = functools.partial(_add_in_key_order, self.params)
        self.drain = Tensor(0.0, requires_grad=True, _backward_fn=add, _op="row_order")
        self.drain.grad = np.zeros(())  # so that `backward` runs it

    def rows(self, keys: Sequence[tuple]) -> "Rows":
        return Rows(self, keys)


def _add_in_key_order(params: dict, _g: np.ndarray) -> None:
    for param, expected, delivered in params.values():
        keys = [key for part_keys, _ in delivered for key in part_keys]
        if len(keys) < len(expected):
            missing = Counter(expected) - Counter(keys)
            raise DomainError(
                f"{missing.total()} row-ordered gradients never arrived, "
                f"first {min(missing)} of {param!r}"
            )
        rows = [row for _, rows_of in delivered for row in rows_of()]
        for i in sorted(range(len(keys)), key=keys.__getitem__):  # stable
            _add_row(param, rows[i])


def _add_row(param: Tensor, row: Contribution) -> None:
    if isinstance(row, tuple):
        at, values = row  # distinct table rows
        param.grad[at] += values
    else:
        param.accumulate_grad(row)


class Rows:
    """The rows of one batched node: row r of its input's first axis belongs
    to `keys[r]` of `order`. Its ops equal the plain ones in value and in
    the gradient of every input but the parameters, whose gradients go to
    the order as functions computing them per row as the one-row graph does:
    a weight's the stacked per-row `swapaxes(x) @ g`, a bias's and a gain's
    `g.sum(axis=1)` over (n, T, d) rows, and an embedding table's one row at
    a time, sparsely."""

    __slots__ = ("order", "keys")

    def __init__(self, order: RowOrder, keys: Sequence[tuple]):
        self.order = order
        self.keys = list(keys)

    def deliver(self, param: Tensor, rows_of: Callable[[], Sequence[Contribution]]) -> None:
        """Leave `param`, if it requires a gradient, `rows_of`: a function over
        arrays returning each key's row of contribution to it."""
        if param.requires_grad:
            self.order.params[id(param)][2].append((self.keys, rows_of))

    def node(self, out_data, parents: tuple[Tensor, ...], params: tuple[Tensor, ...],
             backward: Callable[[np.ndarray], None], op: str) -> Tensor:
        """An op's output whose `params` each take one contribution per row."""
        if grad_enabled() and any(p.requires_grad for p in parents):
            for p in params:
                if p.requires_grad:
                    self.order.params.setdefault(id(p), (p, [], []))[1].extend(self.keys)
            parents += (self.order.drain,)
        return Tensor(out_data, _parents=parents, _backward_fn=backward, _op=op)

    def linear(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        return _fused_linear(x, w, b, self)

    def layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
        return _fused_layer_norm(x, gain, bias, eps, self)

    def embedding(self, table: Tensor, ids: np.ndarray) -> Tensor:
        """`embedding` of an (n, T) id matrix."""
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[0] != len(self.keys):
            raise DimensionError(f"need one id row per key, got ids of shape {ids.shape}")
        _checked_ids(table, ids)

        def backward(g: np.ndarray) -> None:
            self.deliver(table, lambda: _scatter_rows(ids, g))

        return self.node(table.data[ids], (table,), (table,), backward, "embedding")

    def tap(self, param: Tensor) -> Tensor:
        """`param` read by the one row of these Rows: a node of its value
        whose gradient goes to the order under that row's key."""

        def backward(g: np.ndarray) -> None:
            self.deliver(param, lambda: [g])

        return self.node(param.data, (param,), (param,), backward, "tap")


def _scatter_rows(ids: np.ndarray, g: np.ndarray) -> list[Contribution]:
    """Per row of (n, T) ids, the embedding gradient: its distinct ids and,
    per id, the sum of its positions' (n, T, d) gradients, added from 0.0 in
    position order as `embedding`'s dense buffer adds them."""
    n, t = ids.shape
    order = np.argsort(ids, axis=1, kind="stable")
    ranked = np.take_along_axis(ids, order, axis=1)
    first = np.ones((n, t), dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    slot = np.empty((n, t), dtype=np.int64)
    np.put_along_axis(slot, order, np.cumsum(first, axis=1) - 1, axis=1)
    values = np.zeros(g.shape)
    np.add.at(values, (np.arange(n)[:, None], slot), g)  # row by row, in position order
    return [(ranked[r, first[r]], values[r, :count]) for r, count in enumerate(first.sum(axis=1))]


# The row-ordered ops are the fused ops called with their rows, through these
# names bound at import, so that rebinding the module's public names (as
# tests/composed.py does) leaves them alone.
_fused_linear, _fused_layer_norm = linear, layer_norm


# Gradient checking -------------------------------------------------------


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    eps: float = 1e-5,
    max_elements_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients to central finite differences.

    Returns the worst relative error max|a-n| / max(|a|,|n|,1e-8) over all
    checked elements. `loss_fn` must be pure and deterministic; it is called
    with the current parameter values, which are perturbed in place and
    restored. When `max_elements_per_param` is set, a seeded subset of each
    parameter's elements is checked instead of every element.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise DomainError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    first = loss_fn().item()
    second = loss_fn().item()
    if first != second:
        raise DeterminismError("loss_fn returned different values on identical calls")

    for p in params:
        p.zero_grad()
    loss_fn().backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a_grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        grad_flat = a_grad.reshape(-1)
        indices = np.arange(flat.size)
        if max_elements_per_param is not None and flat.size > max_elements_per_param:
            gen = rng if rng is not None else np.random.default_rng(0)
            indices = gen.choice(flat.size, size=max_elements_per_param, replace=False)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn().item()
            flat[i] = orig - eps
            f_minus = loss_fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = grad_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
