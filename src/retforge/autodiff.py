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
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DeterminismError, DimensionError, DomainError

NLL_FLOOR = 1e-30
MASK_NEG = -1e30  # additive attention mask; exp(MASK_NEG - max) underflows to exactly 0


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "meta")

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
        self.meta: dict | None = None

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

    return Tensor(-a.data, _parents=(a,), _backward_fn=backward)


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

    return Tensor(a.data * c, _parents=(a,), _backward_fn=backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports stacked (batched) operands with broadcasting."""
    if a.ndim < 1 or b.ndim < 1:
        raise DimensionError("matmul requires at least 1-D operands")
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must be at least 2-D here; reshape vectors first")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate_grad(_unbroadcast(gb, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward_fn=backward, _op="matmul")


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = np.argsort(axes)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.transpose(g, inverse))

    return Tensor(np.transpose(a.data, axes), _parents=(a,), _backward_fn=backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.reshape(old))

    return Tensor(a.data.reshape(shape), _parents=(a,), _backward_fn=backward)


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
    return Tensor(out, _parents=tuple(parts), _backward_fn=backward)


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
    return Tensor(out, _parents=tuple(parts), _backward_fn=backward)


def take_position(a: Tensor, pos: int) -> Tensor:
    """Select one position along the second-to-last axis (e.g. first-token pooling)."""
    if a.ndim < 2:
        raise DimensionError("take_position needs at least 2 dims")
    if not (0 <= pos < a.shape[-2]):
        raise IndexError(f"position {pos} out of range for shape {a.shape}")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[..., pos, :] = g
            a.accumulate_grad(buf)

    return Tensor(a.data[..., pos, :], _parents=(a,), _backward_fn=backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` by integer ids; backward scatter-adds."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"ids out of range for table of {table.shape[0]} rows")

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.shape[1]))
            table.accumulate_grad(buf)

    return Tensor(table.data[ids], _parents=(table,), _backward_fn=backward)


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

    return Tensor(out_data, _parents=(a,), _backward_fn=backward)


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

    return Tensor(out_data, _parents=(a,), _backward_fn=backward)


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


def gelu(a: Tensor) -> Tensor:
    """Smooth GELU (tanh form); smoothness keeps finite-difference checks tight."""
    c = math.sqrt(2.0 / math.pi)
    x = a.data
    inner = c * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            sech2 = 1.0 - t * t
            d_inner = c * (1.0 + 3 * 0.044715 * x**2)
            a.accumulate_grad(g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner))

    return Tensor(out_data, _parents=(a,), _backward_fn=backward)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - t * t))

    return Tensor(t, _parents=(a,), _backward_fn=backward)


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
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            inner = (g * out_data).sum(axis=-1, keepdims=True)
            a.accumulate_grad(out_data * (g - inner) / tau)

    return Tensor(out_data, _parents=(a,), _backward_fn=backward)


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
    p = float(probabilities.data[target_index])
    clamped = p < NLL_FLOOR
    p_eff = max(p, NLL_FLOOR)

    def backward(g: np.ndarray) -> None:
        if probabilities.requires_grad:
            buf = np.zeros_like(probabilities.data)
            buf[target_index] = -float(g.reshape(())) / p_eff
            probabilities.accumulate_grad(buf)

    out = Tensor(-math.log(p_eff), _parents=(probabilities,), _backward_fn=backward)
    if clamped:
        out.meta = {"clamped_floor": True}
    return out


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = (m + np.log(s)).squeeze(axis=axis)
    soft = e / s

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.expand_dims(g, axis) * soft)

    return Tensor(out_data, _parents=(a,), _backward_fn=backward)


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
    z = scores.data / tau
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    log_probs = z - lse
    rows = np.arange(n_rows)
    out_data = -log_probs[rows, targets].mean()
    soft = np.exp(log_probs)

    def backward(g: np.ndarray) -> None:
        if scores.requires_grad:
            buf = soft.copy()
            buf[rows, targets] -= 1.0
            scores.accumulate_grad(buf * (float(g.reshape(())) / (tau * n_rows)))

    return Tensor(out_data, _parents=(scores,), _backward_fn=backward)


def sequence_log_prob(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-sequence sum of log softmax(logits)[t, target_t]; shape (B,T,V) -> (B,)."""
    if logits.ndim != 3:
        raise DimensionError("sequence_log_prob expects (batch, steps, vocab) logits")
    targets = np.asarray(targets, dtype=np.int64)
    b, t, v = logits.shape
    if targets.shape != (b, t):
        raise DimensionError("targets must be (batch, steps)")
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    log_probs = z - lse
    bi = np.arange(b)[:, None]
    ti = np.arange(t)[None, :]
    out_data = log_probs[bi, ti, targets].sum(axis=1)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            buf = -np.exp(log_probs) * g[:, None, None]
            np.add.at(buf, (bi, ti, targets), g[:, None])
            logits.accumulate_grad(buf)

    return Tensor(out_data, _parents=(logits,), _backward_fn=backward)


def biased_attention(
    query: Tensor, keys: Tensor, values: Tensor, bias: Tensor | np.ndarray
) -> Tensor:
    """Attention with an additive logit bias per key position.

    Weights are softmax over q.k^T/sqrt(d) + bias; the bias participates in
    the graph, so gradients flow through it.
    """
    bias = _coerce(bias)
    if query.ndim != 2 or keys.ndim != 2 or values.ndim != 2:
        raise DimensionError("biased_attention expects 2-D query/keys/values")
    t, d = query.shape
    s, dk = keys.shape
    if dk != d or values.shape[0] != s:
        raise DimensionError("key/value shapes do not match the query dimension")
    if bias.ndim != 1 or bias.shape[0] != s:
        raise DimensionError(f"bias length {bias.shape} must equal key count {s}")
    logits = add(scale(matmul(query, transpose(keys, (1, 0))), 1.0 / math.sqrt(d)), bias)
    weights = softmax(logits)
    return matmul(weights, values)


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
    loss = loss_fn()
    loss.backward()
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
