"""Reverse-mode differentiable arrays and the operations built on them.

Everything is float64. A ``DiffValue`` wraps a numpy array together with a
same-shape gradient accumulator; operations record closures on a graph so that
``backward`` can push gradients from a scalar loss to every parameter that
requires them. Gradients accumulate across ``backward`` calls; optimizers zero
them after each step.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

# `acc(parent, contribution)` adds a gradient contribution for one parent.
_BackwardFn = Callable[[Array, Callable[["DiffValue", Array], None]], None]


class DiffValue:
    """A shaped float64 array carrying an accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        # Allocated lazily: leaves get zeros via param(); intermediates only
        # receive a buffer once backward reaches them.
        self.grad: Array | None = None
        self._parents: tuple[DiffValue, ...] = ()
        self._backward_fn: _BackwardFn | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"DiffValue(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "DiffValue") -> "DiffValue":
        return add(self, other)

    def __sub__(self, other: "DiffValue") -> "DiffValue":
        return sub(self, other)

    def __mul__(self, other: "DiffValue") -> "DiffValue":
        return mul(self, other)

    def __neg__(self) -> "DiffValue":
        return neg(self)

    def __matmul__(self, other: "DiffValue") -> "DiffValue":
        return matmul(self, other)


def value(data) -> DiffValue:
    """A constant: participates in computation but never receives gradient."""
    return DiffValue(data, requires_grad=False)


def param(data) -> DiffValue:
    """A trainable leaf with a zero-initialized gradient accumulator."""
    out = DiffValue(data, requires_grad=True)
    out.grad = np.zeros_like(out.data)
    return out


def _record(data: Array, parents: Sequence[DiffValue], backward_fn: _BackwardFn) -> DiffValue:
    out = DiffValue(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _topological_order(root: DiffValue) -> list[DiffValue]:
    order: list[DiffValue] = []
    # DiffValue hashes by identity, so nodes key the sets and dicts directly.
    visited: set[DiffValue] = set()
    stack: list[tuple[DiffValue, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and parent not in visited:
                stack.append((parent, False))
    return order


def backward(loss: DiffValue) -> None:
    """Accumulate dL/dx into ``grad`` of every reachable value requiring it.

    ``loss`` must be scalar. Contributions are propagated per call, so calling
    twice doubles leaf gradients rather than compounding intermediate ones.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topological_order(loss)
    local: dict[DiffValue, Array] = {loss: np.ones((), dtype=np.float64)}

    def accumulate(parent: DiffValue, contribution: Array) -> None:
        if not parent.requires_grad:
            return
        existing = local.get(parent)
        local[parent] = contribution if existing is None else existing + contribution

    for node in reversed(order):
        g = local.pop(node, None)
        if g is None:
            continue
        if node.grad is None:
            node.grad = g.copy()  # copy: g may be shared with a sibling parent
        else:
            node.grad += g
        if node._backward_fn is not None:
            node._backward_fn(g, accumulate)


def _require_same_shape(op: str, a: DiffValue, b: DiffValue) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes must match, got {a.shape} and {b.shape}")


def add(a: DiffValue, b: DiffValue) -> DiffValue:
    _require_same_shape("add", a, b)

    def _bw(g, acc):
        acc(a, g)
        acc(b, g)

    return _record(a.data + b.data, (a, b), _bw)


def sub(a: DiffValue, b: DiffValue) -> DiffValue:
    _require_same_shape("sub", a, b)

    def _bw(g, acc):
        acc(a, g)
        acc(b, -g)

    return _record(a.data - b.data, (a, b), _bw)


def mul(a: DiffValue, b: DiffValue) -> DiffValue:
    """Element-wise product of same-shape operands."""
    _require_same_shape("mul", a, b)

    def _bw(g, acc):
        acc(a, g * b.data)
        acc(b, g * a.data)

    return _record(a.data * b.data, (a, b), _bw)


def neg(a: DiffValue) -> DiffValue:
    def _bw(g, acc):
        acc(a, -g)

    return _record(-a.data, (a,), _bw)


def scale(a: DiffValue, factor: float) -> DiffValue:
    """Multiply every entry by a plain-float constant."""
    c = float(factor)

    def _bw(g, acc):
        acc(a, g * c)

    return _record(a.data * c, (a,), _bw)


def matmul(a: DiffValue, b: DiffValue) -> DiffValue:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul requires (p x q) @ (q x r) operands, got {a.shape} and {b.shape}"
        )

    def _bw(g, acc):
        acc(a, g @ b.data.T)
        acc(b, a.data.T @ g)

    return _record(a.data @ b.data, (a, b), _bw)


def transpose(a: DiffValue) -> DiffValue:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose requires a matrix, got shape {a.shape}")

    def _bw(g, acc):
        acc(a, g.T)

    return _record(a.data.T.copy(), (a,), _bw)


def add_row_vector(m: DiffValue, v: DiffValue) -> DiffValue:
    """Add a length-d vector to every row of an n x d matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_row_vector: got matrix {m.shape} and vector {v.shape}")

    def _bw(g, acc):
        acc(m, g)
        acc(v, g.sum(axis=0))

    return _record(m.data + v.data[None, :], (m, v), _bw)


def row_index(table: Array, ids: Sequence[int]) -> Array:
    """ids as an index array into the rows of a matrix, checked to be in range."""
    if table.ndim != 2:
        raise ShapeError(f"rows requires a matrix table, got shape {table.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("rows requires a non-empty 1-D index list")
    # Python's min and max over the ids cost less than two numpy reductions.
    lo, hi = min(ids), max(ids)
    if lo < 0 or hi >= table.shape[0]:
        raise ContractError(
            f"row index out of range: table has {table.shape[0]} rows, got ids [{lo}, {hi}]"
        )
    return idx


def rows(table: DiffValue, ids: Sequence[int]) -> DiffValue:
    """Gather rows of a table by index; gradient scatter-adds back."""
    idx = row_index(table.data, ids)

    def _bw(g, acc):
        out = np.zeros_like(table.data)
        np.add.at(out, idx, g)
        acc(table, out)

    return _record(table.data[idx], (table,), _bw)


def mean_rows(m: DiffValue) -> DiffValue:
    """Arithmetic mean over the rows of an n x d matrix, yielding a d-vector."""
    if m.data.ndim != 2 or m.shape[0] == 0:
        raise ShapeError(f"mean_rows requires a non-empty matrix, got shape {m.shape}")
    n = m.shape[0]

    def _bw(g, acc):
        acc(m, np.repeat(g[None, :] / n, n, axis=0))

    return _record(m.data.mean(axis=0), (m,), _bw)


def sum_all(a: DiffValue) -> DiffValue:
    def _bw(g, acc):
        acc(a, np.full_like(a.data, float(g)))

    return _record(a.data.sum(), (a,), _bw)


def dot(u: DiffValue, v: DiffValue) -> DiffValue:
    if u.data.ndim != 1 or v.data.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"dot requires equal-length vectors, got {u.shape} and {v.shape}")

    def _bw(g, acc):
        acc(u, g * v.data)
        acc(v, g * u.data)

    return _record(u.data @ v.data, (u, v), _bw)


def tanh(a: DiffValue) -> DiffValue:
    out_data = np.tanh(a.data)

    def _bw(g, acc):
        acc(a, g * (1.0 - out_data * out_data))

    return _record(out_data, (a,), _bw)


def _stable_softmax(x: Array) -> Array:
    # As in softmax_rows, the ufunc reductions skip ndarray.max/sum's wrappers.
    shifted = x - np.maximum.reduce(x)
    e = np.exp(shifted)
    return e / np.add.reduce(e)


def softmax(v: DiffValue) -> DiffValue:
    """Numerically-stabilized softmax of a vector; outputs sum to one."""
    if v.data.ndim != 1 or v.shape[0] == 0:
        raise ShapeError(f"softmax requires a non-empty vector, got shape {v.shape}")
    s = _stable_softmax(v.data)

    def _bw(g, acc):
        acc(v, s * (g - float(g @ s)))

    return _record(s, (v,), _bw)


def log_softmax(v: DiffValue) -> DiffValue:
    """log(softmax(v)) computed without forming the softmax, so it stays finite."""
    if v.data.ndim != 1 or v.shape[0] == 0:
        raise ShapeError(f"log_softmax requires a non-empty vector, got shape {v.shape}")
    shifted = v.data - v.data.max()
    lse = np.log(np.exp(shifted).sum())
    out_data = shifted - lse
    s = np.exp(out_data)

    def _bw(g, acc):
        acc(v, g - s * g.sum())

    return _record(out_data, (v,), _bw)


def softmax_rows(m: DiffValue) -> DiffValue:
    """Row-wise stabilized softmax of a matrix."""
    if m.data.ndim != 2 or 0 in m.shape:
        raise ShapeError(f"softmax_rows requires a non-empty matrix, got shape {m.shape}")
    # The ufunc reductions skip ndarray.max/sum's Python wrappers; same numbers.
    shifted = m.data - np.maximum.reduce(m.data, axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / np.add.reduce(e, axis=1, keepdims=True)

    def _bw(g, acc):
        acc(m, s * (g - (g * s).sum(axis=1, keepdims=True)))

    return _record(s, (m,), _bw)


def causal_softmax_rows(m: DiffValue) -> DiffValue:
    """Row i is the softmax of entries 0..i; entries beyond i are exactly zero.

    Computed by slicing rather than additive -inf masking so every intermediate
    stays finite.
    """
    if m.data.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeError(f"causal_softmax_rows requires a square matrix, got {m.shape}")
    n = m.shape[0]
    s = np.zeros_like(m.data)
    for i in range(n):
        s[i, : i + 1] = _stable_softmax(m.data[i, : i + 1])

    def _bw(g, acc):
        out = np.zeros_like(m.data)
        for i in range(n):
            si = s[i, : i + 1]
            gi = g[i, : i + 1]
            out[i, : i + 1] = si * (gi - float(gi @ si))
        acc(m, out)

    return _record(s, (m,), _bw)


def mse_distance(p: DiffValue, q: DiffValue) -> DiffValue:
    """Mean squared difference between two equal-length vectors."""
    if p.data.ndim != 1 or q.data.ndim != 1 or p.shape != q.shape:
        raise ShapeError(f"mse_distance requires equal-length vectors, got {p.shape} and {q.shape}")
    d = p.shape[0]
    diff = p.data - q.data

    def _bw(g, acc):
        coeff = 2.0 * float(g) / d
        acc(p, coeff * diff)
        acc(q, -coeff * diff)

    return _record(np.float64(diff @ diff / d), (p, q), _bw)


def cross_entropy_distance(p: DiffValue, q: DiffValue) -> DiffValue:
    """Cross entropy between softmax-normalized vectors: -sum softmax(p) * log softmax(q).

    Minimized over q when q matches p as a distribution; at p == q it equals
    the entropy of softmax(p).
    """
    if p.data.ndim != 1 or q.data.ndim != 1 or p.shape != q.shape:
        raise ShapeError(
            f"cross_entropy_distance requires equal-length vectors, got {p.shape} and {q.shape}"
        )
    return neg(dot(softmax(p), log_softmax(q)))


def token_cross_entropy(logits: DiffValue, target_ids: Sequence[int]) -> DiffValue:
    """Mean negative log-likelihood of target ids under row-wise logits."""
    targets = np.asarray(target_ids, dtype=np.intp)
    if logits.data.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
        raise ShapeError(
            f"token_cross_entropy requires (t x V) logits and t targets, got "
            f"{logits.shape} and {targets.shape}"
        )
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise ContractError("target id out of vocabulary range")
    t = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    loss = -log_probs[np.arange(t), targets].mean()
    probs = np.exp(log_probs)

    def _bw(g, acc):
        grad = probs.copy()
        grad[np.arange(t), targets] -= 1.0
        acc(logits, grad * (float(g) / t))

    return _record(np.float64(loss), (logits,), _bw)


def rowwise_mse(p: DiffValue, q: DiffValue) -> DiffValue:
    """Mean over rows of the per-row mse_distance of two B x d matrices.

    Equals the flat mean of squared differences, so one node covers a whole
    batch of vector pairs.
    """
    if p.data.ndim != 2 or p.shape != q.shape or 0 in p.shape:
        raise ShapeError(f"rowwise_mse requires equal-shape matrices, got {p.shape} and {q.shape}")
    diff = p.data - q.data

    def _bw(g, acc):
        coeff = 2.0 * float(g) / diff.size
        acc(p, coeff * diff)
        acc(q, -coeff * diff)

    return _record(np.float64((diff * diff).mean()), (p, q), _bw)


def rowwise_cross_entropy(p: DiffValue, q: DiffValue) -> DiffValue:
    """Mean over rows of cross_entropy_distance applied row by row.

    Per row: -sum softmax(p_row) * log_softmax(q_row). Gradient per row is the
    classic softmax(q) - softmax(p) for q and softmax(p) * (const - log_softmax(q))
    for p.
    """
    if p.data.ndim != 2 or p.shape != q.shape or 0 in p.shape:
        raise ShapeError(
            f"rowwise_cross_entropy requires equal-shape matrices, got {p.shape} and {q.shape}"
        )
    b = p.shape[0]

    def _log_softmax_rows(x: Array) -> Array:
        shifted = x - x.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    sp = np.exp(_log_softmax_rows(p.data))
    lsq = _log_softmax_rows(q.data)
    sq = np.exp(lsq)
    per_row = -(sp * lsq).sum(axis=1)

    def _bw(g, acc):
        coeff = float(g) / b
        inner = (sp * lsq).sum(axis=1, keepdims=True)
        acc(p, coeff * sp * (inner - lsq))
        acc(q, coeff * (sq - sp))

    return _record(np.float64(per_row.mean()), (p, q), _bw)


def zero_grads(params: Sequence[DiffValue]) -> None:
    for p in params:
        p.zero_grad()
