"""Reverse-mode differentiable arrays and the operations built on them.

Everything is float64. A ``DiffValue`` wraps a numpy array together with a
same-shape gradient accumulator; operations record closures on a graph so that
``backward`` can push gradients from a scalar loss to every leaf that requires
them. A leaf is a value no operation produced (a parameter); only leaves
receive ``.grad``, and an operation's output keeps ``grad is None``. Gradients
accumulate across ``backward`` calls; optimizers zero them after each step.
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
        # Allocated lazily: leaves get zeros via param(), or their first
        # gradient once backward reaches them; intermediates never get one.
        self.grad: Array | None = None
        self._parents: tuple[DiffValue, ...] = ()
        self._backward_fn: _BackwardFn | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

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


_FLOAT64 = np.dtype(np.float64)


def _record(data: Array, parents: tuple[DiffValue, ...], backward_fn: _BackwardFn) -> DiffValue:
    # Built field by field: this runs once per operation, and a float64 array
    # needs no np.asarray.
    out = DiffValue.__new__(DiffValue)
    out.data = data if type(data) is np.ndarray and data.dtype is _FLOAT64 else np.asarray(data, _FLOAT64)
    out.grad = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward_fn = None
    return out


def record(data: Array, parents: Sequence[DiffValue], backward_fn: _BackwardFn) -> DiffValue:
    """The output of an operation defined outside this module.

    backward_fn(g, acc) receives the output's gradient g and calls
    acc(parent, contribution) once per parent that gets a gradient.
    """
    return _record(data, tuple(parents), backward_fn)


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
    """Accumulate dL/dx into ``grad`` of every reachable leaf requiring it.

    ``loss`` must be scalar. Intermediate values pass their gradient on to
    their parents and keep ``grad is None``. Contributions are propagated per
    call, so calling twice doubles leaf gradients.
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
        if node._backward_fn is not None:
            node._backward_fn(g, accumulate)
        elif node.grad is None:
            node.grad = g.copy()  # copy: g may be shared with a sibling parent
        else:
            node.grad += g


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


def softmax(v: DiffValue) -> DiffValue:
    """Numerically-stabilized softmax of a vector; outputs sum to one."""
    if v.data.ndim != 1 or v.shape[0] == 0:
        raise ShapeError(f"softmax requires a non-empty vector, got shape {v.shape}")
    s = softmax_rows(v.data[None, :])[0]

    def _bw(g, acc):
        acc(v, s * (g - float(g @ s)))

    return _record(s, (v,), _bw)


def log_softmax(v: DiffValue) -> DiffValue:
    """log(softmax(v)) computed without forming the softmax, so it stays finite."""
    if v.data.ndim != 1 or v.shape[0] == 0:
        raise ShapeError(f"log_softmax requires a non-empty vector, got shape {v.shape}")
    out_data = v.data.copy()
    row = out_data[None, :]
    log_softmax_rows_into(row, np.empty_like(row))
    s = np.exp(out_data)

    def _bw(g, acc):
        acc(v, g - s * g.sum())

    return _record(out_data, (v,), _bw)


def softmax_rows(m: DiffValue | Array, out: Array | None = None) -> DiffValue | Array:
    """Row-wise stabilized softmax of a matrix.

    A plain array gives a plain array with the same numbers as the DiffValue
    path's .data, and records nothing: graph-free callers skip the wrapping.
    Such a caller may pass out=m to have the softmax written over m's own
    entries, with the same numbers; any other out raises ContractError.
    """
    data = m if isinstance(m, np.ndarray) else m.data
    if out is not None and (out is not m or m is not data):
        raise ContractError("softmax_rows writes in place only over its own plain-array input (out=m)")
    if data.ndim != 2 or 0 in data.shape:
        raise ShapeError(f"softmax_rows requires a non-empty matrix, got shape {data.shape}")
    # The ufunc reductions skip ndarray.max/sum's Python wrappers; same numbers.
    # Without out, the subtraction makes the one new array the later steps reuse.
    s = np.subtract(data, np.maximum.reduce(data, axis=1, keepdims=True), out=out)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=1, keepdims=True)
    if m is data:
        return s

    def _bw(g, acc):
        acc(m, s * (g - (g * s).sum(axis=1, keepdims=True)))

    return _record(s, (m,), _bw)


def causal_softmax_rows(m: DiffValue) -> DiffValue:
    """Row i is the softmax of entries 0..i; entries beyond i are exactly +0.0.

    Entries beyond the diagonal are masked to -inf, whose exp is +0.0, so the
    whole matrix goes through each elementwise step at once. The row sums and
    the backward row dots still run one row at a time, over entries 0..i
    only: their summation order depends on the length summed, and each row
    must round as the softmax of its own slice does.
    """
    if m.data.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeError(f"causal_softmax_rows requires a square matrix, got {m.shape}")
    n = m.shape[0]
    lower = np.tri(n, dtype=bool)
    masked = np.where(lower, m.data, -np.inf)
    e = np.exp(masked - np.maximum.reduce(masked, axis=1, keepdims=True))
    sums = np.array([np.add.reduce(e[i, : i + 1]) for i in range(n)])
    s = e / sums[:, None]

    def _bw(g, acc):
        dots = np.array([g[i, : i + 1] @ s[i, : i + 1] for i in range(n)])
        # where= leaves the upper triangle at +0.0: s * (g - dot) there could be -0.0.
        acc(m, np.multiply(s, g - dots[:, None], out=np.zeros_like(s), where=lower))

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
    log_probs = log_softmax_rows_into(logits.data.copy(), np.empty_like(logits.data))
    loss = -log_probs[np.arange(t), targets].mean()
    probs = np.exp(log_probs)

    def _bw(g, acc):
        grad = probs.copy()
        grad[np.arange(t), targets] -= 1.0
        acc(logits, grad * (float(g) / t))

    return _record(np.float64(loss), (logits,), _bw)


# The row-wise distances' math. rowwise_mse and rowwise_cross_entropy use
# these helpers on new arrays; the calibration objective (calibration.py)
# uses them in place, on B x d buffers it owns, and gets the same numbers.

def log_softmax_rows_into(x: Array, work: Array) -> Array:
    """Row-wise log_softmax of x, written over x; work, of x's shape, is scratch."""
    x -= np.maximum.reduce(x, axis=1, keepdims=True)
    x -= np.log(np.add.reduce(np.exp(x, out=work), axis=1, keepdims=True))
    return x


def softmax_targets(p: Array) -> Array:
    """rowwise_cross_entropy's target side as a new array: the softmax of each row of p, as exp(log_softmax).

    Each row's numbers depend on that row alone, so gathering rows of the
    result equals computing it on the gathered rows.
    """
    out = np.array(p, dtype=np.float64)
    return np.exp(log_softmax_rows_into(out, np.empty_like(out)), out=out)


def mse_value(diff: Array, work: Array | None = None) -> np.float64:
    """rowwise_mse from diff = p - q; work, of diff's shape (it may be diff), receives the squares.

    Without work the squares go to a new array.
    """
    return np.float64(np.multiply(diff, diff, out=work).mean())


def mse_grad_q(diff: Array, g, out: Array | None = None) -> Array:
    """rowwise_mse's gradient with respect to q, for upstream gradient g, from diff = p - q."""
    return np.multiply(diff, -(2.0 * float(g) / diff.size), out=out)


def cross_entropy_value(sp: Array, lsq: Array, work: Array | None = None) -> np.float64:
    """rowwise_cross_entropy from the target rows sp = softmax(p) and lsq = log_softmax(q).

    The rows lie along the last axis, and sp may broadcast against lsq (the
    calibration objective passes n x 1 x d targets for n x P x d rows). work,
    of lsq's shape (it may be lsq), receives sp * lsq; without it the
    products go to a new array.
    """
    return np.float64((-np.add.reduce(np.multiply(sp, lsq, out=work), axis=-1)).mean())


def cross_entropy_grad_q(sq: Array, sp: Array, g, out: Array | None = None) -> Array:
    """rowwise_cross_entropy's gradient with respect to q, for upstream gradient g: (sq - sp) * g / B.

    sq = softmax(q) and sp = softmax(p), rows along the last axis; sp may
    broadcast against sq, and B counts sq's rows. out may be sq.
    """
    out = np.subtract(sq, sp, out=out)
    out *= float(g) / (sq.size // sq.shape[-1])
    return out


def rowwise_mse(p: DiffValue, q: DiffValue) -> DiffValue:
    """Mean over rows of the per-row mse_distance of two B x d matrices.

    Equals the flat mean of squared differences, so one node covers a whole
    batch of vector pairs.
    """
    if p.data.ndim != 2 or p.shape != q.shape or 0 in p.shape:
        raise ShapeError(f"rowwise_mse requires equal-shape matrices, got {p.shape} and {q.shape}")
    diff = p.data - q.data

    def _bw(g, acc):
        grad_q = mse_grad_q(diff, g)
        acc(p, -grad_q)
        acc(q, grad_q)

    return _record(mse_value(diff), (p, q), _bw)


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
    sp = softmax_targets(p.data)
    lsq = log_softmax_rows_into(q.data.copy(), np.empty_like(sp))

    def _bw(g, acc):
        coeff = float(g) / b
        inner = (sp * lsq).sum(axis=1, keepdims=True)
        acc(p, coeff * sp * (inner - lsq))
        acc(q, cross_entropy_grad_q(np.exp(lsq), sp, g))

    return _record(cross_entropy_value(sp, lsq), (p, q), _bw)
