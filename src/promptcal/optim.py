"""Parameter update rules: plain gradient descent and the adaptive-moment rule.

Both operate on a fixed sequence of trainable ``DiffValue`` leaves, and an
optimizer owns its parameters' storage: at construction it copies every
parameter's data and gradient, in list order, into one float64 buffer each
and rebinds ``p.data`` and ``p.grad`` to reshaped views of those buffers, so a
step updates the whole model in a few ufunc calls. ``backward`` and
``zero_grad`` write gradients in place and keep the views. Rebinding a
parameter's ``.data`` or ``.grad`` afterwards detaches that parameter: the
optimizer then neither reads its new gradient nor updates its new data. A
step updates parameters in place from their accumulated gradients, zeroes the
gradients, and increments the step counter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import DiffValue
from .errors import ContractError

# Floats per slice of an Adam step, which also sizes its one scratch buffer.
# tools/ab_optim.py on the pretrain benchmark model's 131,904 trainable floats
# (2 vCPUs, numpy 2.4, median of 400 steps): the per-parameter loop took
# 2.02-2.05 ms, the whole buffer at once 1.36-1.41 ms, and chunks of 8,192,
# 16,384 and 32,768 floats 1.53-1.56, 1.35-1.38 and 1.33-1.36 ms, all with
# identical parameters. Peak RSS of three 6-epoch pretrains in one process:
# 32,768-float chunks read 0.25 MiB above the per-parameter loop, 16,384-float
# chunks the same as it within run-to-run noise (0.15 MiB).
_CHUNK = 16384


def _check_params(params: Sequence[DiffValue]) -> tuple[DiffValue, ...]:
    out = tuple(params)
    if not out:
        raise ContractError("optimizer requires at least one parameter")
    for p in out:
        if not p.requires_grad:
            raise ContractError("optimizer parameters must have requires_grad=True")
    if len(set(out)) != len(out):
        raise ContractError("optimizer parameters must be distinct; one is listed twice")
    return out


class _FlatOptimizer:
    """The shared setup: parameters and gradients become views of two flat buffers."""

    def __init__(self, params: Sequence[DiffValue], learning_rate: float):
        if learning_rate <= 0:
            raise ContractError(f"learning_rate must be positive, got {learning_rate}")
        self.params = _check_params(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        size = sum(p.data.size for p in self.params)
        self._data = np.empty(size, dtype=np.float64)
        self._grad = np.zeros(size, dtype=np.float64)
        start = 0
        for p in self.params:
            stop = start + p.data.size
            data = self._data[start:stop].reshape(p.data.shape)
            grad = self._grad[start:stop].reshape(p.data.shape)
            data[...] = p.data
            if p.grad is not None:
                grad[...] = p.grad
            p.data, p.grad = data, grad
            start = stop


class GradientDescent(_FlatOptimizer):
    """theta <- theta - lr * grad."""

    def step(self) -> None:
        self._data -= self.learning_rate * self._grad
        self._grad[...] = 0.0
        self.step_count += 1


class Adam(_FlatOptimizer):
    """Adaptive-moment rule with bias-corrected first and second moments (Kingma & Ba 2015)."""

    def __init__(
        self,
        params: Sequence[DiffValue],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(params, learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._chunk = _CHUNK
        self._scratch = np.empty(min(_CHUNK, self._data.size), dtype=np.float64)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, eps = self.beta1, self.beta2, self.learning_rate, self.eps
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        # Per element, in this order: m = m*b1 + (1-b1)*g; v = v*b2 + ((1-b2)*g)*g;
        # p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps); g = 0.
        for lo in range(0, self._data.size, self._chunk):
            hi = lo + self._chunk
            p, g, m, v = self._data[lo:hi], self._grad[lo:hi], self._m[lo:hi], self._v[lo:hi]
            s = self._scratch[: p.size]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s)
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            np.divide(m, bc1, out=s)
            s *= lr
            # The moments no longer need g, so its chunk is the second scratch.
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += eps
            s /= g
            p -= s
            g[...] = 0.0
