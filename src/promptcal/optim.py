"""Parameter update rules: plain gradient descent and the adaptive-moment rule.

Both operate on a fixed sequence of trainable ``DiffValue`` leaves. A step
updates parameters in place from their accumulated gradients, zeroes the
gradients, and increments the step counter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import DiffValue
from .errors import ContractError


def _check_params(params: Sequence[DiffValue]) -> tuple[DiffValue, ...]:
    out = tuple(params)
    if not out:
        raise ContractError("optimizer requires at least one parameter")
    for p in out:
        if not p.requires_grad:
            raise ContractError("optimizer parameters must have requires_grad=True")
    return out


class GradientDescent:
    """theta <- theta - lr * grad."""

    def __init__(self, params: Sequence[DiffValue], learning_rate: float = 1e-3):
        if learning_rate <= 0:
            raise ContractError(f"learning_rate must be positive, got {learning_rate}")
        self.params = _check_params(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:  # nothing accumulated: a zero-gradient no-op
                continue
            p.data -= self.learning_rate * p.grad
            p.grad[...] = 0.0
        self.step_count += 1


class Adam:
    """Adaptive-moment rule with bias-corrected first and second moments."""

    def __init__(
        self,
        params: Sequence[DiffValue],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ContractError(f"learning_rate must be positive, got {learning_rate}")
        self.params = _check_params(params)
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            v *= self.beta2
            if g is not None:
                m += (1.0 - self.beta1) * g
                v += (1.0 - self.beta2) * g * g
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if g is not None:
                p.grad[...] = 0.0
