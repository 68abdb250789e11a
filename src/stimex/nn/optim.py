"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from stimex.nn.tensor import Parameter


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: list[Parameter], lr: float = 0.003):
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self.lr = lr
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One bias-corrected update, with ``m`` and ``v`` updated in place.

        Each product and quotient is the textbook formula's own operation,
        ``b1*m + (1-b1)*g``, ``b2*v + (1-b2)*(g*g)`` and
        ``lr*m_hat / (sqrt(v_hat)+eps)``, so the result is bit-identical to it.
        Per parameter, one scratch array holds the other terms in turn and
        one more the update.
        """
        self.t += 1
        b1, b2 = BETA1, BETA2
        m_scale, v_scale = 1 - b1**self.t, 1 - b2**self.t
        for p in self.params:
            grad = p.grad
            if grad is None:
                grad = np.zeros_like(p.data)
            if grad.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match parameter "
                    f"{p.name!r} of shape {p.data.shape}"
                )
            m, v = self.m[p.name], self.v[p.name]
            scratch = (1 - b1) * grad
            m *= b1
            m += scratch
            np.multiply(grad, grad, out=scratch)
            scratch *= 1 - b2
            v *= b2
            v += scratch
            np.divide(v, v_scale, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += EPS  # sqrt(v_hat) + eps
            update = m / m_scale
            update *= self.lr
            update /= scratch
            p.data -= update
