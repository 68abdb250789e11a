"""Recurrent encoder, self-attention, dropout and linear projection."""

from __future__ import annotations

import numpy as np

from stimex.nn.tensor import Parameter, Tensor, _accum, concat, stable_sigmoid


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


class Lstm:
    """Single-direction LSTM cell applied over a sequence.

    Gates are ordered (input, forget, cell, output) in the packed weight
    matrices; the forget-gate bias is initialized to 1.
    """

    def __init__(self, name: str, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(f"{name}.w_x", glorot_uniform(rng, input_dim, 4 * hidden_dim))
        self.w_h = Parameter(f"{name}.w_h", glorot_uniform(rng, hidden_dim, 4 * hidden_dim))
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0
        self.bias = Parameter(f"{name}.bias", bias)

    def parameters(self) -> list[Parameter]:
        return [self.w_x, self.w_h, self.bias]

    def states(self, xs: Tensor, reverse: bool = False) -> Tensor:
        """Hidden states as one (n, h) graph node, row t at original position t.

        The forward pass runs in plain NumPy, step by step, in the operation
        order of the per-step graph it replaces, ``(xw[t] + h @ w_h) + bias``,
        so its values are bit-identical to that graph's.  It caches, per
        position, the gate activations ``acts`` (input, forget and output
        gates after the sigmoid, cell candidate after tanh), the cell state
        ``cs`` and its ``tanh``, ``tcs``; with the outputs ``hs`` these are
        everything the backward pass needs.
        """
        n = xs.shape[0]
        if n == 0:
            raise ValueError("cannot encode an empty sequence")
        hd = self.hidden_dim
        w_x, w_h, bias = self.w_x, self.w_h, self.bias
        xw = xs.data @ w_x.data  # (n, 4h) in one shot
        w_h_data, bias_data = w_h.data, bias.data
        acts = np.empty_like(xw)
        cs = np.empty((n, hd))
        tcs = np.empty((n, hd))
        hs = np.empty((n, hd))
        h = np.zeros(hd)
        c = np.zeros(hd)
        order = range(n - 1, -1, -1) if reverse else range(n)
        for t in order:
            pre = xw[t] + h @ w_h_data + bias_data
            a = acts[t]
            a[:] = stable_sigmoid(pre)
            a[2 * hd : 3 * hd] = np.tanh(pre[2 * hd : 3 * hd])
            c = a[hd : 2 * hd] * c + a[0:hd] * a[2 * hd : 3 * hd]
            cs[t] = c
            h = hs[t] = a[3 * hd : 4 * hd] * np.tanh(c, out=tcs[t])
        out = Tensor(hs)

        def backward():
            """Backpropagation through time over the cached sequence.

            Only ``dh`` and ``dc`` flow between steps; the loop writes each
            step's pre-activation gradient into one (n, 4h) array, from which
            the gradients of ``w_x``, ``w_h``, ``bias`` and ``xs`` each follow
            in a single matmul or sum over the whole sequence.
            """
            h_prev = np.zeros((n, hd))
            c_prev = np.zeros((n, hd))
            inner = slice(1, n) if reverse else slice(0, n - 1)
            shifted = slice(0, n - 1) if reverse else slice(1, n)
            h_prev[shifted], c_prev[shifted] = hs[inner], cs[inner]
            i, f, g, o = (acts[:, k * hd : (k + 1) * hd] for k in range(4))
            # d pre / d (dc) for the i, f, g blocks and d pre / d (dh) for o,
            # each with its nonlinearity's derivative folded in.
            by_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)], axis=1)
            by_dh = tcs * o * (1.0 - o)
            dc_by_dh = o * (1.0 - tcs * tcs)
            d_pre = np.empty((n, 4, hd))
            dh_out = out.grad
            dh = np.zeros(hd)
            dc = np.zeros(hd)
            for t in reversed(order):
                dh = dh_out[t] + dh
                dc = dc + dh * dc_by_dh[t]
                d_pre[t, :3] = by_dc[t] * dc
                d_pre[t, 3] = dh * by_dh[t]
                dh = w_h_data @ d_pre[t].ravel()
                dc = dc * f[t]
            d_pre = d_pre.reshape(n, 4 * hd)
            if xs.requires_grad:
                _accum(xs, d_pre @ w_x.data.T)
            if w_x.requires_grad:
                _accum(w_x, xs.data.T @ d_pre)
            if w_h.requires_grad:
                _accum(w_h, h_prev.T @ d_pre)
            if bias.requires_grad:
                _accum(bias, d_pre.sum(axis=0))

        return out._attach((xs, w_x, w_h, bias), backward)


class BiLstm:
    def __init__(self, name: str, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.fwd = Lstm(f"{name}.fwd", input_dim, hidden_dim, rng)
        self.bwd = Lstm(f"{name}.bwd", input_dim, hidden_dim, rng)

    def parameters(self) -> list[Parameter]:
        return self.fwd.parameters() + self.bwd.parameters()

    def run(self, xs: Tensor) -> tuple[Tensor, Tensor]:
        """Forward and backward hidden states, each (n, h)."""
        return self.fwd.states(xs), self.bwd.states(xs, reverse=True)

    def __call__(self, xs: Tensor) -> Tensor:
        return concat(self.run(xs), axis=1)  # (n, 2h)


def attention(h: Tensor, include_self: bool = True) -> Tensor:
    """Dot-product self-attention: each row becomes ``[h_i ; sum_j a_ij h_j]``.

    Weights are a softmax over scores against every position, including
    ``j = i`` by default.  With a single position the context equals the
    input regardless of ``include_self``.
    """
    n = h.shape[0]
    scores = h @ h.T
    if not include_self and n > 1:
        mask = np.where(np.eye(n, dtype=bool), -np.inf, 0.0)
        scores = scores + Tensor(mask)
    weights = scores.softmax(axis=1)
    return concat([h, weights @ h], axis=1)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) during training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


class Linear:
    def __init__(self, name: str, input_dim: int, output_dim: int, rng: np.random.Generator):
        self.weight = Parameter(f"{name}.weight", glorot_uniform(rng, input_dim, output_dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(output_dim))

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """Negative log-softmax of the target logit."""
    if not 0 <= target < logits.shape[-1]:
        raise ValueError(f"target {target} out of range for {logits.shape[-1]} classes")
    return logits.logsumexp() - logits[target]
