"""Recurrent encoder, self-attention, pooling, dropout, linear projection and
cross-entropy, over sequences packed as consecutive rows."""

from __future__ import annotations

import itertools

import numpy as np

from stimex.nn.tensor import Parameter, Tensor, _accum, concat, stable_sigmoid


def glorot_uniform(rng: np.random.Generator | None, rows: int, cols: int) -> np.ndarray:
    """Glorot-uniform weights; with ``rng=None`` an uninitialised array, for a
    checkpoint to overwrite."""
    if rng is None:
        return np.empty((rows, cols))
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _packed_spans(n: int, lengths) -> list[tuple[int, int]]:
    """(start, size) of each of R sequences laid end to end as ``n`` rows."""
    if n == 0 or min(lengths, default=0) < 1:
        raise ValueError("empty sequence among the packed rows")
    if sum(lengths) != n:
        raise ValueError(f"sequence lengths sum to {sum(lengths)}, not to the {n} input rows")
    return list(zip(itertools.accumulate(lengths, initial=0), lengths))


def _pad(rows: np.ndarray, spans, reverse: bool = False) -> np.ndarray:
    """Packed (N, d) rows to a zero-padded step-major (T, R, d) grid, T the
    longest of the R ``spans``, each sequence from step 0 and, with
    ``reverse``, reversed within its own length."""
    flip = slice(None, None, -1) if reverse else slice(None)
    grid = np.zeros((max(size for _, size in spans), len(spans), rows.shape[1]))
    for r, (start, size) in enumerate(spans):
        grid[:size, r] = rows[start : start + size][flip]
    return grid


def _unpad(grid: np.ndarray, spans, reverse: bool = False) -> np.ndarray:
    """The packed rows of a grid laid out by ``_pad`` with the same arguments."""
    flip = slice(None, None, -1) if reverse else slice(None)
    rows = np.empty((sum(size for _, size in spans), grid.shape[2]))
    for r, (start, size) in enumerate(spans):
        rows[start : start + size] = grid[:size, r][flip]
    return rows


class Lstm:
    """Single-direction LSTM cell applied over a sequence.

    Gates are ordered (input, forget, cell, output) in the packed weight
    matrices; the forget-gate bias is initialized to 1.
    """

    def __init__(
        self, name: str, input_dim: int, hidden_dim: int, rng: np.random.Generator | None
    ):
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(f"{name}.w_x", glorot_uniform(rng, input_dim, 4 * hidden_dim))
        self.w_h = Parameter(f"{name}.w_h", glorot_uniform(rng, hidden_dim, 4 * hidden_dim))
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0
        self.bias = Parameter(f"{name}.bias", bias)

    def parameters(self) -> list[Parameter]:
        return [self.w_x, self.w_h, self.bias]

    def states(self, xs: Tensor, lengths, reverse: bool = False) -> Tensor:
        """Hidden states of sequences laid end to end, as one (N, h) graph node.

        ``xs`` holds R sequences of the given ``lengths`` as consecutive rows;
        output row k is the state at input row k, in either direction.  The
        recurrence runs over max(lengths) steps on step-major (T, R, .)
        arrays, one GEMM per step for all R sequences.  Each sequence is
        right-padded, and reversed within its own length when ``reverse`` is
        set, so all of them start at step 0; padded rows compute on zero
        input, are never read, and their gradient is exactly zero, so the
        loop needs no masks.  The input projection and the ``w_x``, ``w_h``,
        ``bias`` and ``xs`` gradients work on the N packed rows, where
        padding costs nothing.

        The forward pass runs in plain NumPy, in the operation order of the
        per-step graph it replaces, ``(xw[t] + h @ w_h) + bias``, so for one
        sequence its values are bit-identical to that graph's.  It caches,
        per step, the gate activations ``acts`` (input, forget and output
        gates after the sigmoid, cell candidate after tanh), the cell state
        ``cs`` and its ``tanh``, ``tcs``; with the outputs ``hs`` these are
        everything the backward pass needs.
        """
        spans = _packed_spans(xs.shape[0], lengths)
        steps, width = max(size for _, size in spans), len(spans)

        def to_steps(rows):
            return _pad(rows, spans, reverse)

        def to_rows(grid):
            return _unpad(grid, spans, reverse)

        hd = self.hidden_dim
        w_x, w_h, bias = self.w_x, self.w_h, self.bias
        xw = to_steps(xs.data @ w_x.data)  # projection of the packed rows in one shot
        w_h_data, bias_data = w_h.data, bias.data
        acts = np.empty((steps, width, 4 * hd))
        cs = np.empty((steps, width, hd))
        tcs = np.empty((steps, width, hd))
        hs = np.empty((steps, width, hd))
        i, f, g, o = (acts[..., k * hd : (k + 1) * hd] for k in range(4))
        h = np.zeros((width, hd))
        c = np.zeros((width, hd))
        for t in range(steps):
            pre = xw[t] + h @ w_h_data + bias_data
            acts[t] = stable_sigmoid(pre)
            np.tanh(pre[:, 2 * hd : 3 * hd], out=g[t])
            c = np.multiply(f[t], c, out=cs[t])
            c += i[t] * g[t]
            h = np.multiply(o[t], np.tanh(c, out=tcs[t]), out=hs[t])
        out = Tensor(to_rows(hs))

        def backward():
            """Backpropagation through time over the cached steps.

            Only ``dh`` and ``dc`` flow between steps; the loop writes each
            step's pre-activation gradient into one (T, R, 4h) array, whose N
            real rows give the gradients of ``w_x``, ``w_h``, ``bias`` and
            ``xs`` in a single matmul or sum each.
            """
            h_prev = np.zeros_like(hs)
            c_prev = np.zeros_like(cs)
            h_prev[1:], c_prev[1:] = hs[:-1], cs[:-1]
            # d pre / d (dc) for the i, f, g blocks and d pre / d (dh) for o,
            # each with its nonlinearity's derivative folded in.
            by_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)], axis=2)
            by_dh = tcs * o * (1.0 - o)
            dc_by_dh = o * (1.0 - tcs * tcs)
            d_pre = np.empty((steps, width, 4, hd))
            dh_out = to_steps(out.grad)
            w_h_t = w_h_data.T
            dh = np.zeros((width, hd))
            dc = np.zeros((width, hd))
            for t in reversed(range(steps)):
                dh = dh_out[t] + dh
                dc = dc + dh * dc_by_dh[t]
                d_pre[t, :, :3] = by_dc[t] * dc[:, None]
                d_pre[t, :, 3] = dh * by_dh[t]
                dh = d_pre[t].reshape(width, 4 * hd) @ w_h_t
                dc = dc * f[t]
            d_pre = to_rows(d_pre.reshape(steps, width, 4 * hd))
            if xs.requires_grad:
                _accum(xs, d_pre @ w_x.data.T)
            if w_x.requires_grad:
                _accum(w_x, xs.data.T @ d_pre)
            if w_h.requires_grad:
                _accum(w_h, to_rows(h_prev).T @ d_pre)
            if bias.requires_grad:
                _accum(bias, d_pre.sum(axis=0))

        return out._attach((xs, w_x, w_h, bias), backward)


class BiLstm:
    def __init__(
        self, name: str, input_dim: int, hidden_dim: int, rng: np.random.Generator | None
    ):
        self.fwd = Lstm(f"{name}.fwd", input_dim, hidden_dim, rng)
        self.bwd = Lstm(f"{name}.bwd", input_dim, hidden_dim, rng)

    def parameters(self) -> list[Parameter]:
        return self.fwd.parameters() + self.bwd.parameters()

    def run(self, xs: Tensor, lengths) -> tuple[Tensor, Tensor]:
        """Forward and backward hidden states, each (N, h), of packed sequences."""
        return self.fwd.states(xs, lengths), self.bwd.states(xs, lengths, reverse=True)

    def __call__(self, xs: Tensor, lengths) -> Tensor:
        return concat(self.run(xs, lengths), axis=1)  # (N, 2h)


def attention(h: Tensor, lengths) -> Tensor:
    """Dot-product self-attention over packed sequences, as one (N, 2d) graph node.

    ``h`` holds R sequences of the given ``lengths`` as consecutive (N, d)
    rows, as for ``Lstm.states``.  Output row i is ``[h_i ; sum_j a_ij h_j]``,
    j running over row i's own sequence only.  The weights are a softmax over
    scores against every position of that sequence, ``j = i`` included, so a
    sequence of one row has its input as its context.

    Per sequence, the forward pass runs the NumPy operations of the graph
    ``concat([h, softmax(h @ h.T) @ h])``: the scores ``h @ h.T``, their
    softmax by row (shifted by the row maximum), then ``w @ h``, so its
    values are bit-identical to that graph's.  The backward pass is that
    graph's gradient, written out per sequence: the softmax vector-Jacobian
    product, and a matmul term into ``dh`` for each use of ``h``.
    """
    spans = _packed_spans(h.shape[0], lengths)
    x = h.data
    d = x.shape[1]
    out_data = np.empty((len(x), 2 * d))
    out_data[:, :d] = x
    weights = []
    for start, size in spans:
        hb = x[start : start + size]
        scores = hb @ hb.T
        e = np.exp(scores - np.max(scores, axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        out_data[start : start + size, d:] = w @ hb
        weights.append(w)
    out = Tensor(out_data)

    def backward():
        dh = out.grad[:, :d].copy()
        for (start, size), w in zip(spans, weights):
            rows = slice(start, start + size)
            hb, d_ctx = x[rows], out.grad[rows, d:]
            d_w = d_ctx @ hb.T
            d_scores = w * (d_w - (d_w * w).sum(axis=1, keepdims=True))
            dh[rows] += w.T @ d_ctx + d_scores @ hb + d_scores.T @ hb
        _accum(h, dh)

    return out._attach((h,), backward)


def segment_mean(x: Tensor, lengths) -> Tensor:
    """Mean of the rows of each of R packed sequences, as one (R, d) graph node.

    Row r is ``block.sum(axis=0) * (1.0 / k)`` over the k rows of sequence r,
    the operations of a sum node followed by a scaling node.
    """
    spans = _packed_spans(x.shape[0], lengths)
    scale = np.array([1.0 / size for _, size in spans])[:, None]
    sums = np.stack([x.data[start : start + size].sum(axis=0) for start, size in spans])
    out = Tensor(sums * scale)

    def backward():
        _accum(x, np.repeat(out.grad * scale, [size for _, size in spans], axis=0))

    return out._attach((x,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) during training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


class Linear:
    def __init__(
        self, name: str, input_dim: int, output_dim: int, rng: np.random.Generator | None
    ):
        self.weight = Parameter(f"{name}.weight", glorot_uniform(rng, input_dim, output_dim))
        self.bias = Parameter(f"{name}.bias", np.zeros(output_dim))

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Summed negative log-softmax of each row's target logit, as one graph node.

    ``logits`` is (R, C), with one target per row.  Row r's loss is
    ``logsumexp(z_r) - z_r[t_r]``, with the log-sum-exp shifted by the row
    maximum, and the total is a left fold in row order, so it equals adding
    the per-row graph losses bit for bit.  The gradient of each row is its
    softmax minus the target's one-hot.
    """
    z = logits.data
    targets = np.asarray(targets, dtype=int)
    classes = z.shape[1]
    if targets.shape != (len(z),):
        raise ValueError(f"{targets.size} targets for {len(z)} rows of logits")
    for target in targets:
        if not 0 <= target < classes:
            raise ValueError(f"target {target} out of range for {classes} classes")
    m = np.max(z, axis=1, keepdims=True)
    log_z = m + np.log(np.sum(np.exp(z - m), axis=1, keepdims=True))
    rows = np.arange(len(z))
    losses = (log_z[:, 0] - z[rows, targets]).tolist()
    out = Tensor(sum(losses[1:], start=losses[0]))

    def backward():
        d = np.exp(z - log_z)
        d[rows, targets] -= 1.0
        _accum(logits, out.grad * d)

    return out._attach((logits,), backward)
