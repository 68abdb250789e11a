"""Recurrent encoder, self-attention, pooling, dropout, linear projection and
cross-entropy, over sequences packed as consecutive rows."""

from __future__ import annotations

import itertools

import numpy as np

from stimex.nn.tensor import Parameter, Tensor, _accum, stable_sigmoid


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


def _pad(rows: np.ndarray, spans, reverse: bool = False, grid=None) -> np.ndarray:
    """Packed (N, d) rows to a zero-padded step-major (T, R, d) ``grid``, new
    if not given, T the longest of the R ``spans``, each sequence from step 0
    and, with ``reverse``, reversed within its own length."""
    flip = slice(None, None, -1) if reverse else slice(None)
    if grid is None:
        grid = np.zeros((max(size for _, size in spans), len(spans), rows.shape[1]))
    for r, (start, size) in enumerate(spans):
        grid[:size, r] = rows[start : start + size][flip]
    return grid


def _unpad(grid: np.ndarray, spans, reverse: bool = False, rows=None) -> np.ndarray:
    """The packed ``rows``, new if not given, of a grid laid out by ``_pad``."""
    flip = slice(None, None, -1) if reverse else slice(None)
    if rows is None:
        rows = np.empty((sum(size for _, size in spans), grid.shape[2]))
    for r, (start, size) in enumerate(spans):
        rows[start : start + size] = grid[:size, r][flip]
    return rows


def _lstm(cells, reverse, xs: Tensor, lengths) -> Tensor:
    """Hidden states of D LSTM ``cells`` over the same packed sequences, as one
    (N, D*h) graph node whose columns ``d*h:(d+1)*h`` are cell d's states.

    ``xs`` holds R sequences of the given ``lengths`` as consecutive rows.
    All D cells run in one loop over max(lengths) steps on step-major
    (T, D, R, .) arrays: one stacked (D, R, h) @ (D, h, 4h) matmul per step,
    and each elementwise operation covers every cell.  Each sequence is
    right-padded, and reversed within its own length where ``reverse[d]`` is
    set; padded rows compute on zero input, are never read and get an exactly
    zero gradient, so the loop needs no masks.  The input projection and the
    parameter and ``xs`` gradients take one matmul or sum per cell.

    The forward pass keeps the per-step graph's operation order,
    ``(xw[t] + h @ w_h) + bias``, so a cell's values are bit-identical to
    that graph's, whatever cells run beside it.  It caches what
    backpropagation through time needs: the gate activations ``acts``, the
    cell states ``cs``, their tanh ``tcs`` and the outputs ``hs``.
    """
    spans = _packed_spans(xs.shape[0], lengths)
    steps, depth, width = max(size for _, size in spans), len(cells), len(spans)
    hd = cells[0].hidden_dim
    w_h = np.stack([cell.w_h.data for cell in cells])  # (D, h, 4h)
    bias = np.stack([cell.bias.data for cell in cells])[:, None]  # (D, 1, 4h)
    xw = np.zeros((steps, depth, width, 4 * hd))
    for d, (cell, rev) in enumerate(zip(cells, reverse)):
        _pad(xs.data @ cell.w_x.data, spans, rev, xw[:, d])
    acts = np.empty((steps, depth, width, 4 * hd))
    cs, tcs, hs = np.empty((3, steps, depth, width, hd))
    i, f, g, o = (acts[..., k * hd : (k + 1) * hd] for k in range(4))
    h, c = np.zeros((2, depth, width, hd))
    for t in range(steps):
        pre = xw[t] + h @ w_h
        pre += bias
        acts[t] = stable_sigmoid(pre)
        np.tanh(pre[..., 2 * hd : 3 * hd], out=g[t])
        c = np.multiply(f[t], c, out=cs[t])
        c += i[t] * g[t]
        h = np.multiply(o[t], np.tanh(c, out=tcs[t]), out=hs[t])
    out = np.empty((xs.shape[0], depth * hd))
    for d, rev in enumerate(reverse):
        _unpad(hs[:, d], spans, rev, out[:, d * hd : (d + 1) * hd])

    def backward(grad):
        h_prev, c_prev = np.zeros((2, *hs.shape))
        h_prev[1:], c_prev[1:] = hs[:-1], cs[:-1]
        # d pre / d (dc) for the i, f, g blocks and d pre / d (dh) for o,
        # each with its nonlinearity's derivative folded in.
        by_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)], axis=3)
        by_dh = tcs * o * (1.0 - o)
        dc_by_dh = o * (1.0 - tcs * tcs)
        d_pre = np.empty((steps, depth, width, 4, hd))
        dh_out = np.zeros_like(hs)
        for d, rev in enumerate(reverse):
            _pad(grad[:, d * hd : (d + 1) * hd], spans, rev, dh_out[:, d])
        w_h_t = w_h.transpose(0, 2, 1)
        dh, dc = np.zeros((2, depth, width, hd))
        for t in reversed(range(steps)):
            dh = dh_out[t] + dh
            dc = dc + dh * dc_by_dh[t]
            d_pre[t, :, :, :3] = by_dc[t] * dc[:, :, None]
            d_pre[t, :, :, 3] = dh * by_dh[t]
            dh = d_pre[t].reshape(depth, width, 4 * hd) @ w_h_t
            dc = dc * f[t]
        d_pre = d_pre.reshape(steps, depth, width, 4 * hd)
        for d, (cell, rev) in enumerate(zip(cells, reverse)):
            rows = _unpad(d_pre[:, d], spans, rev)
            if xs.requires_grad:
                _accum(xs, rows @ cell.w_x.data.T)
            _accum(cell.w_x, xs.data.T @ rows)
            _accum(cell.w_h, _unpad(h_prev[:, d], spans, rev).T @ rows)
            _accum(cell.bias, rows.sum(axis=0))

    params = (p for cell in cells for p in cell.parameters())
    return Tensor(out)._attach((xs, *params), backward)


class Lstm:
    """Single-direction LSTM cell applied over packed sequences.

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
        """(N, h) hidden states of packed sequences, each read backwards when
        ``reverse`` is set: ``_lstm`` with one cell."""
        return _lstm((self,), (reverse,), xs, lengths)


class BiLstm:
    """A forward and a backward ``Lstm``, run in one time loop by ``_lstm``."""

    def __init__(
        self, name: str, input_dim: int, hidden_dim: int, rng: np.random.Generator | None
    ):
        self.fwd = Lstm(f"{name}.fwd", input_dim, hidden_dim, rng)
        self.bwd = Lstm(f"{name}.bwd", input_dim, hidden_dim, rng)

    def parameters(self) -> list[Parameter]:
        return self.fwd.parameters() + self.bwd.parameters()

    def run(self, xs: Tensor, lengths) -> tuple[Tensor, Tensor]:
        """Forward and backward hidden states, each (N, h), of packed sequences."""
        out, hd = self(xs, lengths), self.fwd.hidden_dim
        return out[:, :hd], out[:, hd:]

    def __call__(self, xs: Tensor, lengths) -> Tensor:
        return _lstm((self.fwd, self.bwd), (False, True), xs, lengths)  # (N, 2h)


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

    def backward(grad):
        dh = grad[:, :d].copy()
        for (start, size), w in zip(spans, weights):
            rows = slice(start, start + size)
            hb, d_ctx = x[rows], grad[rows, d:]
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

    def backward(grad):
        _accum(x, np.repeat(grad * scale, [size for _, size in spans], axis=0))

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

    def backward(grad):
        d = np.exp(z - log_z)
        d[rows, targets] -= 1.0
        _accum(logits, grad * d)

    return out._attach((logits,), backward)
