"""Recurrent encoder, self-attention, pooling, dropout, linear projection and
cross-entropy, over sequences packed as consecutive rows."""

from __future__ import annotations

import itertools

import numpy as np

from stimex.nn.tensor import Parameter, Tensor, _accum, log_sum_exp, stable_sigmoid


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


def _lstm(lstm: BiLstm, xs: Tensor | np.ndarray, lengths) -> Tensor:
    """Hidden states of both directions of ``lstm`` over the same packed sequences,
    as one (N, 2h) graph node whose columns ``d*h:(d+1)*h`` are direction d's.

    ``xs`` holds R sequences of the given ``lengths`` as consecutive rows: a
    Tensor of inputs, or an (N, 2, 4h) array of their rows already projected
    by each direction's ``w_x``, whose states are a leaf with no graph node.
    Both directions run in one loop over max(lengths) steps on step-major
    (T, 2, R, .) arrays: one stacked (2, R, h) @ (2, h, 4h) matmul per step
    with the layer's ``w_h``, and each elementwise operation covers both
    directions.  Each sequence is right-padded, and for direction 1 reversed
    within its own length; padded rows compute on zero input, are never read
    and get an exactly zero gradient, so the loop needs no masks.  The input
    projection and the ``w_x`` and ``xs`` gradients take one matmul per
    direction.

    The forward pass keeps the per-step graph's operation order,
    ``(xw[t] + h @ w_h) + bias`` (added to ``h @ w_h`` in place, as addition
    commutes), so a direction's values are bit-identical to that graph's,
    whatever the other direction holds.  Step 0 starts from the zero state,
    whose product with a finite ``w_h`` is +0.0 in every entry, so it fills
    ``pre`` with +0.0 and makes no product; ``w_h`` must be finite, as
    training and checkpoint loads ensure.  Every step, forward and backward,
    writes into arrays allocated once per call.  It caches what
    backpropagation through time needs: the gate activations ``acts``, the
    cell states ``cs``, their tanh ``tcs`` and the outputs ``hs``, the last
    two after the zero state, so each step's previous state is a view.  The
    backward pass frees its per-step factors before it makes the weight
    gradients, and hands those to the parameters uncopied.
    """
    spans = _packed_spans(xs.shape[0], lengths)
    steps, width, hd = max(size for _, size in spans), len(spans), lstm.hidden_dim
    w_h, bias = lstm.w_h.data, lstm.bias.data[:, None]
    xw = np.zeros((steps, 2, width, 4 * hd))
    projected = isinstance(xs, np.ndarray)
    for d, w_x in enumerate(lstm.w_x):
        _pad(xs[:, d] if projected else xs.data @ w_x.data, spans, d == 1, xw[:, d])
    acts, tcs = np.empty((steps, 2, width, 4 * hd)), np.empty((steps, 2, width, hd))
    cs, hs = np.empty((2, steps + 1, 2, width, hd))  # step t's at t + 1, the zero state at 0
    hs[0] = cs[0] = 0.0
    h, c = hs[0], cs[0]
    i, f, g, o = (acts[..., k * hd : (k + 1) * hd] for k in range(4))
    pre, ig = np.empty((2, width, 4 * hd)), np.empty((2, width, hd))
    pre_g = pre[..., 2 * hd : 3 * hd]
    for t, (xw_t, act_t, c_t, tc_t, h_t, i_t, f_t, g_t, o_t) in enumerate(
        zip(xw, acts, cs[1:], tcs, hs[1:], i, f, g, o)
    ):
        if t:
            np.matmul(h, w_h, out=pre)
        else:  # the zero state's product, +0.0 in every entry for a finite w_h
            pre.fill(0.0)
        pre += xw_t
        pre += bias
        stable_sigmoid(pre, out=act_t)
        np.tanh(pre_g, out=g_t)
        c = np.multiply(f_t, c, out=c_t)
        c += np.multiply(i_t, g_t, out=ig)
        h = np.multiply(o_t, np.tanh(c, out=tc_t), out=h_t)
    out = np.empty((xs.shape[0], 2 * hd))
    for d in range(2):
        _unpad(hs[1:, d], spans, d == 1, out[:, d * hd : (d + 1) * hd])
    if projected:
        return Tensor(out)

    def through_time(grad):
        """The (T, 2, R, 4h) gradient of every step's pre-activations."""
        # d pre / d (dc) for the i, f, g blocks and d pre / d (dh) for o, each
        # with its nonlinearity's derivative folded in: g * i * (1 - i),
        # c_prev * f * (1 - f), i * (1 - g * g) and tcs * o * (1 - o), and
        # d c / d h, o * (1 - tcs * tcs), each written in place in that order.
        by_dc = np.empty((steps, 2, width, 3, hd))
        by_i, by_f, by_g = (by_dc[..., k, :] for k in range(3))
        by_dh, dc_by_dh = np.empty((2, *tcs.shape))
        dh_out = one_minus = np.empty_like(tcs)  # scratch, until the output gradient
        for into, a, b in ((by_i, g, i), (by_f, cs[:-1], f), (by_dh, tcs, o)):
            np.multiply(a, b, out=into)
            into *= np.subtract(1.0, b, out=one_minus)
        for into, a, b in ((by_g, i, g), (dc_by_dh, o, tcs)):
            np.subtract(1.0, np.multiply(b, b, out=one_minus), out=one_minus)
            np.multiply(a, one_minus, out=into)
        d_pre = np.empty((steps, 2, width, 4, hd))
        dh_out.fill(0.0)
        for d in range(2):
            _pad(grad[:, d * hd : (d + 1) * hd], spans, d == 1, dh_out[:, d])
        w_h_t = w_h.transpose(0, 2, 1)
        dh, dc, dc_step = np.zeros((3, 2, width, hd))
        for t in reversed(range(steps)):
            dh += dh_out[t]
            dc += np.multiply(dh, dc_by_dh[t], out=dc_step)
            np.multiply(by_dc[t], dc[:, :, None], out=d_pre[t, :, :, :3])
            np.multiply(dh, by_dh[t], out=d_pre[t, :, :, 3])
            np.matmul(d_pre[t].reshape(2, width, 4 * hd), w_h_t, out=dh)
            dc *= f[t]
        return d_pre.reshape(steps, 2, width, 4 * hd)

    def backward(grad):
        d_pre, h_prev = through_time(grad), hs[:-1]
        d_w_h, d_bias = np.empty(w_h.shape), np.empty(lstm.bias.data.shape)
        for d, w_x in enumerate(lstm.w_x):
            rows = _unpad(d_pre[:, d], spans, d == 1)
            if xs.requires_grad:
                _accum(xs, rows @ w_x.data.T)
            _accum(w_x, xs.data.T @ rows, new=True)
            np.matmul(_unpad(h_prev[:, d], spans, d == 1).T, rows, out=d_w_h[d])
            np.sum(rows, axis=0, out=d_bias[d])
        _accum(lstm.w_h, d_w_h, new=True)
        _accum(lstm.bias, d_bias, new=True)

    return Tensor(out)._attach((xs, *lstm.parameters()), backward)


class BiLstm:
    """A forward and a backward LSTM over packed sequences, run in one time loop
    by ``_lstm``.

    Direction d (0 forward, 1 backward) has its own input weights ``w_x[d]``;
    the recurrent weights ``w_h`` (2, h, 4h) and the biases ``bias`` (2, 4h)
    hold both directions, stacked as each time step reads them.  Gates are
    ordered (input, forget, cell, output) in the packed weight matrices; the
    forget-gate bias is initialized to 1.
    """

    def __init__(
        self, name: str, input_dim: int, hidden_dim: int, rng: np.random.Generator | None
    ):
        self.name, self.hidden_dim = name, hidden_dim
        w_x, w_h = [], np.empty((2, hidden_dim, 4 * hidden_dim))
        for d in range(2):  # each direction's draws in turn, w_x before w_h
            w_x.append(glorot_uniform(rng, input_dim, 4 * hidden_dim))
            if rng is not None:
                w_h[d] = glorot_uniform(rng, hidden_dim, 4 * hidden_dim)
        self.w_x = tuple(Parameter(f"{name}.{tag}.w_x", w) for tag, w in zip(("fwd", "bwd"), w_x))
        self.w_h = Parameter(f"{name}.w_h", w_h)
        bias = np.zeros((2, 4 * hidden_dim))
        bias[:, hidden_dim : 2 * hidden_dim] = 1.0
        self.bias = Parameter(f"{name}.bias", bias)

    def parameters(self) -> list[Parameter]:
        return [*self.w_x, self.w_h, self.bias]

    def run(self, xs: Tensor, lengths) -> tuple[Tensor, Tensor]:
        """Forward and backward hidden states, each (N, h), of packed sequences."""
        out, hd = self(xs, lengths), self.hidden_dim
        return out[:, :hd], out[:, hd:]

    def __call__(self, xs: Tensor | np.ndarray, lengths) -> Tensor:
        return _lstm(self, xs, lengths)  # (N, 2h)


def attention(h: Tensor, lengths) -> Tensor:
    """Dot-product self-attention over packed sequences, as one (N, 2d) graph node.

    ``h`` holds R sequences of the given ``lengths`` as consecutive (N, d)
    rows, as for ``_lstm``.  Output row i is ``[h_i ; sum_j a_ij h_j]``,
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


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p); ``x`` itself without an ``rng``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
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
    log_z = log_sum_exp(z, axis=1)
    rows = np.arange(len(z))
    losses = (log_z[:, 0] - z[rows, targets]).tolist()
    out = Tensor(sum(losses[1:], start=losses[0]))

    def backward(grad):
        d = np.exp(z - log_z)
        d[rows, targets] -= 1.0
        _accum(logits, grad * d)

    return out._attach((logits,), backward)
