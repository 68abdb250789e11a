from __future__ import annotations

import numpy as np
import pytest

from _oracles import finite_difference, gradient_gap, graph_attention, lstm_states_per_step
from stimex.nn import (
    Adam,
    BiLstm,
    Linear,
    Parameter,
    Tensor,
    attention,
    concat,
    cross_entropy,
    dropout,
    glorot_uniform,
)
from stimex.nn.layers import _lstm


def test_glorot_bounds_and_determinism():
    a = glorot_uniform(np.random.default_rng(3), 10, 20)
    b = glorot_uniform(np.random.default_rng(3), 10, 20)
    assert np.array_equal(a, b)
    limit = np.sqrt(6.0 / 30)
    assert a.shape == (10, 20)
    assert np.all(np.abs(a) < limit)


# -- LSTM ----------------------------------------------------------------------


def _alone(bi, d, rng):
    """A copy of ``bi`` with direction d's weights and newly drawn ones for the other."""
    solo = BiLstm(bi.name, bi.w_x[d].shape[0], bi.hidden_dim, rng)
    solo.w_x[d].data = bi.w_x[d].data.copy()
    solo.w_h.data[d], solo.bias.data[d] = bi.w_h.data[d], bi.bias.data[d]
    return solo


def test_lstm_zero_weights_fixed_point():
    bi = BiLstm("z", 3, 2, np.random.default_rng(0))
    for p in bi.parameters():
        p.data[...] = 0.0
    states = _lstm(bi, Tensor(np.ones((4, 3))), [4])
    for h in states:
        assert np.allclose(h.data, 0.0)  # output gate 0.5 * tanh(0) = 0


def test_lstm_rejects_empty_sequence():
    bi = BiLstm("z", 3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        _lstm(bi, Tensor(np.zeros((0, 3))), [0])


def test_lstm_state_shapes_and_order_dependence():
    bi = BiLstm("c", 3, 5, np.random.default_rng(1))
    xs = np.random.default_rng(2).standard_normal((4, 3))
    fwd = bi.run(Tensor(xs), [4])[0]
    assert fwd.shape == (4, 5)
    swapped = bi.run(Tensor(xs[[1, 0, 2, 3]]), [4])[0]
    assert not np.allclose(fwd[3].data, swapped[3].data)


def test_bilstm_backward_equals_forward_on_reversed_input():
    rng = np.random.default_rng(7)
    bi = BiLstm("b", 3, 4, rng)
    bi.w_x[1].data[...] = bi.w_x[0].data
    bi.w_h.data[1], bi.bias.data[1] = bi.w_h.data[0], bi.bias.data[0]
    xs = np.random.default_rng(8).standard_normal((5, 3))
    fwd_rev = bi.run(Tensor(xs[::-1].copy()), [5])[0]
    bwd = bi.run(Tensor(xs), [5])[1]
    for t in range(5):
        assert np.array_equal(bwd[t].data, fwd_rev[4 - t].data)


def test_bilstm_output_layout():
    """``BiLstm`` gives one (N, 2h) node, forward states first; ``run`` slices it;
    each half is its direction's states whatever the other direction holds; given
    the inputs' projections, it gives the same states as a leaf."""
    rng = np.random.default_rng(0)
    bi = BiLstm("b", 3, 4, rng)
    xs = Parameter("xs", np.random.default_rng(1).standard_normal((6, 3)))
    params = bi.parameters() + [xs]
    weights = np.random.default_rng(2).standard_normal((6, 8))

    def grads(loss):
        for p in params:
            p.grad = None
        loss.backward()
        return [p.grad for p in params]

    for lengths in ([6], [2, 4]):
        out = bi(xs, lengths)
        assert out.shape == (6, 8)
        f, b = bi.run(xs, lengths)
        assert f.shape == b.shape == (6, 4)
        assert np.array_equal(out.data, np.concatenate([f.data, b.data], axis=1))
        assert np.array_equal(f.data, _alone(bi, 0, rng).run(xs, lengths)[0].data)
        assert np.array_equal(b.data, _alone(bi, 1, rng).run(xs, lengths)[1].data)
        projected = np.stack([xs.data @ w_x.data for w_x in bi.w_x], axis=1)
        leaf = bi(projected, lengths)  # the inputs' rows already projected: no graph node
        assert np.array_equal(leaf.data, out.data) and not leaf.requires_grad
        by_run = grads((f * Tensor(weights[:, :4])).sum() + (b * Tensor(weights[:, 4:])).sum())
        by_call = grads((out * Tensor(weights)).sum())
        for g_run, g_call in zip(by_run, by_call):
            assert np.max(np.abs(g_run - g_call)) < 1e-12


@pytest.mark.parametrize("lengths", [[3, 1, 7, 2, 5], [58]])
@pytest.mark.parametrize("xs_grad", [False, True])
def test_bilstm_equals_its_two_single_direction_recurrences(lengths, xs_grad):
    """One time loop for both directions changes no value and, to rounding, no
    gradient: each direction's states and gradients are those of a copy of the
    layer whose other direction holds other weights and feeds no loss."""
    rng = np.random.default_rng(len(lengths))
    bi = BiLstm("b", 6, 7, rng)
    for p in bi.parameters():  # nonzero biases, so that state leaking across padding shows
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    n = sum(lengths)
    xs = Parameter("xs", 2.0 * rng.standard_normal((n, 6)))
    xs.requires_grad = xs_grad
    weights = Tensor(rng.standard_normal((n, 14)))  # every output feeds the loss
    params = bi.parameters() + [xs]
    for p in params:
        p.grad = None
    h = bi(xs, lengths)
    (h * weights).sum().backward()
    fused, fused_grads = h.data, {p.name: p.grad for p in params}

    halves, by_direction, xs_grads = [], [], []
    for d in range(2):
        solo = _alone(bi, d, rng)
        xs.grad = None
        half = solo.run(xs, lengths)[d]
        (half * weights[:, 7 * d : 7 * (d + 1)]).sum().backward()
        halves.append(half.data)
        by_direction.append((solo.w_x[d].grad, solo.w_h.grad[d], solo.bias.grad[d]))
        xs_grads.append(xs.grad)
    apart = np.concatenate(halves, axis=1)
    apart_grads = {
        "b.fwd.w_x": by_direction[0][0],
        "b.bwd.w_x": by_direction[1][0],
        "b.w_h": np.stack([by_direction[0][1], by_direction[1][1]]),
        "b.bias": np.stack([by_direction[0][2], by_direction[1][2]]),
        "xs": None if xs_grads[0] is None else xs_grads[0] + xs_grads[1],
    }
    assert np.array_equal(fused, apart)
    assert (fused_grads["xs"] is None) == (not xs_grad)
    for name, g in apart_grads.items():
        if g is not None:
            assert np.max(np.abs(fused_grads[name] - g)) < 1e-10, name


def test_lstm_gradients():
    rng = np.random.default_rng(5)
    bi = BiLstm("c", 2, 3, rng)
    xs = Parameter("xs", rng.standard_normal((4, 2)))
    target = Tensor(rng.standard_normal(6))

    def loss():
        h = _lstm(bi, xs, [4])[-1]
        return ((h - target) * (h - target)).sum()

    loss().backward()
    params = bi.parameters() + [xs]
    numeric = finite_difference(loss, params)
    analytic = {p.name: p.grad for p in params}
    assert gradient_gap(analytic, numeric) < 1e-6
    assert gradient_gap({"xs": xs.grad}, {"xs": numeric["xs"]}) < 1e-6


# (input, hidden) sizes: small ones, and the paper's, for which BLAS takes other kernels
DIMS = [(6, 7), (300, 100)]
RAGGED_10 = [3, 1, 7, 2, 5, 9, 4, 6, 1, 8]  # a mini-batch of 10 sequences


def _per_sequence_oracle(bi, d, xs, lengths):
    """Direction d's states over the packed sequences, by the per-step oracle run
    on each sequence alone."""
    ends = np.cumsum(lengths)
    w_x, w_h, bias = bi.w_x[d], bi.w_h[d], bi.bias[d]
    return concat(
        [lstm_states_per_step(w_x, w_h, bias, xs[e - k : e], d == 1) for k, e in zip(lengths, ends)]
    )


@pytest.mark.parametrize("n", [1, 2, 17, 58])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("xs_grad", [False, True])
def test_fused_lstm_matches_per_step_oracle(n, reverse, xs_grad):
    d = int(reverse)
    for input_dim, hidden_dim in DIMS:
        rng = np.random.default_rng(n)
        bi = BiLstm("c", input_dim, hidden_dim, rng)
        xs = Parameter("xs", 2.0 * rng.standard_normal((n, input_dim)))
        xs.requires_grad = xs_grad
        weights = Tensor(rng.standard_normal((n, hidden_dim)))  # every position feeds the loss
        params = [bi.w_x[d], bi.w_h, bi.bias, xs]

        def run(states_fn):
            for p in params:
                p.grad = None
            h = states_fn()
            (h * weights).sum().backward()
            return h.data, {p.name: p.grad for p in params}

        fused, fused_grads = run(lambda: bi.run(xs, [n])[d])
        oracle, oracle_grads = run(lambda: _per_sequence_oracle(bi, d, xs, [n]))
        assert np.array_equal(fused, oracle)
        assert (fused_grads["xs"] is None) == (not xs_grad)
        for name, g in oracle_grads.items():
            if g is not None:
                assert np.max(np.abs(fused_grads[name] - g)) < 1e-10, name


@pytest.mark.parametrize("lengths", [[1, 4], [3, 1, 7, 2, 5], [6, 6, 1], RAGGED_10])
@pytest.mark.parametrize("reverse", [False, True])
def test_packed_lstm_matches_per_step_oracle(lengths, reverse):
    n, d = sum(lengths), int(reverse)
    for input_dim, hidden_dim in DIMS:
        rng = np.random.default_rng(len(lengths))
        bi = BiLstm("c", input_dim, hidden_dim, rng)
        bi.bias.data = rng.standard_normal(bi.bias.data.shape)  # so that padding leaks show
        xs = Parameter("xs", 2.0 * rng.standard_normal((n, input_dim)))
        weights = Tensor(rng.standard_normal((n, hidden_dim)))
        params = [bi.w_x[d], bi.w_h, bi.bias, xs]

        def run(states_fn):
            for p in params:
                p.grad = None
            h = states_fn()
            (h * weights).sum().backward()
            return h.data, {p.name: p.grad for p in params}

        packed, packed_grads = run(lambda: bi.run(xs, lengths)[d])
        oracle, oracle_grads = run(lambda: _per_sequence_oracle(bi, d, xs, lengths))
        assert np.max(np.abs(packed - oracle)) < 1e-12
        for name, g in oracle_grads.items():
            assert np.max(np.abs(packed_grads[name] - g)) < 1e-10, name


@pytest.mark.parametrize("lengths", [[17], [3, 1, 7, 2, 5], RAGGED_10])
def test_stacked_backward_gives_each_direction_its_own_gradient(lengths):
    """Directions with different weights and nonzero biases: each half of ``bi(xs)``
    is its direction's per-step oracle, bit for bit on one sequence and to rounding
    on ragged ones (the oracle's vector products round unlike the batch's matrix
    products), and ``w_h.grad[d]``, ``bias.grad[d]`` and ``w_x[d].grad`` are the
    oracle's gradients of direction d."""
    n = sum(lengths)
    for input_dim, hidden_dim in DIMS:
        rng = np.random.default_rng(11)
        bi = BiLstm("b", input_dim, hidden_dim, rng)
        bi.w_h.data[1] *= -2.0
        bi.bias.data = rng.standard_normal(bi.bias.data.shape) * [[1.0], [-3.0]]
        xs = Parameter("xs", 2.0 * rng.standard_normal((n, input_dim)))
        weights = Tensor(rng.standard_normal((n, 2 * hidden_dim)))
        params = bi.parameters() + [xs]

        def run(states_fn):
            for p in params:
                p.grad = None
            h = states_fn()
            (h * weights).sum().backward()
            return h.data, {p.name: p.grad for p in params}

        fused, fused_grads = run(lambda: bi(xs, lengths))
        oracle, oracle_grads = run(
            lambda: concat([_per_sequence_oracle(bi, d, xs, lengths) for d in range(2)], axis=1)
        )
        if len(lengths) == 1:
            assert np.array_equal(fused, oracle)
        assert np.max(np.abs(fused - oracle)) < 1e-12
        for d, w_x in enumerate(bi.w_x):
            for name in ("b.w_h", "b.bias"):
                assert np.max(np.abs(fused_grads[name][d] - oracle_grads[name][d])) < 1e-10
            assert np.max(np.abs(fused_grads[w_x.name] - oracle_grads[w_x.name])) < 1e-10
        assert np.max(np.abs(fused_grads["xs"] - oracle_grads["xs"])) < 1e-10


def test_two_live_graphs_of_one_bilstm_stay_independent():
    """Each call's step buffers belong to its own graph: a second graph, built and
    still alive, changes nothing in the first's values or gradients."""
    rng = np.random.default_rng(10)
    bi = BiLstm("b", 6, 7, rng)
    other_lengths = [5, 2, 8, 1, 6, 3, 9, 2, 4, 7]
    xs = Parameter("xs", 2.0 * rng.standard_normal((sum(RAGGED_10), 6)))
    other_xs = Parameter("other_xs", 2.0 * rng.standard_normal((sum(other_lengths), 6)))
    weights = Tensor(rng.standard_normal((sum(RAGGED_10), 14)))
    params = bi.parameters() + [xs]

    def first_graph(with_second):
        for p in params:
            p.grad = None
        h = bi(xs, RAGGED_10)
        second = bi(other_xs, other_lengths) if with_second else None
        (h * weights).sum().backward()
        del second  # alive until the first graph's backward() has run
        return [h.data] + [p.grad for p in params]

    for alone, beside in zip(first_graph(False), first_graph(True)):
        assert np.array_equal(alone, beside)


@pytest.mark.parametrize("lengths", [[1], [1, 1, 1]])
def test_a_sequences_first_state_reads_no_recurrent_weights(lengths):
    """Step 0 starts from the zero state and makes no ``h @ w_h`` product: with
    ``w_h`` all NaN the states and the ``w_x``, ``bias`` and ``xs`` gradients keep
    every bit, and ``w_h.grad`` is the zero state's, all zero."""
    rng = np.random.default_rng(12)
    bi = BiLstm("b", 6, 7, rng)
    bi.bias.data = rng.standard_normal(bi.bias.data.shape)
    xs = Parameter("xs", 2.0 * rng.standard_normal((sum(lengths), 6)))
    weights = Tensor(rng.standard_normal((sum(lengths), 14)))
    params = bi.parameters() + [xs]

    def run(w_h):
        bi.w_h.data = w_h
        for p in params:
            p.grad = None
        h = bi(xs, lengths)
        (h * weights).sum().backward()
        return h.data, {p.name: p.grad for p in params}

    states, grads = run(bi.w_h.data)
    nan_states, nan_grads = run(np.full_like(bi.w_h.data, np.nan))
    assert np.array_equal(nan_states, states) and np.isfinite(states).all()
    for name in ("b.fwd.w_x", "b.bwd.w_x", "b.bias", "xs"):
        assert np.array_equal(nan_grads[name], grads[name]), name
    assert not nan_grads["b.w_h"].any() and not grads["b.w_h"].any()


def test_packed_lstm_rejects_bad_lengths():
    bi = BiLstm("z", 3, 2, np.random.default_rng(0))
    xs = Tensor(np.zeros((5, 3)))
    for lengths in ([3, 0, 2], [2, 2], [6]):
        with pytest.raises(ValueError):
            _lstm(bi, xs, lengths)


# -- attention -----------------------------------------------------------------


def test_attention_matches_numpy_oracle():
    h = np.random.default_rng(3).standard_normal((4, 3))
    out = attention(Tensor(h), [4]).data
    scores = h @ h.T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    assert out.shape == (4, 6)
    assert np.allclose(out, np.concatenate([h, weights @ h], axis=1))


def test_attention_single_row_context_is_input():
    h = np.array([[1.0, -2.0]])
    out = attention(Tensor(h), [1]).data
    assert np.allclose(out, [[1.0, -2.0, 1.0, -2.0]])


def test_attention_gradient():
    p = Parameter("h", np.random.default_rng(9).standard_normal((3, 2)))

    def loss():
        return attention(p, [3]).logsumexp()

    loss().backward()
    numeric = finite_difference(loss, [p])
    assert gradient_gap({"h": p.grad}, numeric) < 1e-6


@pytest.mark.parametrize("lengths", [[5], [1, 4], [3, 1, 7, 1, 2], [1, 1, 1]])
def test_attention_matches_graph_oracle(lengths):
    rng = np.random.default_rng(len(lengths))
    n = sum(lengths)
    h = Parameter("h", rng.standard_normal((n, 6)))
    weights = Tensor(rng.standard_normal((n, 12)))  # every output feeds the loss
    ends = np.cumsum(lengths)

    def per_block(h):
        return concat([graph_attention(h[e - k : e]) for k, e in zip(lengths, ends)])

    def run(attend):
        h.grad = None
        out = attend(h)
        (out * weights).sum().backward()
        return out.data, h.grad

    fused, fused_grad = run(lambda h: attention(h, lengths))
    oracle, oracle_grad = run(per_block)
    assert np.array_equal(fused, oracle)
    assert np.max(np.abs(fused_grad - oracle_grad)) <= 1e-12 * np.max(np.abs(oracle_grad))


# -- dropout -------------------------------------------------------------------


def test_dropout_identity_when_eval_or_zero():
    x = Tensor(np.ones((5, 5)))
    rng = np.random.default_rng(0)
    assert dropout(x, 0.5, None) is x
    assert dropout(x, 0.0, rng) is x


def test_dropout_masks_and_rescales():
    x = Tensor(np.ones((2000,)))
    out = dropout(x, 0.25, np.random.default_rng(1)).data
    kept = out[out != 0.0]
    assert np.allclose(kept, 1.0 / 0.75)
    assert abs(len(kept) / 2000 - 0.75) < 0.05
    assert abs(out.mean() - 1.0) < 0.05  # inverted scaling keeps expectation


def test_dropout_rejects_bad_probability():
    x = Tensor(np.ones(3))
    rng = np.random.default_rng(0)
    for p in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            dropout(x, p, rng)


# -- linear / cross-entropy ------------------------------------------------------


def test_linear_shapes_and_grad():
    rng = np.random.default_rng(2)
    layer = Linear("l", 4, 3, rng)
    x = Tensor(rng.standard_normal((5, 4)))
    assert layer(x).shape == (5, 3)

    def loss():
        return layer(x).logsumexp()

    loss().backward()
    numeric = finite_difference(loss, layer.parameters())
    analytic = {p.name: p.grad for p in layer.parameters()}
    assert gradient_gap(analytic, numeric) < 1e-6


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((1, 4)))
    assert cross_entropy(logits, [2]).item() == pytest.approx(np.log(4.0))


def test_cross_entropy_peaked_is_small():
    logits = Tensor(np.array([[20.0, 0.0, 0.0]]))
    assert cross_entropy(logits, [0]).item() < 1e-6


def test_cross_entropy_is_the_left_fold_of_row_losses():
    rng = np.random.default_rng(4)
    z = Parameter("z", 3.0 * rng.standard_normal((11, 2)))
    targets = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0]
    rows = [(Tensor(z.data[r]).logsumexp() - z.data[r, t]).item() for r, t in enumerate(targets)]
    expected = rows[0]
    for loss in rows[1:]:
        expected = expected + loss
    assert cross_entropy(z, targets).item() == expected

    def loss():
        return cross_entropy(z, targets)

    z.grad = None
    loss().backward()
    assert gradient_gap({"z": z.grad}, finite_difference(loss, [z])) < 1e-6


def test_cross_entropy_target_range():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((1, 3))), [3])
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((1, 3))), [-1])
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 3))), [0])


# -- Adam ------------------------------------------------------------------------


def test_adam_zero_grad_then_step_is_identity():
    p = Parameter("p", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1)
    opt.zero_grad()
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_minimizes_quadratic():
    p = Parameter("p", np.array([5.0, -3.0]))
    target = np.array([1.0, 2.0])
    opt = Adam([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        diff = p - Tensor(target)
        (diff * diff).sum().backward()
        opt.step()
    assert np.allclose(p.data, target, atol=1e-3)


def test_adam_rejects_duplicate_names_and_bad_shapes():
    a = Parameter("x", np.zeros(2))
    with pytest.raises(ValueError):
        Adam([a, Parameter("x", np.zeros(3))])
    opt = Adam([a])
    a.grad = np.zeros(3)
    with pytest.raises(ValueError):
        opt.step()


def test_adam_first_step_size_is_lr():
    # With bias correction the very first update has magnitude ~lr per element.
    p = Parameter("p", np.zeros(3))
    opt = Adam([p], lr=0.01)
    p.grad = np.array([1.0, -2.0, 0.5])
    opt.step()
    assert np.allclose(np.abs(p.data), 0.01, atol=1e-6)


def test_adam_step_equals_the_textbook_formula_exactly():
    rng = np.random.default_rng(11)
    params = [
        Parameter("w", rng.standard_normal((4, 3))),
        Parameter("b", rng.standard_normal(3)),
        Parameter("idle", rng.standard_normal(2)),  # its grad stays None
    ]
    expected = {p.name: p.data.copy() for p in params}
    m = {name: np.zeros_like(x) for name, x in expected.items()}
    v = {name: np.zeros_like(x) for name, x in expected.items()}
    b1, b2, lr, eps = 0.9, 0.999, 0.003, 1e-8
    opt = Adam(params, lr=lr)
    for t in range(1, 4):
        opt.zero_grad()
        for p in params[:2]:
            p.grad = rng.standard_normal(p.data.shape)
        opt.step()
        for p in params:
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            m[p.name] = b1 * m[p.name] + (1 - b1) * g
            v[p.name] = b2 * v[p.name] + (1 - b2) * g**2
            m_hat = m[p.name] / (1 - b1**t)
            v_hat = v[p.name] / (1 - b2**t)
            expected[p.name] = expected[p.name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for p in params:
            assert np.array_equal(p.data, expected[p.name]), (t, p.name)
