from __future__ import annotations

import numpy as np
import pytest

from _oracles import finite_difference, gradient_gap, graph_attention, lstm_states_per_step
from stimex.nn import (
    Adam,
    BiLstm,
    Linear,
    Lstm,
    Parameter,
    Tensor,
    attention,
    concat,
    cross_entropy,
    dropout,
    glorot_uniform,
)


def test_glorot_bounds_and_determinism():
    a = glorot_uniform(np.random.default_rng(3), 10, 20)
    b = glorot_uniform(np.random.default_rng(3), 10, 20)
    assert np.array_equal(a, b)
    limit = np.sqrt(6.0 / 30)
    assert a.shape == (10, 20)
    assert np.all(np.abs(a) < limit)


# -- LSTM ----------------------------------------------------------------------


def test_lstm_zero_weights_fixed_point():
    cell = Lstm("z", 3, 2, np.random.default_rng(0))
    for p in cell.parameters():
        p.data[...] = 0.0
    states = cell.states(Tensor(np.ones((4, 3))), [4])
    for h in states:
        assert np.allclose(h.data, 0.0)  # output gate 0.5 * tanh(0) = 0


def test_lstm_rejects_empty_sequence():
    cell = Lstm("z", 3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        cell.states(Tensor(np.zeros((0, 3))), [0])


def test_lstm_state_shapes_and_order_dependence():
    cell = Lstm("c", 3, 5, np.random.default_rng(1))
    xs = np.random.default_rng(2).standard_normal((4, 3))
    fwd = cell.states(Tensor(xs), [4])
    assert fwd.shape == (4, 5)
    swapped = cell.states(Tensor(xs[[1, 0, 2, 3]]), [4])
    assert not np.allclose(fwd[3].data, swapped[3].data)


def test_bilstm_backward_equals_forward_on_reversed_input():
    rng = np.random.default_rng(7)
    bi = BiLstm("b", 3, 4, rng)
    for src, dst in zip(bi.fwd.parameters(), bi.bwd.parameters()):
        dst.data[...] = src.data
    xs = np.random.default_rng(8).standard_normal((5, 3))
    fwd_rev = bi.fwd.states(Tensor(xs[::-1].copy()), [5])
    bwd = bi.bwd.states(Tensor(xs), [5], reverse=True)
    for t in range(5):
        assert np.array_equal(bwd[t].data, fwd_rev[4 - t].data)


def test_bilstm_output_layout():
    """``BiLstm`` gives one (N, 2h) node, forward states first; ``run`` slices it."""
    bi = BiLstm("b", 3, 4, np.random.default_rng(0))
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
        assert np.array_equal(f.data, bi.fwd.states(xs, lengths).data)
        assert np.array_equal(b.data, bi.bwd.states(xs, lengths, reverse=True).data)
        by_run = grads((f * Tensor(weights[:, :4])).sum() + (b * Tensor(weights[:, 4:])).sum())
        by_call = grads((out * Tensor(weights)).sum())
        for g_run, g_call in zip(by_run, by_call):
            assert np.max(np.abs(g_run - g_call)) < 1e-12


@pytest.mark.parametrize("lengths", [[3, 1, 7, 2, 5], [58]])
@pytest.mark.parametrize("xs_grad", [False, True])
def test_bilstm_equals_its_two_single_direction_recurrences(lengths, xs_grad):
    """One time loop for both directions changes no value and, to rounding, no gradient."""
    rng = np.random.default_rng(len(lengths))
    bi = BiLstm("b", 6, 7, rng)
    for p in bi.parameters():  # nonzero biases, so that state leaking across padding shows
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    n = sum(lengths)
    xs = Parameter("xs", 2.0 * rng.standard_normal((n, 6)))
    xs.requires_grad = xs_grad
    weights = Tensor(rng.standard_normal((n, 14)))  # every output feeds the loss
    params = bi.parameters() + [xs]

    def run(states_fn):
        for p in params:
            p.grad = None
        h = states_fn()
        (h * weights).sum().backward()
        return h.data, {p.name: p.grad for p in params}

    fused, fused_grads = run(lambda: bi(xs, lengths))
    apart, apart_grads = run(
        lambda: concat(
            [bi.fwd.states(xs, lengths), bi.bwd.states(xs, lengths, reverse=True)], axis=1
        )
    )
    assert np.array_equal(fused, apart)
    assert (fused_grads["xs"] is None) == (not xs_grad)
    for name, g in apart_grads.items():
        if g is not None:
            assert np.max(np.abs(fused_grads[name] - g)) < 1e-10, name


def test_lstm_gradients():
    rng = np.random.default_rng(5)
    cell = Lstm("c", 2, 3, rng)
    xs = Parameter("xs", rng.standard_normal((4, 2)))
    target = Tensor(rng.standard_normal(3))

    def loss():
        h = cell.states(xs, [4])[-1]
        return ((h - target) * (h - target)).sum()

    loss().backward()
    params = cell.parameters() + [xs]
    numeric = finite_difference(loss, params)
    analytic = {p.name: p.grad for p in params}
    assert gradient_gap(analytic, numeric) < 1e-6
    assert gradient_gap({"xs": xs.grad}, {"xs": numeric["xs"]}) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 17, 58])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("xs_grad", [False, True])
def test_fused_lstm_matches_per_step_oracle(n, reverse, xs_grad):
    rng = np.random.default_rng(n)
    cell = Lstm("c", 6, 7, rng)
    xs = Parameter("xs", 2.0 * rng.standard_normal((n, 6)))
    xs.requires_grad = xs_grad
    weights = Tensor(rng.standard_normal((n, 7)))  # every position feeds the loss
    params = cell.parameters() + [xs]

    def run(states_fn):
        for p in params:
            p.grad = None
        h = states_fn(cell, xs, reverse)
        (h * weights).sum().backward()
        return h.data, {p.name: p.grad for p in params}

    fused, fused_grads = run(lambda c, x, r: c.states(x, [n], r))
    oracle, oracle_grads = run(lstm_states_per_step)
    assert np.array_equal(fused, oracle)
    assert (fused_grads["xs"] is None) == (not xs_grad)
    for name, g in oracle_grads.items():
        if g is not None:
            assert np.max(np.abs(fused_grads[name] - g)) < 1e-10, name


@pytest.mark.parametrize("lengths", [[1, 4], [3, 1, 7, 2, 5], [6, 6, 1]])
@pytest.mark.parametrize("reverse", [False, True])
def test_packed_lstm_matches_per_step_oracle(lengths, reverse):
    rng = np.random.default_rng(len(lengths))
    cell = Lstm("c", 6, 7, rng)
    cell.bias.data = rng.standard_normal(cell.bias.data.shape)  # so that padding leaks would show
    n = sum(lengths)
    xs = Parameter("xs", 2.0 * rng.standard_normal((n, 6)))
    weights = Tensor(rng.standard_normal((n, 7)))
    params = cell.parameters() + [xs]
    ends = np.cumsum(lengths)

    def per_sequence(cell, xs, reverse):
        return concat(
            [lstm_states_per_step(cell, xs[e - k : e], reverse) for k, e in zip(lengths, ends)]
        )

    def run(states_fn):
        for p in params:
            p.grad = None
        h = states_fn(cell, xs, reverse)
        (h * weights).sum().backward()
        return h.data, {p.name: p.grad for p in params}

    packed, packed_grads = run(lambda c, x, r: c.states(x, lengths, r))
    oracle, oracle_grads = run(per_sequence)
    assert np.max(np.abs(packed - oracle)) < 1e-12
    for name, g in oracle_grads.items():
        assert np.max(np.abs(packed_grads[name] - g)) < 1e-10, name


def test_packed_lstm_rejects_bad_lengths():
    cell = Lstm("z", 3, 2, np.random.default_rng(0))
    xs = Tensor(np.zeros((5, 3)))
    for lengths in ([3, 0, 2], [2, 2], [6]):
        with pytest.raises(ValueError):
            cell.states(xs, lengths)


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
    assert dropout(x, 0.5, training=False, rng=rng) is x
    assert dropout(x, 0.0, training=True, rng=rng) is x


def test_dropout_masks_and_rescales():
    x = Tensor(np.ones((2000,)))
    out = dropout(x, 0.25, training=True, rng=np.random.default_rng(1)).data
    kept = out[out != 0.0]
    assert np.allclose(kept, 1.0 / 0.75)
    assert abs(len(kept) / 2000 - 0.75) < 0.05
    assert abs(out.mean() - 1.0) < 0.05  # inverted scaling keeps expectation


def test_dropout_rejects_bad_probability():
    x = Tensor(np.ones(3))
    rng = np.random.default_rng(0)
    for p in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            dropout(x, p, training=True, rng=rng)


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
