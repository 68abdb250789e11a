from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from _oracles import finite_difference, gradient_gap, sigmoid, softmax, stack, tanh, transpose
from stimex.nn import Parameter, Tensor, as_tensor, concat, segment_mean
from stimex.nn.tensor import stable_sigmoid

RNG = np.random.default_rng(0)


def param(shape, name="p"):
    return Parameter(name, RNG.standard_normal(shape))


def check(loss_fn, *params, tol=1e-6):
    for p in params:
        p.grad = None
    loss_fn().backward()
    numeric = finite_difference(loss_fn, params)
    analytic = {
        p.name: p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
    }
    assert gradient_gap(analytic, numeric) < tol


def test_add_and_broadcast():
    a, b = param((3, 4), "a"), param((4,), "b")
    check(lambda: (a + b).sum(), a, b)
    c = param((3, 1), "c")  # a size-1 axis: its gradient is summed over it, keeping it
    check(lambda: (a + c).sum(), a, c)
    assert c.grad.shape == (3, 1) and np.array_equal(c.grad, np.full((3, 1), 4.0))


def test_sub_neg():
    a, b = param((3, 4), "a"), param((3, 4), "b")
    check(lambda: (a - b).sum(), a, b)
    check(lambda: (-a).sum(), a)


def test_mul_broadcast():
    a, b = param((2, 5), "a"), param((5,), "b")
    check(lambda: (a * b).sum(), a, b)
    check(lambda: (a * 3.0).sum(), a)


def test_matmul_cases():
    m, v = param((3, 4), "m"), param((4,), "v")
    w = param((4, 2), "w")
    u = param((3,), "u")
    check(lambda: (m @ w).sum(), m, w)  # 2d @ 2d
    check(lambda: (m @ v).sum(), m, v)  # 2d @ 1d
    check(lambda: (u @ m).sum(), u, m)  # 1d @ 2d
    check(lambda: v @ v, v)  # 1d @ 1d


def test_matmul_backward_refuses_an_operand_above_2d():
    a, b = param((2, 3, 4), "a"), param((4, 5), "b")
    loss = (a @ b).sum()  # the forward pass is NumPy's batched matmul
    with pytest.raises(ValueError, match="matmul supports only 1-D and 2-D operands"):
        loss.backward()


def test_tensor_and_parameter_reprs():
    assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3), requires_grad=False)"
    assert repr(Parameter("w", np.zeros(4))) == "Parameter('w', shape=(4,))"


def test_transpose():
    a = param((3, 4), "a")
    check(lambda: (transpose(a) @ a).sum(), a)


def test_getitem_int_slice_fancy():
    a = param((5, 3), "a")
    check(lambda: a[2].sum(), a)
    check(lambda: a[1:4].sum(), a)
    check(lambda: a[np.array([0, 2, 2])].sum(), a)  # duplicate rows accumulate
    check(lambda: a[np.array([0, 2, 2]), np.array([1, 0, 0])].sum(), a)  # and duplicate pairs


def test_sum_mean_axes():
    a = param((3, 4), "a")
    check(lambda: a.sum(), a)
    check(lambda: a.sum(axis=0).logsumexp(), a)
    check(lambda: a.sum(axis=1).logsumexp(), a)
    b = param((6, 4), "b")
    check(lambda: segment_mean(b, [1, 3, 2]).logsumexp(), b)
    check(lambda: segment_mean(b, [6]).logsumexp(), b)
    block = b.data[1:4]
    assert np.array_equal(segment_mean(b, [1, 3, 2]).data[1], block.sum(axis=0) * (1.0 / 3))


def test_logsumexp_axes_and_stability():
    a = param((3, 4), "a")
    check(lambda: a.logsumexp(), a)
    check(lambda: a.logsumexp(axis=0).sum(), a)
    check(lambda: a.logsumexp(axis=1).sum(), a)
    big = Tensor(np.array([1000.0, 1000.0]))
    assert big.logsumexp().item() == pytest.approx(1000.0 + np.log(2.0))


def test_unary_ops():
    a = param((6,), "a")
    check(lambda: tanh(a).sum(), a)
    check(lambda: sigmoid(a).sum(), a)


def test_relu_away_from_kink():
    a = Parameter("a", np.array([-2.0, -0.5, 0.5, 2.0]))
    check(lambda: a.relu().sum(), a)
    assert np.array_equal(a.relu().data, [0.0, 0.0, 0.5, 2.0])


def test_sigmoid_is_stable_at_extremes():
    y = sigmoid(Tensor(np.array([-1000.0, 1000.0]))).data
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(0.0) and y[1] == pytest.approx(1.0)


def test_stable_sigmoid_equals_the_two_branch_formula_exactly():
    """Also into ``out``, a strided gate block of a (D, R, 4h) array as the LSTM
    loop writes it, leaving the rest of that array as it was."""

    def two_branch(x):
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        return np.where(x >= 0, 1.0 / d, e / d)

    special = [0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan]
    for x in (RNG.standard_normal(400) * 8.0, RNG.standard_normal((10, 40)), np.array(special)):
        assert np.array_equal(stable_sigmoid(x), two_branch(x), equal_nan=True)
    for x in (RNG.standard_normal((2, 3, 7)) * 8.0, np.tile(special, (2, 3, 1))):
        pre = np.full((2, 3, 28), 7.0)
        out = pre[..., 7:14]
        assert stable_sigmoid(x, out=out) is out
        assert np.array_equal(out, two_branch(x), equal_nan=True)
        pre[..., 7:14] = 7.0
        assert np.all(pre == 7.0)


def test_softmax_rows_and_grad():
    a = param((3, 4), "a")
    rows = softmax(a, axis=1).data
    assert np.allclose(rows.sum(axis=1), 1.0)
    check(lambda: (softmax(a, axis=1) * Tensor(np.arange(12.0).reshape(3, 4))).sum(), a)
    shifted = softmax(a + 500.0, axis=1).data
    assert np.allclose(shifted, rows)


def test_concat_stack():
    a, b = param((2, 3), "a"), param((4, 3), "b")
    check(lambda: concat([a, b], axis=0).logsumexp(), a, b)
    check(lambda: concat([transpose(a), transpose(b)], axis=1).logsumexp(), a, b)
    rows = [param((3,), f"r{i}") for i in range(4)]
    check(lambda: stack(rows).logsumexp(), *rows)


def test_grad_accumulates_across_uses():
    a = Parameter("a", np.array([2.0]))
    ((a * a) + a).backward()
    assert a.grad == pytest.approx([5.0])  # 2a + 1


def test_backward_twice_raises():
    a, b = param((3, 4), "a"), param((4,), "b")

    def loss_fn():
        return concat([a * b, a.relu()], axis=0)[1:5].logsumexp()

    loss = loss_fn()
    loss.backward()
    grads = a.grad.copy(), b.grad.copy()
    with pytest.raises(ValueError, match="already used by backward"):
        loss.backward()
    h = a * b
    h.sum().backward()
    with pytest.raises(ValueError, match="already used by backward"):
        (h * 2.0).sum().backward()  # a new graph over a used node
    a.grad = b.grad = None
    loss_fn().backward()
    assert np.array_equal(a.grad, grads[0]) and np.array_equal(b.grad, grads[1])


def test_forward_only_graph_is_freed_with_its_output():
    """No closure holds its own node, so reference counting frees a graph that
    ``backward`` never ran on as soon as its output goes.  (A ``Tensor`` has no
    weakref slot; its data array lives exactly as long as the node here.)"""
    a = param((3, 4), "a")
    gc.collect()
    gc.disable()
    try:
        hidden = a * 2.0
        out = concat([hidden.relu(), a], axis=0)[1:5].logsumexp()
        ref = weakref.ref(hidden.data)
        del hidden
        assert ref() is not None  # still a parent in the graph of ``out``
        del out
        assert ref() is None
    finally:
        gc.enable()


def test_backward_requires_scalar():
    a = param((3,), "a")
    with pytest.raises(ValueError):
        (a * 2.0).backward()


def test_constants_prune_graph():
    c = Tensor(np.ones((3,)))
    out = (c * 2.0).sum()
    assert out._parents == ()
    out.backward()
    assert c.grad is None


def test_long_chain_does_not_recurse():
    x = Parameter("x", np.array([1.0]))
    y = x
    for _ in range(5000):
        y = y * 1.0001
    y.sum().backward()
    assert x.grad is not None and np.isfinite(x.grad[0])


def test_as_tensor_passthrough():
    t = Tensor(np.zeros(2))
    assert as_tensor(t) is t
    assert isinstance(as_tensor(3.0), Tensor)
    assert as_tensor(3.0).shape == ()
