from __future__ import annotations

import numpy as np
import pytest

from _oracles import (
    array_viterbi_decode,
    brute_force_log_partition,
    finite_difference,
    gradient_gap,
    graph_nll_loss,
    score_sequence,
)
from stimex.crf import CrfParams, brute_force_decode, log_partition, nll_loss, viterbi_decode
from stimex.nn import Parameter, Tensor, concat


def fresh_params(num_labels=2, seed=None):
    params = CrfParams("crf", num_labels)
    if seed is not None:
        rng = np.random.default_rng(seed)
        for p in params.parameters():
            p.data[...] = rng.standard_normal(p.data.shape)
    return params


def test_score_sequence_hand_case():
    params = fresh_params(2)
    u = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert score_sequence(u, [0, 1], params).item() == pytest.approx(3.0)
    params.transitions.data[0, 1] = 0.5
    params.start_scores.data[0] = 0.25
    params.end_scores.data[1] = 0.125
    assert score_sequence(u, [0, 1], params).item() == pytest.approx(3.875)


def test_score_sequence_length_one_skips_transitions():
    params = fresh_params(2)
    params.transitions.data[...] = 100.0
    params.start_scores.data[1] = 1.0
    params.end_scores.data[1] = 2.0
    assert score_sequence(np.array([[0.0, 4.0]]), [1], params).item() == pytest.approx(7.0)


def test_log_partition_single_position():
    params = fresh_params(2)
    u = np.array([[0.0, 0.0]])
    assert log_partition(u, params).item() == pytest.approx(np.log(2.0))


def test_uniform_nll_is_path_count():
    params = fresh_params(2)
    u = np.zeros((2, 2))
    assert nll_loss(u, [[0, 1]], params).item() == pytest.approx(2 * np.log(2.0))


def test_peaked_emissions_give_tiny_nll():
    params = fresh_params(3)
    u = np.full((4, 3), -30.0)
    gold = [0, 1, 1, 2]
    for t, y in enumerate(gold):
        u[t, y] = 30.0
    assert nll_loss(u, [gold], params).item() < 1e-6


def test_nll_is_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(30):
        params = fresh_params(3, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 6))
        u = rng.standard_normal((n, 3))
        y = rng.integers(0, 3, size=n)
        assert nll_loss(u, [y], params).item() >= -1e-12


def test_decoders_agree_with_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(60):
        num_labels = int(rng.integers(2, 4))
        params = fresh_params(num_labels, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 7))
        u = rng.standard_normal((n, num_labels))
        path_v, score_v = viterbi_decode(u, params)
        path_b, score_b = brute_force_decode(u, params)
        assert score_v == score_b  # both recompute through the same scorer
        assert path_v == path_b
        assert log_partition(u, params).item() == pytest.approx(
            brute_force_log_partition(u, params), abs=1e-9
        )


def test_tie_breaks_toward_lower_label():
    params = fresh_params(3)
    u = np.zeros((2, 3))  # every path scores 0
    assert viterbi_decode(u, params)[0] == [0, 0]
    assert brute_force_decode(u, params)[0] == [0, 0]


def test_viterbi_equals_the_array_recursion_bit_for_bit():
    """Path and score equal the NumPy recursion's, on 1-5 labels and 1-60 positions.
    Half the inputs are small integers, so that equal scores, and with them ties
    between predecessors and between final labels, are common."""
    rng = np.random.default_rng(2020)
    for k in range(5000):
        num_labels, n = int(rng.integers(1, 6)), int(rng.integers(1, 61))

        def draw(shape):
            if k % 2:
                return rng.integers(-2, 3, shape).astype(float)
            return 3 * rng.standard_normal(shape)

        params = CrfParams("crf", num_labels)
        for p in params.parameters():
            p.data[...] = draw(p.data.shape)
        u = draw((n, num_labels))
        assert viterbi_decode(u, params) == array_viterbi_decode(u, params), k


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_viterbi_refuses_non_finite_emissions(value):
    u = np.zeros((4, 3))
    u[2, 1] = value
    with pytest.raises(ValueError, match="non-finite emission"):
        viterbi_decode(u, fresh_params(3))


def test_viterbi_refuses_non_finite_crf_parameters():
    """A NaN transition would make the Python recursion and the array one disagree
    (``[1, 2, 0]`` against ``[0, 1, 0]`` here), so it is refused by name."""
    u = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
    params = fresh_params(3)
    params.transitions.data[0, 1] = np.nan
    assert array_viterbi_decode(u, params)[0] == [0, 1, 0]
    with pytest.raises(ValueError, match="non-finite value in CRF parameter 'crf.transitions'"):
        viterbi_decode(u, params)
    for name in ("start_scores", "end_scores"):
        params = fresh_params(3)
        getattr(params, name).data[2] = -np.inf
        with pytest.raises(ValueError, match=f"CRF parameter 'crf.{name}'"):
            viterbi_decode(u, params)


def test_decode_score_matches_gold_path_score():
    params = fresh_params(3, seed=5)
    u = np.random.default_rng(5).standard_normal((4, 3))
    path, score = viterbi_decode(u, params)
    assert score == pytest.approx(score_sequence(u, path, params).item(), abs=1e-12)


def test_emission_shift_invariance_of_decode():
    params = fresh_params(3, seed=2)
    u = np.random.default_rng(3).standard_normal((5, 3))
    assert viterbi_decode(u, params)[0] == viterbi_decode(u + 7.5, params)[0]


def test_nll_gradients():
    rng = np.random.default_rng(21)
    params = fresh_params(3, seed=4)
    u = Parameter("u", rng.standard_normal((5, 3)))
    y = [0, 1, 1, 2, 0]
    tensors = [u, *params.parameters()]

    def loss():
        return nll_loss(u, [y], params)

    loss().backward()
    numeric = finite_difference(loss, tensors)
    analytic = {p.name: p.grad for p in tensors}
    assert gradient_gap(analytic, numeric) < 1e-6


def _loss_and_grads(loss_fn, tensors):
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    loss.backward()
    return loss.item(), [np.zeros_like(t.data) if t.grad is None else t.grad for t in tensors]


@pytest.mark.parametrize("num_labels", [2, 3])
@pytest.mark.parametrize("emission_grad", [True, False])
def test_batch_nll_matches_graph_oracle(num_labels, emission_grad):
    rng = np.random.default_rng(31 + num_labels)
    for trial in range(15):
        params = fresh_params(num_labels, seed=int(rng.integers(1 << 30)))
        lengths = [1, *rng.integers(1, 13, size=int(rng.integers(0, 7)))]
        rng.shuffle(lengths)
        us = [2.0 * rng.standard_normal((n, num_labels)) for n in lengths]
        if emission_grad:
            us = [Parameter(f"u{r}", u) for r, u in enumerate(us)]
        ys = [rng.integers(0, num_labels, size=n) for n in lengths]
        tensors = [*params.parameters(), *(us if emission_grad else [])]
        fused, fused_grads = _loss_and_grads(lambda: nll_loss(concat(us), ys, params), tensors)
        graph, graph_grads = _loss_and_grads(lambda: graph_nll_loss(us, ys, params), tensors)
        assert fused == graph, (trial, lengths)  # same operations in the same order
        for t, a, b in zip(tensors, fused_grads, graph_grads):
            assert np.max(np.abs(a - b)) < 1e-10, (trial, lengths, getattr(t, "name", None))


def test_batch_nll_scales_its_gradient_by_the_upstream_one():
    params = fresh_params(3, seed=8)
    u = Parameter("u", np.random.default_rng(8).standard_normal((4, 3)))
    tensors = [u, *params.parameters()]
    _, once = _loss_and_grads(lambda: nll_loss(u, [[0, 2, 2, 1]], params), tensors)
    _, thrice = _loss_and_grads(lambda: nll_loss(u, [[0, 2, 2, 1]], params) * 3.0, tensors)
    for a, b in zip(once, thrice):
        assert np.allclose(3.0 * a, b, rtol=1e-12, atol=0.0)


def test_batch_nll_validation():
    params = fresh_params(2)
    with pytest.raises(ValueError, match="sum to 1, not to the 3 input rows"):
        nll_loss(np.zeros((3, 2)), [[0]], params)
    with pytest.raises(ValueError, match="sum to 4, not to the 3 input rows"):
        nll_loss(np.zeros((3, 2)), [[0], [1, 0, 1]], params)
    with pytest.raises(ValueError, match="empty sequence"):
        nll_loss(np.zeros((1, 2)), [[0], []], params)
    with pytest.raises(ValueError, match="out of range"):
        nll_loss(np.zeros((3, 2)), [[0], [1, 2]], params)
    with pytest.raises(ValueError, match=r"shape \(2, 3\) for 2 labels"):
        nll_loss(np.zeros((2, 3)), [[0, 1]], params)
    with pytest.raises(ValueError, match="empty sequence"):
        nll_loss(np.zeros((0, 2)), [], params)


def test_input_validation():
    params = fresh_params(2)
    with pytest.raises(ValueError):
        score_sequence(np.zeros((2, 2)), [0], params)
    with pytest.raises(ValueError):
        score_sequence(np.zeros((2, 2)), [0, 2], params)
    with pytest.raises(ValueError):  # no labels to index: NumPy refuses their minimum
        score_sequence(np.zeros((0, 2)), [], params)
    with pytest.raises(ValueError):
        log_partition(np.zeros((0, 2)), params)
    with pytest.raises(ValueError):
        log_partition(np.zeros((2, 3)), params)
    with pytest.raises(ValueError, match="^empty emission sequence$"):
        viterbi_decode(np.zeros((0, 2)), params)
    with pytest.raises(ValueError, match="shape"):
        viterbi_decode(np.zeros((2, 3)), params)
    with pytest.raises(ValueError):
        CrfParams("bad", 0)


def test_brute_force_guard():
    params = fresh_params(3)
    with pytest.raises(ValueError, match="^empty emission sequence$"):
        brute_force_decode(np.zeros((0, 3)), params)
    with pytest.raises(ValueError, match="exceeds"):
        brute_force_decode(np.zeros((20, 3)), params)
    with pytest.raises(ValueError, match="exceeds"):
        brute_force_log_partition(np.zeros((20, 3)), params)


def test_accepts_tensor_emissions():
    params = fresh_params(2, seed=1)
    u = Tensor(np.random.default_rng(2).standard_normal((3, 2)))
    assert viterbi_decode(u, params)[0] == viterbi_decode(u.data, params)[0]
    assert nll_loss(u, [[0, 1, 0]], params).item() == pytest.approx(
        nll_loss(u.data, [[0, 1, 0]], params).item()
    )
