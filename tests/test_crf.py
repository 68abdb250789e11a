from __future__ import annotations

import numpy as np
import pytest

from _oracles import finite_difference, gradient_gap
from stimex.crf import (
    CrfParams,
    brute_force_decode,
    brute_force_log_partition,
    log_partition,
    nll_loss,
    score_sequence,
    viterbi_decode,
)
from stimex.nn import Parameter, Tensor


def fresh_params(num_labels=2, seed=None, learn_boundaries=True):
    params = CrfParams("crf", num_labels, learn_boundaries=learn_boundaries)
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
    assert nll_loss(u, [0, 1], params).item() == pytest.approx(2 * np.log(2.0))


def test_peaked_emissions_give_tiny_nll():
    params = fresh_params(3)
    u = np.full((4, 3), -30.0)
    gold = [0, 1, 1, 2]
    for t, y in enumerate(gold):
        u[t, y] = 30.0
    assert nll_loss(u, gold, params).item() < 1e-6


def test_nll_is_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(30):
        params = fresh_params(3, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 6))
        u = rng.standard_normal((n, 3))
        y = rng.integers(0, 3, size=n)
        assert nll_loss(u, y, params).item() >= -1e-12


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
        return nll_loss(u, y, params)

    loss().backward()
    numeric = finite_difference(loss, tensors)
    analytic = {p.name: p.grad for p in tensors}
    assert gradient_gap(analytic, numeric) < 1e-6


def test_boundary_scores_can_be_frozen():
    params = fresh_params(2, learn_boundaries=False)
    assert not params.start_scores.trainable
    assert not params.end_scores.trainable
    assert params.transitions.trainable


def test_input_validation():
    params = fresh_params(2)
    with pytest.raises(ValueError):
        score_sequence(np.zeros((2, 2)), [0], params)
    with pytest.raises(ValueError):
        score_sequence(np.zeros((2, 2)), [0, 2], params)
    with pytest.raises(ValueError):
        log_partition(np.zeros((0, 2)), params)
    with pytest.raises(ValueError):
        log_partition(np.zeros((2, 3)), params)
    with pytest.raises(ValueError):
        viterbi_decode(np.zeros((0, 2)), params)
    with pytest.raises(ValueError):
        CrfParams("bad", 0)


def test_brute_force_guard():
    params = fresh_params(3)
    with pytest.raises(ValueError, match="exceeds"):
        brute_force_decode(np.zeros((20, 3)), params)
    with pytest.raises(ValueError, match="exceeds"):
        brute_force_log_partition(np.zeros((20, 3)), params)


def test_accepts_tensor_emissions():
    params = fresh_params(2, seed=1)
    u = Tensor(np.random.default_rng(2).standard_normal((3, 2)))
    assert viterbi_decode(u, params)[0] == viterbi_decode(u.data, params)[0]
    assert nll_loss(u, [0, 1, 0], params).item() == pytest.approx(
        nll_loss(u.data, [0, 1, 0], params).item()
    )
