"""Linear-chain CRF: path scoring, exact log-partition, NLL loss and decoding.

A path score is the sum of per-position emission scores, transition scores
between adjacent labels, and start/end scores for the first and last label.
Start/end score vectors strictly generalize the model; construct
``CrfParams(..., learn_boundaries=False)`` to pin them at zero.
"""

from __future__ import annotations

import itertools

import numpy as np

from stimex.nn.tensor import Parameter, Tensor, as_tensor, take_pairs

MAX_BRUTE_FORCE = 1_000_000


class CrfParams:
    def __init__(self, name: str, num_labels: int, learn_boundaries: bool = True):
        if num_labels < 1:
            raise ValueError("num_labels must be positive")
        self.num_labels = num_labels
        self.transitions = Parameter(f"{name}.transitions", np.zeros((num_labels, num_labels)))
        self.start_scores = Parameter(
            f"{name}.start_scores", np.zeros(num_labels), trainable=learn_boundaries
        )
        self.end_scores = Parameter(
            f"{name}.end_scores", np.zeros(num_labels), trainable=learn_boundaries
        )

    def parameters(self) -> list[Parameter]:
        return [self.transitions, self.start_scores, self.end_scores]


def _check_labels(y: np.ndarray, n: int, num_labels: int) -> None:
    if len(y) != n:
        raise ValueError(f"label sequence length {len(y)} does not match {n} positions")
    if len(y) == 0:
        raise ValueError("empty label sequence")
    if y.min() < 0 or y.max() >= num_labels:
        raise ValueError("label index out of range")


def score_sequence(u: Tensor | np.ndarray, y, params: CrfParams) -> Tensor:
    """Differentiable score of one label path given emissions ``u`` (n, L)."""
    u = as_tensor(u)
    n = u.shape[0]
    y = np.asarray(y, dtype=int)
    _check_labels(y, n, params.num_labels)
    score = take_pairs(u, np.arange(n), y).sum()
    if n > 1:
        score = score + take_pairs(params.transitions, y[:-1], y[1:]).sum()
    return score + params.start_scores[int(y[0])] + params.end_scores[int(y[-1])]


def log_partition(u: Tensor | np.ndarray, params: CrfParams) -> Tensor:
    """log-sum-exp over all label paths, by the forward recursion."""
    u = as_tensor(u)
    n, num_labels = u.shape
    if n == 0:
        raise ValueError("empty emission sequence")
    if num_labels != params.num_labels:
        raise ValueError(f"emissions have {num_labels} labels, params {params.num_labels}")
    alpha = u[0] + params.start_scores
    for t in range(1, n):
        alpha = (alpha.reshape((num_labels, 1)) + params.transitions).logsumexp(axis=0) + u[t]
    return (alpha + params.end_scores).logsumexp()


def nll_loss(u: Tensor | np.ndarray, y, params: CrfParams) -> Tensor:
    """Negative log-likelihood of the gold path: ``logZ - score(y)``."""
    return log_partition(u, params) - score_sequence(u, y, params)


def _as_arrays(u, params: CrfParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    u = np.asarray(u.data if isinstance(u, Tensor) else u, dtype=np.float64)
    return u, params.transitions.data, params.start_scores.data, params.end_scores.data


def _score_path(
    u: np.ndarray, y: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray
) -> float:
    s = u[np.arange(len(y)), y].sum()
    if len(y) > 1:
        s = s + trans[y[:-1], y[1:]].sum()
    return float(s + start[y[0]] + end[y[-1]])


def viterbi_decode(u: Tensor | np.ndarray, params: CrfParams) -> tuple[list[int], float]:
    """Best label path and its score; ties break toward the lower label index."""
    u, trans, start, end = _as_arrays(u, params)
    n, num_labels = u.shape
    if n == 0:
        raise ValueError("empty emission sequence")
    delta = u[0] + start
    back = np.zeros((n, num_labels), dtype=int)
    for t in range(1, n):
        scores = delta[:, None] + trans
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(num_labels)] + u[t]
    label = int(np.argmax(delta + end))
    path = [label]
    for t in range(n - 1, 0, -1):
        label = int(back[t, label])
        path.append(label)
    path.reverse()
    return path, _score_path(u, np.asarray(path), trans, start, end)


def brute_force_decode(u: Tensor | np.ndarray, params: CrfParams) -> tuple[list[int], float]:
    """Exhaustive argmax over all label paths (oracle; small inputs only).

    Ties resolve to the lexicographically smallest path.
    """
    u, trans, start, end = _as_arrays(u, params)
    n, num_labels = u.shape
    if n == 0:
        raise ValueError("empty emission sequence")
    if num_labels**n > MAX_BRUTE_FORCE:
        raise ValueError(f"search space {num_labels}**{n} exceeds {MAX_BRUTE_FORCE}")
    best_path: tuple[int, ...] | None = None
    best_score = -np.inf
    for y in itertools.product(range(num_labels), repeat=n):
        s = _score_path(u, np.asarray(y), trans, start, end)
        if s > best_score:
            best_score = s
            best_path = y
    assert best_path is not None
    return list(best_path), best_score


def brute_force_log_partition(u: Tensor | np.ndarray, params: CrfParams) -> float:
    """Exhaustive log-sum-exp over all label paths (oracle; small inputs only)."""
    u, trans, start, end = _as_arrays(u, params)
    n, num_labels = u.shape
    if n == 0:
        raise ValueError("empty emission sequence")
    if num_labels**n > MAX_BRUTE_FORCE:
        raise ValueError(f"search space {num_labels}**{n} exceeds {MAX_BRUTE_FORCE}")
    scores = np.array(
        [
            _score_path(u, np.asarray(y), trans, start, end)
            for y in itertools.product(range(num_labels), repeat=n)
        ]
    )
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))
