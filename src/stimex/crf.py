"""Linear-chain CRF: path scoring, exact log-partition, NLL loss and decoding.

A path score is the sum of per-position emission scores, transition scores
between adjacent labels, and start/end scores for the first and last label.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from stimex.nn.layers import _packed_spans, _pad, _unpad
from stimex.nn.tensor import Parameter, Tensor, _accum, as_tensor, log_sum_exp

MAX_BRUTE_FORCE = 1_000_000


class CrfParams:
    def __init__(self, name: str, num_labels: int):
        if num_labels < 1:
            raise ValueError("num_labels must be positive")
        self.num_labels = num_labels
        self.transitions = Parameter(f"{name}.transitions", np.zeros((num_labels, num_labels)))
        self.start_scores = Parameter(f"{name}.start_scores", np.zeros(num_labels))
        self.end_scores = Parameter(f"{name}.end_scores", np.zeros(num_labels))

    def parameters(self) -> list[Parameter]:
        return [self.transitions, self.start_scores, self.end_scores]


def _check_labels(y: np.ndarray, n: int, num_labels: int) -> None:
    if len(y) != n:
        raise ValueError(f"label sequence length {len(y)} does not match {n} positions")
    if y.min() < 0 or y.max() >= num_labels:
        raise ValueError("label index out of range")


def _grid(u: np.ndarray, lengths, params: CrfParams) -> tuple[np.ndarray, list, np.ndarray]:
    """Packed (N, L) emission rows of sequences of the given lengths, padded into
    a step-major (T, R, L) grid by ``_pad``; with the sequences' (start, size)
    spans and the (T, R) mask of the steps within their lengths."""
    if u.ndim != 2 or u.shape[1] != params.num_labels:
        raise ValueError(f"emissions of shape {u.shape} for {params.num_labels} labels")
    spans = _packed_spans(len(u), lengths)
    grid = _pad(u, spans)
    return grid, spans, np.arange(len(grid))[:, None] < np.array(lengths)


def _alphas(grid: np.ndarray, live: np.ndarray, params: CrfParams) -> tuple[np.ndarray, ...]:
    """Forward recursion over a grid: the (T, R, L) alphas and each sequence's log Z.

    ``alphas[t, r, j]`` sums (in log space) the paths of sequence r that end in
    label j at step t.  Each step runs the per-sequence graph's operations,
    ``lse(alpha[:, None] + trans, axis=0) + u[t]``, for all R sequences; a
    sequence past its length keeps its last alpha.
    """
    trans = params.transitions.data
    alphas = np.empty_like(grid)
    alphas[0] = grid[0] + params.start_scores.data
    for t in range(1, len(grid)):
        step = log_sum_exp(alphas[t - 1][:, :, None] + trans, axis=1)[:, 0] + grid[t]
        alphas[t] = np.where(live[t][:, None], step, alphas[t - 1])
    return alphas, log_sum_exp(alphas[-1] + params.end_scores.data, axis=1)[:, 0]


def nll_loss(emissions, labels, params: CrfParams) -> Tensor:
    """Summed negative log-likelihood of R gold label paths, as one graph node.

    ``emissions`` holds the R sequences' emission scores as consecutive
    (N, L) rows, as the ``nn`` layers lay out a batch; the label sequences
    say where each one ends.  The loss is the left fold, in sequence order,
    of ``logZ_r + (-score_r)`` (see ``_alphas``), so it equals summing the
    per-sequence graph losses bit for bit.  The backward pass is
    forward-backward (Lafferty et al. 2001; Sutton and McCallum, arXiv
    1011.4088): the beta recursion on the same grid gives the node and
    pairwise marginals.  The gradient of the emissions and of the start and
    end scores is the node marginals minus the gold one-hots; that of the
    transitions is the pairwise marginals summed over the steps within each
    length, minus the gold transition counts.
    """
    emissions = as_tensor(emissions)
    labels = [np.asarray(y, dtype=int) for y in labels]
    lengths = [len(y) for y in labels]
    grid, spans, live = _grid(emissions.data, lengths, params)
    for y, (_, size) in zip(labels, spans):
        _check_labels(y, size, params.num_labels)
    trans, start, end = params.parameters()
    alphas, log_z = _alphas(grid, live, params)
    total = None
    for y, z, (first, size) in zip(labels, log_z, spans):
        u = emissions.data[first : first + size]
        loss = z + (-_score_path(u, y, trans.data, start.data, end.data))
        total = loss if total is None else total + loss
    out = Tensor(total)

    def backward(grad):
        # betas[t, r, i] sums (in log space) the continuations of label i after step t
        betas = np.empty_like(grid)
        betas[-1] = end.data
        for t in range(len(grid) - 2, -1, -1):
            step = log_sum_exp(trans.data + (grid[t + 1] + betas[t + 1])[:, None, :], axis=2)
            betas[t] = np.where(live[t + 1][:, None], step[..., 0], end.data)
        node = np.exp(alphas + betas - log_z[:, None])  # read only within each length
        into = (grid[1:] + betas[1:])[:, :, None]  # transitions into steps 1..T-1
        pair = np.exp(alphas[:-1, :, :, None] + trans.data + into - log_z[:, None, None])
        d_trans = np.where(live[1:, :, None, None], pair, 0.0).sum(axis=(0, 1))
        d_start = node[0].sum(axis=0)
        d_end = node[np.array(lengths) - 1, np.arange(len(lengths))].sum(axis=0)
        for r, y in enumerate(labels):
            node[np.arange(len(y)), r, y] -= 1.0
            np.add.at(d_trans, (y[:-1], y[1:]), -1.0)
            d_start[y[0]] -= 1.0
            d_end[y[-1]] -= 1.0
        if emissions.requires_grad:
            _accum(emissions, grad * _unpad(node, spans))
        for p, d in ((trans, d_trans), (start, d_start), (end, d_end)):
            _accum(p, grad * d)

    return out._attach((emissions, trans, start, end), backward)


def log_partition(u: Tensor | np.ndarray, params: CrfParams) -> Tensor:
    """log-sum-exp over all label paths, by the forward recursion, as a graph-free Tensor."""
    u = as_tensor(u).data
    grid, _, live = _grid(u, u.shape[:1], params)  # one sequence of all the rows
    return Tensor(_alphas(grid, live, params)[1][0])


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
    """Best label path and its score; ties break toward the lower label index.

    The recursion runs on Python floats: a label's best predecessor is the
    first maximum of ``delta[i] + trans[i, j]``, the same IEEE additions as
    in NumPy, so path and score are those of the array recursion bit for bit.
    Non-finite emissions or CRF parameters are refused, as NaN compares unlike
    in ``np.argmax``.
    """
    u, trans, start, end = _as_arrays(u, params)
    if u.ndim != 2 or u.shape[1] != params.num_labels:
        raise ValueError(f"emissions of shape {u.shape} for {params.num_labels} labels")
    if len(u) == 0:
        raise ValueError("empty emission sequence")
    if not np.isfinite(u).all():
        raise ValueError("non-finite emission score")
    for p in params.parameters():
        if not np.isfinite(p.data).all():
            raise ValueError(f"non-finite value in CRF parameter {p.name!r}")
    rows, columns = u.tolist(), list(zip(*trans.tolist()))  # columns[j] = trans[:, j]
    delta = list(map(operator.add, rows[0], start.tolist()))
    back = []
    for row in rows[1:]:
        scores = [list(map(operator.add, delta, col)) for col in columns]
        best = list(map(max, scores))
        back.append(list(map(list.index, scores, best)))
        delta = list(map(operator.add, best, row))
    final = list(map(operator.add, delta, end.tolist()))
    label = final.index(max(final))
    path = [label]
    for ptr in reversed(back):
        label = ptr[label]
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

