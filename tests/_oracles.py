"""Shared test helpers: finite differences, independently coded recounts and reference
implementations (brute force, recursion, pairwise matching), and damaged files."""

from __future__ import annotations

import itertools
import json

import numpy as np
from hypothesis import strategies as st

from stimex.corpus import Span
from stimex.crf import MAX_BRUTE_FORCE, CrfParams, _as_arrays, _check_labels, _score_path
from stimex.evaluation import MatchMode
from stimex.nn import Tensor, as_tensor, concat
from stimex.nn.tensor import _accum, stable_sigmoid


def _scalar(value) -> float:
    return float(value.item() if hasattr(value, "item") else value)


def finite_difference(loss_fn, params, step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of ``loss_fn()`` w.r.t. each parameter."""
    grads = {}
    for p in params:
        g = np.zeros_like(p.data)
        flat, gf = p.data.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = _scalar(loss_fn())
            flat[i] = orig - step
            lo = _scalar(loss_fn())
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * step)
        grads[p.name] = g
    return grads


def gradient_gap(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    """Norm-based relative error between two gradient collections."""
    keys = sorted(numeric)
    a = np.concatenate([np.asarray(analytic[k], dtype=float).ravel() for k in keys])
    b = np.concatenate([numeric[k].ravel() for k in keys])
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12))


# -- graph ops that only the oracles below use ---------------------------------------------


def _unary(x: Tensor, y: np.ndarray, dy_dx) -> Tensor:
    """Elementwise ``y = f(x)`` as a graph node, with ``dy_dx(y)`` its derivative."""
    out = Tensor(y)

    def backward(grad):
        _accum(x, dy_dx(y) * grad)

    return out._attach((x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    return _unary(x, stable_sigmoid(x.data), lambda y: y * (1.0 - y))


def tanh(x: Tensor) -> Tensor:
    return _unary(x, np.tanh(x.data), lambda y: 1.0 - y * y)


def transpose(x: Tensor) -> Tensor:
    out = Tensor(x.data.T)

    def backward(grad):
        _accum(x, grad.T)

    return out._attach((x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax shifted by the maximum along ``axis``."""
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s)

    def backward(grad):
        inner = (grad * s).sum(axis=axis, keepdims=True)
        _accum(x, s * (grad - inner))

    return out._attach((x,), backward)


def stack(tensors) -> Tensor:
    """Equal-shape tensors stacked along a new leading axis."""
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors]))

    def backward(grad):
        for k, t in enumerate(tensors):
            if t.requires_grad:
                _accum(t, grad[k])

    return out._attach(tuple(tensors), backward)


# -- reference implementations --------------------------------------------------------------


def graph_attention(h: Tensor) -> Tensor:
    """Reference self-attention over one sequence, from small autodiff nodes:
    ``concat([h, softmax(h @ h.T) @ h])``.  ``nn.attention`` must reproduce its
    values exactly, block by block, and its gradients to rounding."""
    return concat([h, softmax(h @ transpose(h), axis=1) @ h], axis=1)


def lstm_states_per_step(w_x, w_h, bias, xs: Tensor, reverse: bool = False) -> Tensor:
    """Reference LSTM built from one small autodiff node per operation and step.

    ``w_x``, ``w_h`` and ``bias`` are one direction's graph nodes, such as
    ``bi.w_x[d]``, ``bi.w_h[d]`` and ``bi.bias[d]`` of a ``BiLstm``, with its
    gate order; the fused ``_lstm`` must reproduce its values exactly and its
    gradients to rounding.
    """
    hd = w_h.shape[0]
    xw = xs @ w_x
    h = Tensor(np.zeros(hd))
    c = Tensor(np.zeros(hd))
    out = [None] * xs.shape[0]
    order = range(xs.shape[0] - 1, -1, -1) if reverse else range(xs.shape[0])
    for t in order:
        pre = xw[t] + h @ w_h + bias
        i = sigmoid(pre[0:hd])
        f = sigmoid(pre[hd : 2 * hd])
        g = tanh(pre[2 * hd : 3 * hd])
        o = sigmoid(pre[3 * hd : 4 * hd])
        c = f * c + i * g
        h = o * tanh(c)
        out[t] = h
    return stack(out)


def graph_nll_loss(emissions, labels, params) -> Tensor:
    """Reference CRF loss built from one small autodiff node per operation and position.

    The summed negative log-likelihood of each ``(u, y)`` pair, added in order:
    the forward recursion ``lse(alpha + trans, over the previous label) + u[t]``
    as graph nodes, minus the gold path score.  ``crf.nll_loss`` must
    reproduce its value and its gradients to rounding.
    """
    total = None
    for u, y in zip(emissions, labels):
        u = as_tensor(u)
        y = np.asarray(y, dtype=int)
        n = len(y)
        alpha = u[0] + params.start_scores
        for t in range(1, n):
            alpha = (transpose(params.transitions) + alpha).logsumexp(axis=1) + u[t]
        log_z = (alpha + params.end_scores).logsumexp()
        score = u[np.arange(n), y].sum()
        if n > 1:
            score = score + params.transitions[y[:-1], y[1:]].sum()
        score = score + params.start_scores[int(y[0])] + params.end_scores[int(y[-1])]
        loss = log_z - score
        total = loss if total is None else total + loss
    return total


def score_sequence(u: Tensor | np.ndarray, y, params: CrfParams) -> Tensor:
    """Score of one label path given emissions ``u`` (n, L), as a graph-free Tensor."""
    u, trans, start, end = _as_arrays(u, params)
    y = np.asarray(y, dtype=int)
    _check_labels(y, u.shape[0], params.num_labels)
    return Tensor(_score_path(u, y, trans, start, end))


def array_viterbi_decode(u: Tensor | np.ndarray, params: CrfParams) -> tuple[list[int], float]:
    """Best label path and its score; ties break toward the lower label index.
    The recursion on NumPy arrays, one vectorised max-plus step per position."""
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


def random_tree_text(rng: np.random.Generator, max_depth: int = 4) -> str:
    """Random bracketed tree over a small label/word pool."""
    labels = ("S", "SBAR", "SBARQ", "NP", "VP", "X", "SQ", "ADJP")
    words = ("a", "b", "c", "dog", "ran", "!", ",", "the", "-LRB-")

    def pick(pool):
        return pool[int(rng.integers(0, len(pool)))]

    def node(depth: int) -> str:
        if depth >= max_depth or rng.random() < 0.35:
            return f"({pick(labels)} {pick(words)})"
        k = int(rng.integers(1, 4))
        return "(" + pick(labels) + " " + " ".join(node(depth + 1) for _ in range(k)) + ")"

    return node(0)


def to_bracket(tree) -> str:
    """``tree`` written back in bracket form, one space between nodes."""
    if tree.token is not None:
        return f"({tree.label} {tree.token})"
    return "(" + tree.label + " " + " ".join(to_bracket(c) for c in tree.children) + ")"


def preorder(tree) -> list:
    """Nodes of ``tree`` in pre-order, by recursion."""
    out = [tree]
    for child in tree.children:
        out += preorder(child)
    return out


def span_match(pred: Span, gold: Span, mode: MatchMode) -> bool:
    """Whether one predicted span matches one gold span under ``mode``."""
    if mode is MatchMode.EXACT:
        return pred == gold
    if mode is MatchMode.RELAXED:
        return pred.overlaps(gold)
    if mode is MatchMode.LEFT_EXACT:
        return pred.start == gold.start
    if mode is MatchMode.RIGHT_EXACT:
        return pred.end == gold.end
    raise ValueError(f"{mode} is not a span-matching mode")


def pairwise_span_counts(pred, gold, mode: MatchMode) -> tuple[int, int, int, int]:
    """(tp_p, tp_r, n_pred, n_gold) of ``span_prf``, by comparing every pair of spans."""
    tp_p = tp_r = n_pred = n_gold = 0
    for pred_spans, gold_spans in zip(pred, gold):
        n_pred += len(pred_spans)
        n_gold += len(gold_spans)
        tp_p += sum(1 for p in pred_spans if any(span_match(p, g, mode) for g in gold_spans))
        tp_r += sum(1 for g in gold_spans if any(span_match(p, g, mode) for p in pred_spans))
    return tp_p, tp_r, n_pred, n_gold


def pairwise_alignment(stimuli, clauses) -> tuple[int, int, int, int]:
    """(exact, left, right, total) counts of ``clause_alignment``, pair by pair."""
    exact = left = right = total = 0
    for spans, segs in zip(stimuli, clauses):
        for sp in spans:
            total += 1
            exact += any(span_match(sp, c, MatchMode.EXACT) for c in segs)
            left += any(span_match(sp, c, MatchMode.LEFT_EXACT) for c in segs)
            right += any(span_match(sp, c, MatchMode.RIGHT_EXACT) for c in segs)
    return exact, left, right, total


def spans_of(iob) -> list[tuple[int, int]]:
    """(start, end) of each span: a non-``O`` label opens one, following ``I`` labels extend it."""
    spans = []
    i, n = 0, len(iob)
    while i < n:
        if iob[i] == "O":
            i += 1
            continue
        j = i + 1
        while j < n and iob[j] == "I":
            j += 1
        spans.append((i, j))
        i = j
    return spans


def recount_dev_score(arch: str, preds, instances, metric: str) -> float:
    """A model's selection metric recounted from its predictions: label accuracy, or the
    F1 of exact spans (``sl``) or of stimulus clauses (``icc``, ``jcc``)."""
    if arch == "sl":
        golds = [inst.iob for inst in instances]
    else:
        golds = [
            [any(inst.iob[i] != "O" for i in range(c.span.start, c.span.end)) for c in inst.clauses]
            for inst in instances
        ]
    if metric == "accuracy":
        pairs = [pg for ps, gs in zip(preds, golds) for pg in zip(ps, gs, strict=True)]
        return sum(p == g for p, g in pairs) / len(pairs)

    def items(labels):
        if arch == "sl":
            return {(k, span) for k, iob in enumerate(labels) for span in spans_of(iob)}
        return {(k, j) for k, flags in enumerate(labels) for j, flag in enumerate(flags) if flag}

    predicted, gold = items(preds), items(golds)
    hits = len(predicted & gold)
    precision = hits / len(predicted) if predicted else 0.0
    recall = hits / len(gold) if gold else 0.0
    return 2 * precision * recall / (precision + recall) if hits else 0.0


def naive_stats(instances) -> dict:
    """Recount every statistics column with logic independent of the package."""
    out = {
        "size": len(instances),
        "with_stimuli": 0,
        "mu_len": 0.0,
        "sigma_len": 0.0,
        "mu_s_per_i": 0.0,
        "mu_s_per_c": None,
        "clauses_total": None,
        "clauses_with_s": None,
        "mu_clauses_per_i": None,
        "mu_all_s_per_i": None,
    }
    if not instances:
        out.update(
            mu_s_per_c=0.0, clauses_total=0, clauses_with_s=0,
            mu_clauses_per_i=0.0, mu_all_s_per_i=0.0,
        )
        return out

    lengths = []
    fracs = []
    for inst in instances:
        spans = spans_of(inst.iob)
        if spans:
            out["with_stimuli"] += 1
        lengths.extend(b - a for a, b in spans)
        fracs.append(sum(b - a for a, b in spans) / len(inst.tokens))
    if lengths:
        mu = sum(lengths) / len(lengths)
        out["mu_len"] = mu
        out["sigma_len"] = (sum((x - mu) ** 2 for x in lengths) / len(lengths)) ** 0.5
    out["mu_s_per_i"] = sum(fracs) / len(fracs)

    clause_insts = [inst for inst in instances if inst.clauses is not None]
    if not clause_insts:
        return out
    total = with_s = full = 0
    frac_sum = 0.0
    for inst in clause_insts:
        for cl in inst.clauses:
            width = cl.span.end - cl.span.start
            stim = sum(1 for i in range(cl.span.start, cl.span.end) if inst.iob[i] != "O")
            total += 1
            frac_sum += stim / width
            if stim > 0:
                with_s += 1
            if stim == width:
                full += 1
    out["mu_s_per_c"] = frac_sum / total if total else 0.0
    out["clauses_total"] = total
    out["clauses_with_s"] = with_s
    out["mu_clauses_per_i"] = total / len(clause_insts)
    out["mu_all_s_per_i"] = full / len(clause_insts)
    return out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


def _overwrite(good: bytes, at: int, value: int) -> bytes:
    return good[:at] + bytes([value]) + good[at + 1 :]


def damaged_bytes(good: bytes):
    """``good`` cut at any byte or with any byte overwritten, or any bytes."""
    return st.one_of(
        st.integers(0, len(good) - 1).map(lambda n: good[:n]),
        st.builds(_overwrite, st.just(good), st.integers(0, len(good) - 1), st.integers(0, 255)),
        st.binary(max_size=200),
    )


def damaged(good: bytes):
    """``good`` cut at any byte, with any byte (or a header byte) overwritten, with one
    payload value made NaN or infinite, with the header line, one header entry or one
    item of a header list replaced by any JSON value, with one header entry dropped, or
    any bytes."""
    header_end = good.index(b"\n")
    header, body = json.loads(good[:header_end]), good[header_end + 1 :]
    lists = sorted(key for key, value in header.items() if isinstance(value, list) and value)

    def with_value(at, value):
        at = header_end + 1 + 8 * (at % (len(body) // 8))
        return good[:at] + np.array(value, "<f8").tobytes() + good[at + 8 :]

    def line(value, rest):
        return json.dumps(value).encode("utf-8") + b"\n" + rest

    def with_item(key, at, value):
        items = list(header[key])
        items[at % len(items)] = value
        return line({**header, key: items}, body)

    return st.one_of(
        damaged_bytes(good),
        st.builds(_overwrite, st.just(good), st.integers(0, header_end), st.integers(0, 255)),
        st.builds(with_value, st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf])),
        st.builds(
            lambda key, value: line({**header, key: value}, body),
            st.sampled_from(sorted(header)),
            JSON_VALUES,
        ),
        st.builds(with_item, st.sampled_from(lists), st.integers(0, 10**4), JSON_VALUES),
        st.sampled_from(sorted(header)).map(
            lambda key: line({k: v for k, v in header.items() if k != key}, body)
        ),
        st.builds(line, JSON_VALUES, st.binary(max_size=64)),
    )


CORPUS_RECORD = {  # the README's example line, with predictions
    "id": "ex-1",
    "dataset": "demo",
    "tokens": ["I", "cried", "because", "he", "left", "."],
    "iob": ["O", "O", "B", "I", "I", "O"],
    "clauses": [{"start": 0, "end": 2, "stimulus": False}, {"start": 2, "end": 5, "stimulus": True}],
    "parse": "(S (NP (PRP I)) (VP (VBD cried)) (SBAR (IN because) (S (NP he) (VP left))) (. .))",
    "emotion": "sadness",
    "pred_iob": ["O", "B", "I", "O", "O", "O"],
    "pred_clauses": [{"start": 0, "end": 2, "stimulus": True}],
}


def damaged_corpus(record: dict):
    """A corpus file of two copies of ``record``, the second one damaged: one field (or a
    new key) set to any JSON value, one field dropped, one item of a list field or one
    key of a clause replaced, the line cut or a byte of it overwritten; or any JSON value
    as the line, or any bytes as the file."""
    good = json.dumps(record).encode("utf-8") + b"\n"
    lists = sorted(key for key, value in record.items() if isinstance(value, list) and value)
    clause_keys = sorted({key for clause in record.get("clauses", []) for key in clause})

    def file(second: bytes) -> bytes:
        return good + second + b"\n"

    def line(value) -> bytes:
        return file(json.dumps(value).encode("utf-8"))

    def with_item(key, at, value):
        items = list(record[key])
        items[at % len(items)] = value
        return line({**record, key: items})

    def with_clause_key(at, key, value):
        clauses = [dict(c) for c in record["clauses"]]
        clauses[at % len(clauses)][key] = value
        return line({**record, "clauses": clauses})

    def overwrite(at, value):
        return file(good[:at] + bytes([value]) + good[at + 1 : -1])

    return st.one_of(
        st.builds(
            lambda key, value: line({**record, key: value}),
            st.sampled_from(sorted(record) + ["extra"]),
            JSON_VALUES,
        ),
        st.sampled_from(sorted(record)).map(
            lambda key: line({k: v for k, v in record.items() if k != key})
        ),
        st.builds(with_item, st.sampled_from(lists), st.integers(0, 10**4), JSON_VALUES),
        st.builds(
            with_clause_key, st.integers(0, 10**4), st.sampled_from(clause_keys), JSON_VALUES
        ),
        st.integers(0, len(good) - 1).map(lambda n: file(good[:n])),
        st.builds(overwrite, st.integers(0, len(good) - 2), st.integers(0, 255)),
        JSON_VALUES.map(line),
        st.binary(max_size=200),
    )


def damaged_brackets(good: str):
    """Bracket text: ``good`` cut, or with a character overwritten, inserted or deleted;
    text over the bracket alphabet; or a tree nested up to 3,000 deep."""
    alphabet = st.sampled_from("() \tSNPVab-.")
    at = st.integers(0, len(good))
    return st.one_of(
        at.map(lambda n: good[:n]),
        st.builds(lambda n, ch: good[:n] + ch + good[n + 1 :], at, alphabet),
        st.builds(lambda n, ch: good[:n] + ch + good[n:], at, alphabet),
        at.map(lambda n: good[:n] + good[n + 1 :]),
        st.text(alphabet, max_size=80),
        st.integers(0, 3000).map(lambda n: "(S " * n + "(X x)" + ")" * n),
    )
