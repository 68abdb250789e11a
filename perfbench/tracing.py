"""In-memory timing spans around stimex's public entry points.

``Tracer.install()`` replaces each traced function where its callers look it
up (a module global, or a method on its class) with a wrapper that records a
span ``[name, start, end, parent]``; ``Tracer.uninstall()`` restores the
originals.  A call made while a span of the same name is open is attributed
to that span, so ``BiLstm.__call__`` -> ``BiLstm.run`` is one ``nn.bilstm``
span.  Counters are taken inside ``trace.count`` spans, so their cost is
excluded from every layer's self time.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from time import perf_counter

COUNT_SPAN = "trace.count"

# Span names whose metric is inclusive seconds (``.s``) rather than self time.
TOTAL_SPANS = (
    "models.save_checkpoint",
    "models.load_checkpoint",
    "corpus.load_corpus",
    "corpus.save_corpus",
    "corpus.compute_stats",
    "corpus.split_corpus",
    "corpus.generate_synthetic",
    "parsetree.parse_bracket",
    "clause_extract.join_segments",
    "mapping",
    "evaluation.span_prf",
    "evaluation.clause_prf",
    "evaluation.alignment",
    "error_analysis.classify_corpus",
)
SELF_SPANS = (
    "nn.backward",
    "nn.adam",
    "nn.bilstm",
    "nn.attention",
    "nn.linear",
    "nn.dropout",
    "models.lookup",
    "models.loss",
    "models.predict",
    "models.train",
    "crf.log_partition",
    "crf.nll_loss",
    "crf.viterbi",
    "clause_extract.extract_clauses",
)
COUNTERS = (
    "nn.graph_nodes",
    "nn.bilstm.steps",
    "nn.attention.pairs",
    "models.lookup.tokens",
    "crf.positions",
    "models.checkpoint.bytes",
    "parsetree.nodes",
    "clause_extract.segments_raw",
    "clause_extract.segments_joined",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for name in SELF_SPANS:
        names += [f"{name}.calls", f"{name}.self_s"]
    for name in TOTAL_SPANS:
        names += [f"{name}.calls", f"{name}.s"]
    return names + list(COUNTERS) + ["trace.overhead_ratio"]


def unit(name: str) -> str:
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "s" if name.endswith((".s", "_s")) else "count"


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans: list[list]) -> dict[str, list]:
    """``name -> [calls, total_s, self_s]``; self time excludes child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += max(0.0, end - start - covered(start, end, children.get(i, [])))
    return out


def _graph_nodes(loss) -> int:
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def _nodes(tree) -> int:
    return sum(1 for _ in tree.iter_nodes())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.stack.pop()
        self.spans[i][2] = perf_counter()

    def _count(self, hook, *args) -> None:
        i = self._open(COUNT_SPAN)
        try:
            hook(self.counts, *args)
        finally:
            self._close(i)

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``; hooks get (counts, args) / (counts, args, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                self._count(before, args)
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                self._count(after, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def install(self) -> None:
        from stimex import clause_extract, corpus, crf, error_analysis, evaluation
        from stimex import mapping, models, parsetree
        from stimex.nn import layers, optim, tensor

        def add(key, value):
            return lambda counts, args, *_: counts.update({key: value(args)})

        p = self.patch
        p(tensor.Tensor, "backward", "nn.backward", before=add("nn.graph_nodes", lambda a: _graph_nodes(a[0])))
        p(optim.Adam, "step", "nn.adam")
        steps = add("nn.bilstm.steps", lambda a: 2 * a[1].shape[0])
        p(layers.BiLstm, "__call__", "nn.bilstm", before=steps)
        p(layers.BiLstm, "run", "nn.bilstm", before=steps)
        p(layers.Linear, "__call__", "nn.linear")
        p(models, "attention", "nn.attention", before=add("nn.attention.pairs", lambda a: a[0].shape[0] ** 2))
        p(models, "dropout", "nn.dropout")
        p(models.EmbeddingTable, "lookup", "models.lookup", before=add("models.lookup.tokens", lambda a: len(a[1])))
        for cls in (models.SlModel, models.IccModel, models.JccModel):
            p(cls, "loss", "models.loss")
            p(cls, "predict", "models.predict")
        p(models, "train", "models.train")
        size = lambda counts, args, _: counts.update({"models.checkpoint.bytes": os.path.getsize(args[1])})
        p(models, "save_checkpoint", "models.save_checkpoint", after=size)
        p(models, "load_checkpoint", "models.load_checkpoint")
        p(crf, "log_partition", "crf.log_partition", before=add("crf.positions", lambda a: a[0].shape[0]))
        p(crf, "nll_loss", "crf.nll_loss")
        p(crf, "viterbi_decode", "crf.viterbi")
        for fn in ("load_corpus", "save_corpus", "compute_stats", "split_corpus", "generate_synthetic"):
            p(corpus, fn, f"corpus.{fn}")
        nodes = lambda counts, args, tree: counts.update({"parsetree.nodes": _nodes(tree)})
        p(parsetree, "parse_bracket", "parsetree.parse_bracket", after=nodes)
        p(clause_extract, "extract_clauses", "clause_extract.extract_clauses")
        p(
            clause_extract,
            "join_segments",
            "clause_extract.join_segments",
            before=add("clause_extract.segments_raw", lambda a: len(a[0].segments)),
            after=lambda counts, args, segs: counts.update(
                {"clause_extract.segments_joined": len(segs.segments)}
            ),
        )
        for owner in (mapping, models):
            p(owner, "tokens_to_clauses", "mapping")
        p(mapping, "clauses_to_tokens", "mapping")
        for owner in (evaluation, models):
            p(owner, "span_prf", "evaluation.span_prf")
            p(owner, "clause_prf", "evaluation.clause_prf")
        p(evaluation, "clause_alignment", "evaluation.alignment")
        p(evaluation, "clause_match_prf", "evaluation.alignment")
        p(error_analysis, "classify_corpus", "error_analysis.classify_corpus")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        agg = summarize(self.spans)
        out: dict[str, float] = {}
        for name in SELF_SPANS:
            calls, _, self_s = agg.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"], out[f"{name}.self_s"] = calls, self_s
        for name in TOTAL_SPANS:
            calls, total, _ = agg.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"], out[f"{name}.s"] = calls, total
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        return out
