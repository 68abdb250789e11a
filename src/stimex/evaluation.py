"""Span- and clause-level evaluation.

Five measures: clause-level precision/recall/F1 over the positive class, and
four span-matching regimes (Exact, Relaxed, Left-Exact, Right-Exact).  Span
matching is any-match without one-to-one assignment: a predicted span counts
toward precision if any gold span matches it, and a gold span counts toward
recall if any prediction matches it.  Counts are micro-averaged over the
corpus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from stimex.corpus import Span, csv_text


class MatchMode(enum.Enum):
    EXACT = "exact"
    RELAXED = "relaxed"
    LEFT_EXACT = "left"
    RIGHT_EXACT = "right"
    CLAUSE = "clause"


SPAN_MODES = (MatchMode.EXACT, MatchMode.RELAXED, MatchMode.LEFT_EXACT, MatchMode.RIGHT_EXACT)

EVAL_COLUMNS = (
    "dataset",
    "model",
    "mode",
    "precision_pct",
    "recall_pct",
    "f1_pct",
    "precision",
    "recall",
    "f1",
)


@dataclass(frozen=True)
class Prf:
    precision: float
    recall: float
    f1: float
    tp_p: int
    tp_r: int
    n_pred: int
    n_gold: int

    @classmethod
    def from_counts(cls, tp_p: int, tp_r: int, n_pred: int, n_gold: int) -> "Prf":
        precision = tp_p / n_pred if n_pred else 0.0
        recall = tp_r / n_gold if n_gold else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(precision, recall, f1, tp_p, tp_r, n_pred, n_gold)


# The key a span is matched by in the modes that compare boundaries.
_MATCH_KEYS = {
    MatchMode.EXACT: attrgetter("start", "end"),
    MatchMode.LEFT_EXACT: attrgetter("start"),
    MatchMode.RIGHT_EXACT: attrgetter("end"),
}


def span_prf(
    pred: Sequence[Sequence[Span]], gold: Sequence[Sequence[Span]], mode: MatchMode
) -> Prf:
    """Micro-averaged span P/R/F1 under one matching mode."""
    if mode not in SPAN_MODES:
        raise ValueError(f"{mode} is not a span-matching mode")
    if len(pred) != len(gold):
        raise ValueError(f"mismatched instance sets: {len(pred)} predicted vs {len(gold)} gold")
    key = _MATCH_KEYS.get(mode)
    tp_p = tp_r = n_pred = n_gold = 0
    for pred_spans, gold_spans in zip(pred, gold):
        n_pred += len(pred_spans)
        n_gold += len(gold_spans)
        if key is None:  # relaxed: any overlap
            tp_p += sum(
                any(p.start < g.end and g.start < p.end for g in gold_spans) for p in pred_spans
            )
            tp_r += sum(
                any(p.start < g.end and g.start < p.end for p in pred_spans) for g in gold_spans
            )
        else:
            pred_keys, gold_keys = list(map(key, pred_spans)), list(map(key, gold_spans))
            tp_p += sum(map(set(gold_keys).__contains__, pred_keys))
            tp_r += sum(map(set(pred_keys).__contains__, gold_keys))
    return Prf.from_counts(tp_p, tp_r, n_pred, n_gold)


def clause_prf(
    pred_flags: Sequence[Sequence[bool]], gold_flags: Sequence[Sequence[bool]]
) -> Prf:
    """P/R/F1 over the positive (stimulus) clause class."""
    if len(pred_flags) != len(gold_flags):
        raise ValueError(
            f"mismatched instance sets: {len(pred_flags)} predicted vs {len(gold_flags)} gold"
        )
    tp = n_pred = n_gold = 0
    for pred_inst, gold_inst in zip(pred_flags, gold_flags):
        if len(pred_inst) != len(gold_inst):
            raise ValueError(
                f"instance clause counts differ: {len(pred_inst)} vs {len(gold_inst)}"
            )
        for p, g in zip(pred_inst, gold_inst):
            n_pred += bool(p)
            n_gold += bool(g)
            tp += bool(p) and bool(g)
    return Prf.from_counts(tp, tp, n_pred, n_gold)


@dataclass(frozen=True)
class AlignmentReport:
    """Fractions of stimulus spans matched by some clause boundary."""

    exact: float
    left: float
    right: float
    n_stimuli: int


def clause_alignment(
    stimuli: Sequence[Sequence[Span]], clauses: Sequence[Sequence[Span]]
) -> AlignmentReport:
    """How well stimulus spans align with a clause segmentation."""
    if len(stimuli) != len(clauses):
        raise ValueError(
            f"mismatched instance sets: {len(stimuli)} stimuli vs {len(clauses)} clauses"
        )
    exact = left = right = total = 0
    for spans, segs in zip(stimuli, clauses):
        if not spans:
            continue
        bounds = {(c.start, c.end) for c in segs}
        starts = {c.start for c in segs}
        ends = {c.end for c in segs}
        total += len(spans)
        for sp in spans:
            exact += (sp.start, sp.end) in bounds
            left += sp.start in starts
            right += sp.end in ends
    if total == 0:
        return AlignmentReport(0.0, 0.0, 0.0, 0)
    return AlignmentReport(exact / total, left / total, right / total, total)


def clause_match_prf(
    extracted: Sequence[Sequence[Span]], annotated: Sequence[Sequence[Span]]
) -> Prf:
    """Exact-boundary P/R/F1 of extracted clauses against annotated clauses."""
    return span_prf(extracted, annotated, MatchMode.EXACT)


def format_eval_csv(rows: Sequence[tuple[str, str, MatchMode, Prf]]) -> str:
    """One row per (dataset, model, mode): integer-percent and full-precision P/R/F1."""
    return csv_text(
        EVAL_COLUMNS,
        [
            [dataset, model, mode.value]
            + [round(v * 100) for v in (prf.precision, prf.recall, prf.f1)]
            + [prf.precision, prf.recall, prf.f1]
            for dataset, model, mode, prf in rows
        ],
    )
