"""Boundary-error taxonomy for predicted vs. gold stimulus spans.

Every gold span receives exactly one type, decided by the boundary relation
to its overlapping predictions:

    overlapping predictions  pred [ps, pe) vs gold [gs, ge)   type
    -----------------------  ------------------------------  -------------
    none                                                      FalseNegative
    two or more                                               Multiple
    one                      ps = gs and pe = ge              TruePositive
    one                      ps = gs and pe < ge              EarlyStop
    one                      ps = gs and pe > ge              LateStop
    one                      ps < gs and pe < ge              EarlyStartStop
    one                      ps < gs and pe = ge              EarlyStart
    one                      ps > gs and pe = ge              LateStart
    one                      ps > gs and pe > ge              LateStartStop
    one                      ps > gs and pe < ge              Contained
    one                      ps < gs and pe > ge              Surrounded

Predictions overlapping no gold span are counted as FalsePositive, one per
prediction.  A prediction overlapping several gold spans is typed once per
gold span and is not additionally a FalsePositive.
"""

from __future__ import annotations

import enum
from typing import Sequence

from stimex.corpus import Span, csv_text


class ErrorType(enum.Enum):
    TRUE_POSITIVE = "true_positive"
    EARLY_STOP = "early_stop"
    LATE_STOP = "late_stop"
    EARLY_START_STOP = "early_start_stop"
    EARLY_START = "early_start"
    LATE_START = "late_start"
    LATE_START_STOP = "late_start_stop"
    CONTAINED = "contained"
    SURROUNDED = "surrounded"
    MULTIPLE = "multiple"
    FALSE_NEGATIVE = "false_negative"
    FALSE_POSITIVE = "false_positive"


def classify_gold(gold: Span, overlapping_preds: Sequence[Span]) -> ErrorType:
    """Type one gold span given the predictions that overlap it."""
    for p in overlapping_preds:
        if not p.overlaps(gold):
            raise ValueError(f"prediction [{p.start}, {p.end}) does not overlap the gold span")
    if not overlapping_preds:
        return ErrorType.FALSE_NEGATIVE
    if len(overlapping_preds) >= 2:
        return ErrorType.MULTIPLE
    p = overlapping_preds[0]
    if p.start == gold.start:
        if p.end == gold.end:
            return ErrorType.TRUE_POSITIVE
        return ErrorType.EARLY_STOP if p.end < gold.end else ErrorType.LATE_STOP
    if p.start < gold.start:
        if p.end < gold.end:
            return ErrorType.EARLY_START_STOP
        return ErrorType.EARLY_START if p.end == gold.end else ErrorType.SURROUNDED
    if p.end == gold.end:
        return ErrorType.LATE_START
    return ErrorType.LATE_START_STOP if p.end > gold.end else ErrorType.CONTAINED


def classify_corpus(
    gold: Sequence[Sequence[Span]], pred: Sequence[Sequence[Span]]
) -> dict[ErrorType, int]:
    """Error-type counts over a corpus of per-instance span sets."""
    if len(gold) != len(pred):
        raise ValueError(f"mismatched instance sets: {len(gold)} gold vs {len(pred)} predicted")
    counts = {t: 0 for t in ErrorType}
    for gold_spans, pred_spans in zip(gold, pred):
        for g in gold_spans:
            overlapping = [p for p in pred_spans if p.overlaps(g)]
            counts[classify_gold(g, overlapping)] += 1
        for p in pred_spans:
            if not any(p.overlaps(g) for g in gold_spans):
                counts[ErrorType.FALSE_POSITIVE] += 1
    return counts


def format_errors_csv(counts_by_column: dict[str, dict[ErrorType, int]]) -> str:
    """Rows are error types (plus an All total excluding TruePositive), one column per run."""
    columns = sorted(counts_by_column)
    rows = [[t.value] + [counts_by_column[c].get(t, 0) for c in columns] for t in ErrorType]
    errors = [t for t in ErrorType if t is not ErrorType.TRUE_POSITIVE]
    rows.append(["all"] + [sum(counts_by_column[c].get(t, 0) for t in errors) for c in columns])
    return csv_text(["error_type"] + columns, rows)
