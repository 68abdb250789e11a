from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import pairwise_alignment, pairwise_span_counts, span_match
from stimex.corpus import Span
from stimex.evaluation import (
    SPAN_MODES,
    AlignmentReport,
    MatchMode,
    Prf,
    clause_alignment,
    clause_match_prf,
    clause_prf,
    format_eval_csv,
    span_prf,
)


def spans(bounds):
    return [Span(a, b) for a, b in bounds]


# -- span matching ---------------------------------------------------------------


def test_span_match_modes():
    pred, gold = Span(3, 9), Span(4, 9)
    assert not span_match(pred, gold, MatchMode.EXACT)
    assert span_match(pred, gold, MatchMode.RELAXED)
    assert not span_match(pred, gold, MatchMode.LEFT_EXACT)
    assert span_match(pred, gold, MatchMode.RIGHT_EXACT)
    with pytest.raises(ValueError):
        span_match(pred, gold, MatchMode.CLAUSE)


def test_left_right_ignore_other_end():
    assert span_match(Span(2, 9), Span(2, 3), MatchMode.LEFT_EXACT)
    assert span_match(Span(0, 5), Span(4, 5), MatchMode.RIGHT_EXACT)
    assert not span_match(Span(5, 9), Span(0, 5), MatchMode.RELAXED)  # touching


def test_span_prf_hand_case():
    pred = [spans([(0, 2), (5, 6)])]
    gold = [spans([(0, 3)])]
    got = span_prf(pred, gold, MatchMode.RELAXED)
    assert got.precision == pytest.approx(0.5)
    assert got.recall == pytest.approx(1.0)
    assert got.f1 == pytest.approx(2 / 3)
    exact = span_prf(pred, gold, MatchMode.EXACT)
    assert (exact.precision, exact.recall, exact.f1) == (0.0, 0.0, 0.0)


def test_span_prf_counts_precision_and_recall_independently():
    # One prediction overlapping two golds: 1 precision-TP but 2 recall-TPs.
    pred = [spans([(0, 10)])]
    gold = [spans([(0, 2), (5, 6)])]
    got = span_prf(pred, gold, MatchMode.RELAXED)
    assert (got.tp_p, got.tp_r) == (1, 2)
    assert got.precision == 1.0 and got.recall == 1.0


def test_span_prf_micro_averages_across_instances():
    pred = [spans([(0, 1)]), spans([(2, 3)])]
    gold = [spans([(0, 1)]), spans([(0, 1)])]
    got = span_prf(pred, gold, MatchMode.EXACT)
    assert got.precision == pytest.approx(0.5)
    assert got.recall == pytest.approx(0.5)


def test_span_prf_zero_denominators():
    empty = span_prf([[]], [[]], MatchMode.EXACT)
    assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)


def test_span_prf_rejects_bad_input():
    with pytest.raises(ValueError, match="mismatched instance sets: 1 predicted vs 2 gold"):
        span_prf([[]], [[], []], MatchMode.EXACT)
    with pytest.raises(ValueError):
        span_prf([[]], [[]], MatchMode.CLAUSE)


def random_span_sets(rng, n_instances=8):
    out = []
    for _ in range(n_instances):
        row = []
        for _ in range(int(rng.integers(0, 4))):
            a = int(rng.integers(0, 12))
            row.append(Span(a, a + int(rng.integers(1, 5))))
        out.append(row)
    return out


def test_relaxed_dominates_exact():
    rng = np.random.default_rng(17)
    for _ in range(200):
        pred, gold = random_span_sets(rng), random_span_sets(rng)
        exact = span_prf(pred, gold, MatchMode.EXACT)
        relaxed = span_prf(pred, gold, MatchMode.RELAXED)
        left = span_prf(pred, gold, MatchMode.LEFT_EXACT)
        right = span_prf(pred, gold, MatchMode.RIGHT_EXACT)
        for looser in (relaxed, left, right):
            assert exact.precision <= looser.precision + 1e-12
            assert exact.recall <= looser.recall + 1e-12
            assert exact.f1 <= looser.f1 + 1e-12


def test_span_prf_is_order_invariant():
    rng = np.random.default_rng(23)
    pred, gold = random_span_sets(rng), random_span_sets(rng)
    for mode in SPAN_MODES:
        base = span_prf(pred, gold, mode)
        shuffled = span_prf([p[::-1] for p in pred], [g[::-1] for g in gold], mode)
        assert base == shuffled


def test_perfect_predictions_score_one():
    rng = np.random.default_rng(29)
    gold = random_span_sets(rng)
    for mode in SPAN_MODES:
        got = span_prf(gold, gold, mode)
        if got.n_gold:
            assert (got.precision, got.recall, got.f1) == (1.0, 1.0, 1.0)


# Few distinct bounds, so that spans repeat, nest and share one end.
SPAN = st.builds(lambda a, k: Span(a, a + k), st.integers(0, 6), st.integers(1, 4))
PAIRED_SPAN_SETS = st.integers(0, 4).flatmap(
    lambda m: st.tuples(
        st.lists(st.lists(SPAN, max_size=5), min_size=m, max_size=m),
        st.lists(st.lists(SPAN, max_size=5), min_size=m, max_size=m),
    )
)
DUPLICATES = ([[Span(0, 2), Span(0, 2), Span(1, 2)]], [[Span(0, 2), Span(0, 3), Span(0, 3)]])


@given(PAIRED_SPAN_SETS)
@example(DUPLICATES)
@example(([[], [Span(0, 1)]], [[Span(0, 1)], []]))
@example(([], []))
@settings(max_examples=300, deadline=None)
def test_span_prf_equals_the_pairwise_oracle(sets):
    pred, gold = sets
    for mode in SPAN_MODES:
        assert span_prf(pred, gold, mode) == Prf.from_counts(*pairwise_span_counts(pred, gold, mode))
    exact = Prf.from_counts(*pairwise_span_counts(pred, gold, MatchMode.EXACT))
    assert clause_match_prf(pred, gold) == exact


@given(PAIRED_SPAN_SETS)
@example(DUPLICATES)
@example(([[]], [[]]))
@settings(max_examples=300, deadline=None)
def test_clause_alignment_equals_the_pairwise_oracle(sets):
    stimuli, clauses = sets
    exact, left, right, total = pairwise_alignment(stimuli, clauses)
    expected = (
        AlignmentReport(exact / total, left / total, right / total, total)
        if total
        else AlignmentReport(0.0, 0.0, 0.0, 0)
    )
    assert clause_alignment(stimuli, clauses) == expected


def test_duplicate_spans_each_count():
    pred, gold = DUPLICATES
    # Exact: both copies of [0, 2) match; one gold [0, 2) is matched, the two [0, 3) are not.
    got = span_prf(pred, gold, MatchMode.EXACT)
    assert (got.tp_p, got.tp_r, got.n_pred, got.n_gold) == (2, 1, 3, 3)
    left = span_prf(pred, gold, MatchMode.LEFT_EXACT)
    assert (left.tp_p, left.tp_r) == (2, 3)
    assert clause_alignment(pred, gold) == AlignmentReport(2 / 3, 2 / 3, 1.0, 3)


# -- clause-level P/R/F1 -----------------------------------------------------------


def test_clause_prf_hand_case():
    got = clause_prf([[True, True, False]], [[True, False, False]])
    assert got.precision == pytest.approx(0.5)
    assert got.recall == pytest.approx(1.0)
    assert got.f1 == pytest.approx(2 / 3)


def test_clause_prf_positive_class_only():
    got = clause_prf([[False, False]], [[False, False]])
    assert (got.precision, got.recall, got.f1) == (0.0, 0.0, 0.0)
    assert got.n_pred == 0 and got.n_gold == 0


def test_clause_prf_rejects_mismatch():
    with pytest.raises(ValueError, match="mismatched instance sets: 1 predicted vs 2 gold"):
        clause_prf([[True]], [[True], [False]])
    with pytest.raises(ValueError):
        clause_prf([[True, False]], [[True]])


# -- clause alignment ---------------------------------------------------------------


def test_clause_alignment_fractions():
    stimuli = [spans([(0, 2), (4, 8)])]
    clauses = [spans([(0, 2), (2, 4), (4, 9)])]
    got = clause_alignment(stimuli, clauses)
    assert got == AlignmentReport(exact=0.5, left=1.0, right=0.5, n_stimuli=2)


def test_clause_alignment_empty():
    assert clause_alignment([[]], [[spans([(0, 2)])[0]]]) == AlignmentReport(0.0, 0.0, 0.0, 0)


def test_clause_alignment_rejects_mismatched_instance_sets():
    with pytest.raises(ValueError, match="mismatched instance sets: 1 stimuli vs 2 clauses"):
        clause_alignment([spans([(0, 1)])], [spans([(0, 1)]), []])


def test_clause_match_prf_is_exact_span_prf():
    extracted = [spans([(0, 3), (3, 5)])]
    annotated = [spans([(0, 3), (3, 6)])]
    got = clause_match_prf(extracted, annotated)
    assert got == span_prf(extracted, annotated, MatchMode.EXACT)
    assert got.precision == pytest.approx(0.5)


# -- CSV format ------------------------------------------------------------------------


def test_eval_csv_layout():
    prf = Prf.from_counts(1, 2, 3, 4)
    text = format_eval_csv([("data", "sl", MatchMode.RELAXED, prf)])
    header, row = text.strip().splitlines()
    assert header == "dataset,model,mode,precision_pct,recall_pct,f1_pct,precision,recall,f1"
    cells = row.split(",")
    assert cells[:3] == ["data", "sl", "relaxed"]
    assert cells[3:6] == ["33", "50", "40"]
    assert cells[6] == str(1 / 3)
    assert cells[8] == str(prf.f1)


def test_eval_csv_rounds_to_nearest_int():
    prf = Prf.from_counts(249, 249, 1000, 1000)
    row = format_eval_csv([("d", "m", MatchMode.EXACT, prf)]).splitlines()[1]
    assert row.split(",")[3] == "25"
