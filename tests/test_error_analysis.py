from __future__ import annotations

import numpy as np
import pytest

from stimex.corpus import Span
from stimex.error_analysis import (
    ErrorType,
    classify_corpus,
    classify_gold,
    format_errors_csv,
)

GOLD = Span(10, 20)


@pytest.mark.parametrize(
    "preds, expected",
    [
        ([], ErrorType.FALSE_NEGATIVE),
        ([(10, 20)], ErrorType.TRUE_POSITIVE),
        ([(10, 15)], ErrorType.EARLY_STOP),
        ([(10, 25)], ErrorType.LATE_STOP),
        ([(5, 15)], ErrorType.EARLY_START_STOP),
        ([(5, 20)], ErrorType.EARLY_START),
        ([(5, 25)], ErrorType.SURROUNDED),
        ([(15, 20)], ErrorType.LATE_START),
        ([(15, 25)], ErrorType.LATE_START_STOP),
        ([(12, 18)], ErrorType.CONTAINED),
        ([(10, 12), (15, 20)], ErrorType.MULTIPLE),
        ([(5, 15), (18, 25)], ErrorType.MULTIPLE),
    ],
)
def test_classify_gold_case_table(preds, expected):
    assert classify_gold(GOLD, [Span(a, b) for a, b in preds]) == expected


def test_classify_gold_rejects_disjoint_prediction():
    with pytest.raises(ValueError):
        classify_gold(GOLD, [Span(0, 5)])
    with pytest.raises(ValueError):
        classify_gold(GOLD, [Span(20, 22)])  # touching, not overlapping


def test_classification_is_translation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(200):
        gs = int(rng.integers(0, 20))
        ge = gs + int(rng.integers(1, 10))
        ps = int(rng.integers(max(0, gs - 5), ge))
        pe = ps + int(rng.integers(1, 12))
        gold, pred = Span(gs, ge), Span(ps, pe)
        if not pred.overlaps(gold):
            continue
        shift = int(rng.integers(1, 50))
        moved = classify_gold(
            Span(gs + shift, ge + shift), [Span(ps + shift, pe + shift)]
        )
        assert classify_gold(gold, [pred]) == moved


def test_exactly_one_type_per_gold():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        gs = int(rng.integers(0, 15))
        gold = Span(gs, gs + int(rng.integers(1, 8)))
        preds = []
        for _ in range(int(rng.integers(0, 3))):
            ps = int(rng.integers(0, 20))
            preds.append(Span(ps, ps + int(rng.integers(1, 8))))
        overlapping = [p for p in preds if p.overlaps(gold)]
        etype = classify_gold(gold, overlapping)
        assert isinstance(etype, ErrorType)
        if not overlapping:
            assert etype == ErrorType.FALSE_NEGATIVE
        elif len(overlapping) >= 2:
            assert etype == ErrorType.MULTIPLE
        else:
            assert etype not in (ErrorType.FALSE_NEGATIVE, ErrorType.MULTIPLE)


def corpus_fixture():
    """One instance per error type, including an unmatched prediction."""
    gold, pred = [], []
    cases = [
        ([(10, 20)], [(10, 20)]),  # true positive
        ([(10, 20)], [(10, 15)]),  # early stop
        ([(10, 20)], [(10, 25)]),  # late stop
        ([(10, 20)], [(5, 15)]),  # early start+stop
        ([(10, 20)], [(5, 20)]),  # early start
        ([(10, 20)], [(15, 20)]),  # late start
        ([(10, 20)], [(15, 25)]),  # late start+stop
        ([(10, 20)], [(12, 18)]),  # contained
        ([(10, 20)], [(5, 25)]),  # surrounded
        ([(10, 20)], [(10, 12), (15, 20)]),  # multiple
        ([(10, 20)], []),  # false negative
        ([], [(3, 6)]),  # false positive
    ]
    for g, p in cases:
        gold.append([Span(a, b) for a, b in g])
        pred.append([Span(a, b) for a, b in p])
    return gold, pred


def test_classify_corpus_hits_every_bucket_once():
    counts = classify_corpus(*corpus_fixture())
    assert set(counts) == set(ErrorType)
    assert all(v == 1 for v in counts.values())


def test_false_positive_counted_once_per_prediction():
    gold = [[Span(0, 2)]]
    pred = [[Span(5, 6), Span(8, 9), Span(0, 2)]]
    counts = classify_corpus(gold, pred)
    assert counts[ErrorType.FALSE_POSITIVE] == 2
    assert counts[ErrorType.TRUE_POSITIVE] == 1


def test_classify_corpus_fuzz_totals():
    rng = np.random.default_rng(31)
    for _ in range(100):
        gold, pred = [], []
        for _ in range(6):
            rows = []
            for _ in range(int(rng.integers(0, 3))):
                a = int(rng.integers(0, 15))
                rows.append(Span(a, a + int(rng.integers(1, 6))))
            gold.append(rows)
            rows = []
            for _ in range(int(rng.integers(0, 3))):
                a = int(rng.integers(0, 15))
                rows.append(Span(a, a + int(rng.integers(1, 6))))
            pred.append(rows)
        counts = classify_corpus(gold, pred)
        n_gold = sum(len(r) for r in gold)
        # every gold span lands in exactly one non-FP bucket
        assert sum(v for t, v in counts.items() if t is not ErrorType.FALSE_POSITIVE) == n_gold


def test_classify_corpus_rejects_mismatch():
    with pytest.raises(ValueError):
        classify_corpus([[]], [[], []])


def test_errors_csv_layout():
    counts = classify_corpus(*corpus_fixture())
    text = format_errors_csv({"sl": counts, "icc": {ErrorType.MULTIPLE: 3}})
    lines = text.strip().splitlines()
    assert lines[0] == "error_type,icc,sl"
    assert len(lines) == 14  # header + 12 types + all
    rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
    assert rows["true_positive"] == ["0", "1"]
    assert rows["multiple"] == ["3", "1"]
    assert rows["all"] == ["3", "11"]  # everything except true positives
    assert [line.split(",")[0] for line in lines[1:-1]] == [t.value for t in ErrorType]
