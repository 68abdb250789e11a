from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from _oracles import random_tree_text
from stimex.clause_extract import (
    SegmentList,
    clause_gaps,
    extract_clauses,
    is_punct_only,
    join_segments,
    segments_from_gaps,
)
from stimex.corpus import Span
from stimex.parsetree import parse_bracket

# A sentence whose subordinate clause starts at token 2: the embedded S node
# spans the last token only, the SBAR spans tokens 2..3.
NESTED = parse_bracket(
    "(S (NP (PRP She)) (VP (VBD left) (SBAR (IN because) (S (VP (VBD rained))))) )"
)


def seg_list(bounds, tokens):
    return SegmentList(tuple(Span(a, b) for a, b in bounds), tuple(tokens))


def test_gaps_from_nested_clauses():
    # S covers [0,4), SBAR [2,4), inner S [3,4)
    assert clause_gaps(NESTED) == [0, 2, 3, 4]


def test_gaps_without_clause_nodes():
    tree = parse_bracket("(NP (DT the) (NN cat))")
    assert clause_gaps(tree) == [0, 2]


def test_gaps_respect_custom_labels():
    assert clause_gaps(NESTED, clause_labels={"SBAR"}) == [0, 2, 4]


def test_segments_from_gaps():
    segs = segments_from_gaps([0, 2, 3], ["a", "b", "c"])
    assert segs.segments == (Span(0, 2), Span(2, 3))
    first = segs.segments[0]
    assert segs.tokens[first.start : first.end] == ("a", "b")


@pytest.mark.parametrize(
    "gaps, tokens",
    [
        ([1, 3], "abc"),
        ([0, 2], "abc"),
        ([0, 2, 2, 3], "abc"),
        ([0, 3, 2], "abc"),
        ([], "abc"),
        ([0, 0], ""),
    ],
)
def test_segments_from_gaps_rejects_bad_input(gaps, tokens):
    with pytest.raises(ValueError):
        segments_from_gaps(gaps, list(tokens))


def test_segment_list_must_tile():
    with pytest.raises(ValueError):
        seg_list([(0, 1), (2, 3)], ["a", "b", "c"])
    with pytest.raises(ValueError):
        seg_list([(0, 2)], ["a", "b", "c"])


def test_segment_list_is_a_frozen_slotted_value():
    segs = seg_list([(0, 1), (1, 3)], ["a", "b", "c"])
    assert segs == seg_list([(0, 1), (1, 3)], ["a", "b", "c"])
    assert segs != seg_list([(0, 3)], ["a", "b", "c"])
    assert hash(segs) == hash(((Span(0, 1), Span(1, 3)), ("a", "b", "c")))
    assert repr(segs) == (
        "SegmentList(segments=(Span(start=0, end=1), Span(start=1, end=3)), "
        "tokens=('a', 'b', 'c'))"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        segs.tokens = ("x",)
    assert not hasattr(segs, "__dict__")


def test_is_punct_only():
    assert is_punct_only([",", "..."])
    assert is_punct_only(["-LRB-"]) is False  # contains letters
    assert is_punct_only(["a", ","]) is False
    assert is_punct_only([]) is False


def test_join_merges_short_segment_rightward():
    segs = seg_list([(0, 2), (2, 8)], ["w"] * 8)
    assert join_segments(segs).segments == (Span(0, 8),)


def test_join_merges_short_last_segment_leftward():
    segs = seg_list([(0, 6), (6, 8)], ["w"] * 8)
    assert join_segments(segs).segments == (Span(0, 8),)


def test_join_merges_punct_leftward():
    tokens = ["w"] * 8 + [".", "w", "w", "w", "w"]
    segs = seg_list([(0, 8), (8, 9), (9, 13)], tokens)
    assert join_segments(segs).segments == (Span(0, 9), Span(9, 13))


def test_join_merges_leading_punct_rightward():
    tokens = ["--"] + ["w"] * 8
    segs = seg_list([(0, 1), (1, 9)], tokens)
    assert join_segments(segs).segments == (Span(0, 9),)


def test_punct_rule_wins_over_short_rule():
    # segment 1 is both short and punctuation-only; punct merges left, the
    # short rule would have merged right.
    tokens = ["w"] * 4 + [",", ","] + ["w"] * 6
    segs = seg_list([(0, 4), (4, 6), (6, 12)], tokens)
    assert join_segments(segs).segments == (Span(0, 6), Span(6, 12))


def test_join_keeps_long_segments():
    segs = seg_list([(0, 4), (4, 9)], ["w"] * 9)
    assert join_segments(segs).segments == segs.segments


def test_sole_segment_survives():
    segs = seg_list([(0, 2)], [",", "."])
    assert join_segments(segs).segments == (Span(0, 2),)


def test_join_collapses_all_short_segments():
    segs = seg_list([(0, 2), (2, 4), (4, 6)], ["w"] * 6)
    assert join_segments(segs).segments == (Span(0, 6),)


def random_tiling(rng, n):
    if n == 1:
        return [0, 1]
    cuts = sorted(set(rng.integers(1, n, size=rng.integers(0, 6)).tolist()))
    return [0] + cuts + [n]


def test_join_fuzz_postconditions():
    rng = np.random.default_rng(11)
    pool = ["word", "longer", ",", ".", "x1", "--", "token"]
    for _ in range(300):
        n = int(rng.integers(1, 20))
        tokens = [pool[int(k)] for k in rng.integers(0, len(pool), size=n)]
        segs = segments_from_gaps(random_tiling(rng, n), tokens)
        joined = join_segments(segs)
        # idempotent
        assert join_segments(joined).segments == joined.segments
        # still a tiling (validated by the constructor) and no forbidden segment
        for k, sp in enumerate(joined.segments):
            if len(joined.segments) == 1:
                break
            toks = joined.tokens[sp.start : sp.end]
            assert not is_punct_only(toks)
            assert len(sp) > 3


def test_extract_clauses_join_toggle():
    raw = extract_clauses(NESTED, join=False)
    assert [(s.start, s.end) for s in raw.segments] == [(0, 2), (2, 3), (3, 4)]
    joined = extract_clauses(NESTED)
    assert [(s.start, s.end) for s in joined.segments] == [(0, 4)]


def test_extract_on_random_trees_never_crashes():
    rng = np.random.default_rng(4)
    for _ in range(100):
        tree = parse_bracket(random_tree_text(rng))
        segs = extract_clauses(tree)
        assert segs.segments[0].start == 0
        assert segs.segments[-1].end == tree.end
