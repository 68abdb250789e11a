"""Clause extraction from constituency trees.

A sentence is segmented at the boundaries of clause-level constituents
(``S``, ``SBAR``, ``SBARQ``, ``SINV``, ``SQ`` by default): every such node
contributes its leftmost and rightmost leaf index as a gap.  The segments
between adjacent gaps are then joined until no segment is punctuation-only
and none but a sole survivor is three tokens or shorter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from stimex.corpus import Span
from stimex.parsetree import ConstTree, leaves

DEFAULT_CLAUSE_LABELS = frozenset({"S", "SBAR", "SBARQ", "SINV", "SQ"})

# A token counts as punctuation when it contains no ASCII alphanumerics.
_PUNCT_TOKEN = re.compile(r"^[^A-Za-z0-9]+$")

MAX_SHORT = 3


@dataclass(frozen=True, slots=True)
class SegmentList:
    """A tiling of a token sequence into contiguous segments."""

    segments: tuple[Span, ...]
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        expected = 0
        for sp in self.segments:
            if sp.start != expected:
                raise ValueError(f"segments do not tile the sequence at {sp.start}")
            expected = sp.end
        if expected != len(self.tokens):
            raise ValueError("segments do not cover the full sequence")


def is_punct_only(tokens: Sequence[str]) -> bool:
    return len(tokens) > 0 and all(_PUNCT_TOKEN.match(t) for t in tokens)


def clause_gaps(
    tree: ConstTree, clause_labels: frozenset[str] | set[str] = DEFAULT_CLAUSE_LABELS
) -> list[int]:
    """Sorted segmentation points: sentence bounds plus clause-node boundaries."""
    gaps = {0, tree.end}
    for node in tree.iter_nodes():
        if node.label in clause_labels:
            gaps.add(node.start)
            gaps.add(node.end)
    return sorted(gaps)


def segments_from_gaps(gaps: Sequence[int], tokens: Sequence[str]) -> SegmentList:
    """Segments between adjacent gaps; gaps must include 0 and ``len(tokens)``."""
    if not tokens:
        raise ValueError("empty token sequence")
    if not gaps or gaps[0] != 0 or gaps[-1] != len(tokens):
        raise ValueError("gaps must start at 0 and end at the sequence length")
    if list(gaps) != sorted(set(gaps)):
        raise ValueError("gaps must be strictly increasing")
    spans = tuple(Span(a, b) for a, b in zip(gaps, gaps[1:]))
    return SegmentList(spans, tuple(tokens))


def join_segments(segs: SegmentList) -> SegmentList:
    """Merge segments until convergence.

    One left-to-right pass at a time: a punctuation-only segment is merged
    into its left neighbour (right when it is first), otherwise a segment of
    ``MAX_SHORT`` tokens or fewer is merged into its right neighbour (left
    when it is last).  After any merge the pass restarts; convergence is a
    full pass without a merge.  A sole remaining segment is never merged.
    """
    spans = list(segs.segments)
    tokens = segs.tokens

    def merge(i: int) -> None:
        spans[i : i + 2] = [Span(spans[i].start, spans[i + 1].end)]

    changed = True
    while changed:
        changed = False
        for i, sp in enumerate(spans):
            if len(spans) == 1:
                break
            if is_punct_only(tokens[sp.start : sp.end]):
                merge(i - 1 if i > 0 else 0)
                changed = True
                break
            if len(sp) <= MAX_SHORT:
                merge(i if i < len(spans) - 1 else i - 1)
                changed = True
                break
    return SegmentList(tuple(spans), tokens)


def extract_clauses(
    tree: ConstTree,
    clause_labels: frozenset[str] | set[str] = DEFAULT_CLAUSE_LABELS,
    join: bool = True,
) -> SegmentList:
    """Full pipeline: gaps, raw segments, and (optionally) the join loop."""
    segs = segments_from_gaps(clause_gaps(tree, clause_labels), leaves(tree))
    return join_segments(segs) if join else segs
