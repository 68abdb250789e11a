"""Mapping between the two task formulations.

Token-level IOB labelings and clause-level stimulus flags describe the same
annotation at different granularity; these conversions make predictions from
either model family comparable under both evaluations.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from stimex.corpus import Span


def _check_clauses(clauses: Sequence[Span], n: int) -> None:
    prev_end = 0
    for k, sp in enumerate(sorted(clauses, key=attrgetter("start", "end"))):
        if sp.start < prev_end:
            raise ValueError(f"clause {k} overlaps its predecessor")
        if sp.end > n:
            raise ValueError(f"clause [{sp.start}, {sp.end}) exceeds sequence length {n}")
        prev_end = sp.end


def tokens_to_clauses(iob: Sequence[str], clauses: Sequence[Span]) -> list[bool]:
    """A clause is a stimulus iff it contains at least one B/I token."""
    _check_clauses(clauses, len(iob))
    return [iob[sp.start : sp.end].count("O") < sp.end - sp.start for sp in clauses]


def clauses_to_tokens(flags: Sequence[bool], clauses: Sequence[Span], n: int) -> list[str]:
    """Each stimulus clause emits ``B I ... I``; all other tokens are ``O``.

    Adjacent stimulus clauses each restart with ``B``; tokens not covered by
    any clause are ``O``.
    """
    if len(flags) != len(clauses):
        raise ValueError(f"{len(flags)} flags for {len(clauses)} clauses")
    _check_clauses(clauses, n)
    out = ["O"] * n
    for flag, sp in zip(flags, clauses):
        if flag:
            out[sp.start] = "B"
            for i in range(sp.start + 1, sp.end):
                out[i] = "I"
    return out
