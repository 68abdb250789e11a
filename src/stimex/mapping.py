"""Mapping between the two task formulations.

Token-level IOB labelings and clause-level stimulus flags describe the same
annotation at different granularity; these conversions make predictions from
either model family comparable under both evaluations.
"""

from __future__ import annotations

from typing import Sequence

from stimex.corpus import Span, check_spans, checked_spans_to_iob


def tokens_to_clauses(iob: Sequence[str], clauses: Sequence[Span]) -> list[bool]:
    """A clause is a stimulus iff it contains at least one B/I token."""
    check_spans(clauses, len(iob))
    return [iob[sp.start : sp.end].count("O") < sp.end - sp.start for sp in clauses]


def clauses_to_tokens(flags: Sequence[bool], clauses: Sequence[Span], n: int) -> list[str]:
    """Each stimulus clause emits ``B I ... I``; all other tokens are ``O``.

    Adjacent stimulus clauses each restart with ``B``; tokens not covered by
    any clause are ``O``.
    """
    if len(flags) != len(clauses):
        raise ValueError(f"{len(flags)} flags for {len(clauses)} clauses")
    check_spans(clauses, n)  # all clauses, so the flagged ones too
    return checked_spans_to_iob([sp for flag, sp in zip(flags, clauses) if flag], n)
