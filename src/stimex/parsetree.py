"""Reading bracketed constituency trees and computing leaf geometry.

Trees use the Penn Treebank bracket format, e.g. ``(S (NP (PRP She)) ...)``.
Literal parentheses inside tokens follow the Treebank ``-LRB-``/``-RRB-``
convention and are kept verbatim.  Every node records the half-open interval
of leaf indices it covers, which is what clause extraction operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from stimex.corpus import Span


class BracketParseError(ValueError):
    """Malformed bracket input; ``offset`` is the character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class ConstTree:
    """Constituency tree node: either internal (children) or pre-terminal (token)."""

    label: str
    children: tuple["ConstTree", ...] = ()
    token: str | None = None
    leaf_span: Span = Span(0, 1)

    def is_leaf(self) -> bool:
        return self.token is not None

    def iter_nodes(self) -> Iterator["ConstTree"]:
        """Pre-order traversal over all nodes including self."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()


def leaves(tree: ConstTree) -> list[str]:
    """Leaf tokens in left-to-right order."""
    return [node.token for node in tree.iter_nodes() if node.token is not None]


def to_bracket(tree: ConstTree) -> str:
    if tree.is_leaf():
        return f"({tree.label} {tree.token})"
    return "(" + tree.label + " " + " ".join(to_bracket(c) for c in tree.children) + ")"


_DELIMS = "()"


def parse_bracket(text: str) -> ConstTree:
    """Parse one bracketed tree, rejecting trailing garbage and imbalance."""
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    def read_atom(p: int) -> tuple[str, int]:
        start = p
        while p < n and not text[p].isspace() and text[p] not in _DELIMS:
            p += 1
        if p == start:
            raise BracketParseError("expected a label or token", start)
        return text[start:p], p

    leaf_counter = [0]

    def parse_node(p: int) -> tuple[ConstTree, int]:
        if p >= n or text[p] != "(":
            raise BracketParseError("expected '('", p)
        open_at = p
        p = skip_ws(p + 1)
        label, p = read_atom(p)
        children: list[ConstTree] = []
        token: str | None = None
        while True:
            p = skip_ws(p)
            if p >= n:
                raise BracketParseError("unbalanced '('", open_at)
            ch = text[p]
            if ch == ")":
                p += 1
                break
            if ch == "(":
                if token is not None:
                    raise BracketParseError("node mixes a token with children", p)
                child, p = parse_node(p)
                children.append(child)
            else:
                if children or token is not None:
                    raise BracketParseError("node holds more than one token", p)
                token, p = read_atom(p)
        if token is not None:
            k = leaf_counter[0]
            leaf_counter[0] += 1
            return ConstTree(label, (), token, Span(k, k + 1)), p
        if not children:
            raise BracketParseError("empty node", open_at)
        span = Span(children[0].leaf_span.start, children[-1].leaf_span.end)
        return ConstTree(label, tuple(children), None, span), p

    pos = skip_ws(pos)
    if pos >= n:
        raise BracketParseError("empty input", pos)
    try:
        tree, pos = parse_node(pos)
    except RecursionError:
        raise BracketParseError("tree nested too deeply", pos) from None
    pos = skip_ws(pos)
    if pos != n:
        raise BracketParseError("trailing content after tree", pos)
    return tree
