"""Reading bracketed constituency trees and computing leaf geometry.

Trees use the Penn Treebank bracket format, e.g. ``(S (NP (PRP She)) ...)``.
Literal parentheses inside tokens follow the Treebank ``-LRB-``/``-RRB-``
convention and are kept verbatim.  Every node records the half-open interval
``[start, end)`` of leaf indices it covers, which is what clause extraction
operates on.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterator

# Trees nested deeper than this many nodes are rejected rather than parsed.
MAX_DEPTH = 1000

# A bracket, or a label or token; whitespace is what lies between matches.
_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_BRACKETS = ("(", ")")


class BracketParseError(ValueError):
    """Malformed bracket input; ``offset`` is the character position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ConstTree:
    """Constituency tree node: either internal (children) or pre-terminal (token).

    ``start`` and ``end`` bound the half-open interval of leaf indices it covers.
    Nodes compare and hash by identity: the generated ``__eq__``, ``__hash__``
    and ``__repr__`` would recurse through ``children`` and fail on trees far
    shallower than ``MAX_DEPTH``.
    """

    label: str
    children: tuple["ConstTree", ...] = ()
    token: str | None = None
    start: int = 0
    end: int = 1

    def iter_nodes(self) -> Iterator["ConstTree"]:
        """Pre-order traversal over all nodes including self."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def leaves(tree: ConstTree) -> list[str]:
    """Leaf tokens in left-to-right order."""
    return [node.token for node in tree.iter_nodes() if node.token is not None]


def _offset(text: str, k: int) -> int:
    """Character position of token ``k`` of ``text``; its length past the last token."""
    for j, match in enumerate(_TOKEN.finditer(text)):
        if j == k:
            return match.start()
    return len(text)


def parse_bracket(text: str) -> ConstTree:
    """Parse one bracketed tree, rejecting trailing garbage, imbalance and excess depth."""
    tokens = _TOKEN.findall(text)
    n = len(tokens)
    if not n:
        raise BracketParseError("empty input", len(text))
    if tokens[0] != "(":
        raise BracketParseError("expected '('", _offset(text, 0))
    stack: list[list] = []  # open nodes: [label, children, token, index of its '(']
    done: list[ConstTree] = []  # receives the root once it closes
    siblings = done  # the children of the innermost open node
    leaf = 0
    i = 0
    while not done:
        if i == n:
            raise BracketParseError("unbalanced '('", _offset(text, stack[-1][3]))
        tok = tokens[i]
        if tok == "(":
            if stack and stack[-1][2] is not None:
                raise BracketParseError("node mixes a token with children", _offset(text, i))
            if len(stack) == MAX_DEPTH:
                raise BracketParseError("tree nested too deeply", _offset(text, i))
            if i + 1 == n or tokens[i + 1] in _BRACKETS:
                raise BracketParseError("expected a label or token", _offset(text, i + 1))
            label = sys.intern(tokens[i + 1])  # one string object per distinct label
            if i + 3 < n and tokens[i + 3] == ")" and tokens[i + 2] not in _BRACKETS:
                # a pre-terminal, "(label token)", made without opening it
                token = sys.intern(tokens[i + 2])  # shared with loaded instances
                siblings.append(ConstTree(label, (), token, leaf, leaf + 1))
                leaf += 1
                i += 4
            else:
                siblings = []
                stack.append([label, siblings, None, i])
                i += 2
        elif tok != ")":
            top = stack[-1]
            if top[1] or top[2] is not None:
                raise BracketParseError("node holds more than one token", _offset(text, i))
            top[2] = tok
            i += 1
        else:
            # only nodes with children close here: "(label token)" took the
            # pre-terminal branch, and anything else after a token raised
            label, children, _, opened = stack.pop()
            if not children:
                raise BracketParseError("empty node", _offset(text, opened))
            node = ConstTree(label, tuple(children), None, children[0].start, children[-1].end)
            siblings = stack[-1][1] if stack else done
            siblings.append(node)
            i += 1
    if i < n:
        raise BracketParseError("trailing content after tree", _offset(text, i))
    return done[0]
