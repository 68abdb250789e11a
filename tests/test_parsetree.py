from __future__ import annotations

import contextlib
import gc
import io
import json

import numpy as np
import pytest

from hypothesis import given, settings

from _oracles import damaged_brackets, preorder, random_tree_text, to_bracket
from stimex.cli import main
from stimex.corpus import Instance, load_corpus, save_corpus
from stimex.parsetree import MAX_DEPTH, BracketParseError, ConstTree, leaves, parse_bracket

GOLDEN = "(S (NP (PRP I)) (VP (VBP am) (ADJP (JJ happy) (SBAR (IN because) (S (NP (PRP you)) (VP (VBD came)))))) (. .))"


def test_golden_structure():
    tree = parse_bracket(GOLDEN)
    assert tree.label == "S"
    assert [c.label for c in tree.children] == ["NP", "VP", "."]
    assert leaves(tree) == ["I", "am", "happy", "because", "you", "came", "."]
    assert (tree.start, tree.end) == (0, 7)
    sbar = tree.children[1].children[1].children[1]
    assert sbar.label == "SBAR"
    assert (sbar.start, sbar.end) == (3, 6)


def test_leaf_spans_are_consecutive():
    tree = parse_bracket(GOLDEN)
    spans = [(n.start, n.end) for n in tree.iter_nodes() if n.token is not None]
    assert spans == [(k, k + 1) for k in range(7)]


def test_labels_are_shared_between_parses():
    # "NP" is opened and "NN" is a pre-terminal; two-letter strings are not
    # otherwise cached, so only interning makes the two parses share them
    first = parse_bracket("(S (NP (NN dog)) (VP (VBD ran)))")
    second = parse_bracket("(S (VP (VBD sat)) (NP (DT the) (NN cat)))")
    assert first.children[0].label is second.children[1].label
    assert first.children[0].children[0].label is second.children[1].children[1].label


def test_leaves_are_the_loaded_instances_token_strings(tmp_path):
    # leaves are interned as labels are, so a tree shares its token strings
    # with the instance it came with and with other trees
    parse = "(S (NP (NNS dogs)) (VP (VBD barked)))"
    inst = Instance(id="a", dataset="dd", tokens=["dogs", "barked"], iob=["O", "O"], parse=parse)
    path = tmp_path / "c.jsonl"
    save_corpus([inst], path)
    (loaded,) = load_corpus(path)
    tree = parse_bracket(loaded.parse)
    assert leaves(tree) == loaded.tokens
    assert all(leaf is token for leaf, token in zip(leaves(tree), loaded.tokens))
    assert leaves(parse_bracket("(S (NP (NNS cats)) (VP (VBD barked)))"))[1] is loaded.tokens[1]


def test_labels_keep_function_tags_and_non_ascii_text():
    tree = parse_bracket("(S (NP-SBJ-1 (NN x)) (VP-ÉTÉ (VBD-Ü y)))")
    assert [n.label for n in tree.iter_nodes()] == ["S", "NP-SBJ-1", "NN", "VP-ÉTÉ", "VBD-Ü"]
    again = parse_bracket("(VP-ÉTÉ (VBD-Ü y))")
    assert again.label is tree.children[1].label
    assert again.children[0].label is tree.children[1].children[0].label


def test_escaped_parens_kept_verbatim():
    tree = parse_bracket("(NP (-LRB- -LRB-) (NN x) (-RRB- -RRB-))")
    assert leaves(tree) == ["-LRB-", "x", "-RRB-"]


def test_whitespace_is_flexible():
    spaced = parse_bracket("( S ( NN  x )\n\t( NN y ) )")
    assert to_bracket(spaced) == to_bracket(parse_bracket("(S (NN x) (NN y))"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty input"),
        ("   ", "empty input"),
        ("(S (NN x)", "unbalanced"),
        ("(S (NN x)))", "trailing content"),
        ("(S (NN x)) (S (NN y))", "trailing content"),
        ("(S)", "empty node"),
        ("(S ()", "expected a label"),
        ("(S x (NN y))", "mixes a token"),
        ("(NN x y)", "more than one token"),
        ("S (NN x)", r"expected '\('"),
        ("(S " * 5000 + "(X x)" + ")" * 5000, "nested too deeply"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(BracketParseError, match=message):
        parse_bracket(text)


def test_error_offset_points_at_problem():
    try:
        parse_bracket("(S (NN x)) extra")
    except BracketParseError as err:
        assert err.offset == 11
    else:  # pragma: no cover
        pytest.fail("expected a parse error")


def test_round_trip_on_random_trees():
    rng = np.random.default_rng(0)
    for _ in range(100):
        text = random_tree_text(rng)
        tree = parse_bracket(text)
        again = parse_bracket(to_bracket(tree))
        assert to_bracket(again) == to_bracket(tree) == text
        assert [(n.start, n.end) for n in again.iter_nodes()] == [
            (n.start, n.end) for n in tree.iter_nodes()
        ]


def test_parent_span_is_hull_of_children():
    rng = np.random.default_rng(1)
    for _ in range(50):
        tree = parse_bracket(random_tree_text(rng))
        for node in tree.iter_nodes():
            if node.children:
                assert node.start == node.children[0].start
                assert node.end == node.children[-1].end
                for left, right in zip(node.children, node.children[1:]):
                    assert left.end == right.start


@given(damaged_brackets(GOLDEN))
@settings(max_examples=300, deadline=None)
def test_damaged_brackets_parse_or_raise_a_parse_error(text):
    try:
        tree = parse_bracket(text)
    except BracketParseError:
        return
    assert isinstance(tree, ConstTree)


def test_parse_leaves_no_cyclic_garbage():
    rng = np.random.default_rng(2)
    texts = [GOLDEN] + [random_tree_text(rng) for _ in range(50)]
    gc.collect()
    gc.disable()
    try:
        trees = [parse_bracket(text) for text in texts]
        del trees
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_iter_nodes_is_recursive_preorder():
    rng = np.random.default_rng(3)
    for text in [GOLDEN] + [random_tree_text(rng, max_depth=6) for _ in range(50)]:
        tree = parse_bracket(text)
        got, want = list(tree.iter_nodes()), preorder(tree)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def nested(depth: int) -> str:
    """A chain of ``depth`` nodes; the innermost ``(`` is at offset ``3 * (depth - 1)``."""
    return "(S " * (depth - 1) + "(X x)" + ")" * (depth - 1)


def test_depth_bound_is_exact():
    tree = parse_bracket(nested(MAX_DEPTH))
    assert leaves(tree) == ["x"]
    assert sum(1 for _ in tree.iter_nodes()) == MAX_DEPTH
    with pytest.raises(BracketParseError, match="tree nested too deeply") as err:
        parse_bracket(nested(MAX_DEPTH + 1))
    assert err.value.offset == 3 * MAX_DEPTH


def test_deepest_tree_can_be_hashed_compared_and_printed():
    tree, twin = parse_bracket(nested(MAX_DEPTH)), parse_bracket(nested(MAX_DEPTH))
    assert tree == tree and tree != twin  # identity, not a walk over the children
    assert hash(tree) == hash(tree) and len({tree, twin}) == 2
    assert "ConstTree" in repr(tree)


def test_depth_bound_is_the_same_through_the_cli(tmp_path):
    def extract(depth):
        corpus = tmp_path / f"deep{depth}.jsonl"
        record = {"id": "deep", "dataset": "d", "tokens": ["x"], "iob": ["O"], "parse": nested(depth)}
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["clauses", "extract", "--corpus", str(corpus), "--out", str(tmp_path / "out.jsonl")])
        return code, err.getvalue()

    assert extract(MAX_DEPTH) == (0, "")
    code, err = extract(MAX_DEPTH + 1)
    assert code == 1
    assert err == f"error: instance 'deep': tree nested too deeply (at offset {3 * MAX_DEPTH})\n"
