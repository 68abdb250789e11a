from __future__ import annotations

import builtins
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import CORPUS_RECORD, damaged_corpus, naive_stats
from stimex import corpus
from stimex.corpus import (
    ClauseAnnotation,
    CorpusError,
    CorpusStats,
    Instance,
    Span,
    SyntheticGrammar,
    compute_stats,
    format_stats_csv,
    generate_synthetic,
    iob_to_spans,
    instance_to_obj,
    load_corpus,
    read_lines,
    save_corpus,
    spans_to_iob,
    split_corpus,
)
from stimex.parsetree import parse_bracket


def make_instance(iob, clauses=None, **kwargs):
    tokens = [f"w{i}" for i in range(len(iob))]
    fields = dict(id="i0", dataset="d", tokens=tokens, iob=list(iob))
    fields.update(kwargs)
    inst = Instance(**fields)
    if clauses is not None:
        inst.clauses = [ClauseAnnotation(Span(a, b), f) for a, b, f in clauses]
    inst.validate()
    return inst


@pytest.mark.parametrize("field", ["id", "dataset"])
@pytest.mark.parametrize("value", ["", 5, None])
def test_instance_id_and_dataset_must_be_non_empty_strings(field, value):
    with pytest.raises(CorpusError, match=f"^field '{field}' must be a non-empty string$"):
        make_instance(["O"], **{field: value})


# -- spans -------------------------------------------------------------------


def test_span_rejects_empty_and_negative():
    with pytest.raises(CorpusError):
        Span(2, 2)
    with pytest.raises(CorpusError):
        Span(-1, 0)
    with pytest.raises(CorpusError):
        Span(3, 1)


def test_span_len_and_overlap():
    assert len(Span(2, 5)) == 3
    assert Span(0, 3).overlaps(Span(2, 4))
    assert not Span(0, 3).overlaps(Span(3, 4))  # touching is not overlap
    assert Span(1, 2).overlaps(Span(0, 5))


def test_span_is_a_frozen_slotted_value():
    assert Span(1, 3) == Span(1, 3) and Span(1, 3) != Span(1, 4)
    spans = [Span(2, 4), Span(0, 5), Span(0, 2), Span(1, 3)]
    assert sorted(spans) == [Span(0, 2), Span(0, 5), Span(1, 3), Span(2, 4)]
    assert hash(Span(1, 3)) == hash((1, 3)) and hash(Span(4, 9)) == hash((4, 9))
    assert repr(Span(1, 3)) == "Span(start=1, end=3)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        Span(1, 3).start = 0
    assert not hasattr(Span(1, 3), "__dict__")


def test_clause_annotation_is_a_frozen_slotted_value():
    clause = ClauseAnnotation(Span(1, 3), True)
    assert clause == ClauseAnnotation(Span(1, 3), True)
    assert clause != ClauseAnnotation(Span(1, 3), False) == ClauseAnnotation(Span(1, 3))
    assert hash(clause) == hash((Span(1, 3), True))
    assert repr(clause) == "ClauseAnnotation(span=Span(start=1, end=3), is_stimulus=True)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        clause.is_stimulus = False
    assert not hasattr(clause, "__dict__")


# -- IOB conversion ----------------------------------------------------------


def test_iob_to_spans_basic():
    assert iob_to_spans(["O", "B", "I", "O", "B"]) == [Span(1, 3), Span(4, 5)]


def test_iob_to_spans_orphan_i_opens_span():
    assert iob_to_spans(["I", "I", "O", "B"]) == [Span(0, 2), Span(3, 4)]


def test_iob_to_spans_b_restarts():
    assert iob_to_spans(["B", "B", "I"]) == [Span(0, 1), Span(1, 3)]


def test_iob_to_spans_runs_to_end():
    assert iob_to_spans(["O", "B", "I"]) == [Span(1, 3)]
    assert iob_to_spans([]) == []


def test_iob_to_spans_rejects_unknown_label():
    with pytest.raises(CorpusError):
        iob_to_spans(["B", "X"])


def test_spans_to_iob():
    assert spans_to_iob([Span(1, 3)], 4) == ["O", "B", "I", "O"]
    assert spans_to_iob([Span(0, 1), Span(1, 3)], 3) == ["B", "B", "I"]
    assert spans_to_iob([], 2) == ["O", "O"]


def test_spans_to_iob_rejects_overlap_and_overflow():
    with pytest.raises(CorpusError):
        spans_to_iob([Span(0, 2), Span(1, 3)], 5)
    with pytest.raises(CorpusError):
        spans_to_iob([Span(0, 4)], 3)


@st.composite
def disjoint_spans(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    points = sorted(draw(st.sets(st.integers(min_value=0, max_value=n), max_size=10)))
    spans = [Span(a, b) for a, b in zip(points[::2], points[1::2])]
    return n, spans


@given(disjoint_spans())
@settings(max_examples=200, deadline=None)
def test_span_iob_round_trip(case):
    n, spans = case
    assert iob_to_spans(spans_to_iob(spans, n)) == spans


# -- instance validation ------------------------------------------------------


def test_instance_validates_lengths_and_labels():
    with pytest.raises(CorpusError, match="'iob'"):
        make_instance(["B", "O"], tokens=["a"])
    with pytest.raises(CorpusError, match="position 1"):
        Instance("i", "d", ["a", "b"], ["O", "Q"]).validate()
    with pytest.raises(CorpusError, match="'tokens'"):
        Instance("i", "d", [], []).validate()


def test_instance_validates_clauses():
    with pytest.raises(CorpusError, match="overlaps"):
        make_instance(["O"] * 4, clauses=[(0, 3, False), (2, 4, False)])
    with pytest.raises(CorpusError, match="4 tokens"):
        make_instance(["O"] * 4, clauses=[(0, 5, False)])


# -- JSON-lines I/O -----------------------------------------------------------


def test_corpus_round_trip(tmp_path):
    instances = generate_synthetic(8, seed=1)
    instances[0].pred_iob = list(instances[0].iob)
    instances[1].pred_clauses = list(instances[1].clauses)
    path = tmp_path / "c.jsonl"
    save_corpus(instances, path)
    assert load_corpus(path) == instances


def test_instance_objects_follow_the_field_order_and_leave_out_none():
    inst = generate_synthetic(1, seed=2)[0]
    inst.pred_iob, inst.pred_clauses = list(inst.iob), inst.clauses[:1]
    obj = instance_to_obj(inst)
    assert list(obj) == [field.name for field in dataclasses.fields(Instance)]
    span = inst.clauses[0].span
    assert obj["pred_clauses"] == [{"start": span.start, "end": span.end, "stimulus": False}]
    inst.clauses = inst.parse = inst.pred_clauses = None
    assert list(instance_to_obj(inst)) == ["id", "dataset", "tokens", "iob", "emotion", "pred_iob"]


def test_load_reports_line_and_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"id": "a", "dataset": "d", "tokens": ["x"], "iob": ["O"]}'
    path.write_text(good + "\n{broken\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)

    path.write_text('{"id": "a", "dataset": "d", "tokens": ["x"]}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="'iob'"):
        load_corpus(path)

    path.write_text(
        '{"id": "a", "dataset": "d", "tokens": ["x", "y"], "iob": ["O"]}\n', encoding="utf-8"
    )
    with pytest.raises(CorpusError, match="line 1.*'iob'"):
        load_corpus(path)

    path.write_text(
        '{"id": "a", "dataset": "d", "tokens": ["x"], "iob": ["O"], '
        '"clauses": [{"start": 0}]}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusError, match="'clauses'"):
        load_corpus(path)


GOOD_LINE = '{"id": "a", "dataset": "d", "tokens": ["x", "y"], "iob": ["O", "O"]'


@pytest.mark.parametrize(
    "extra, needle",
    [
        ('"pred_iob": 5', "field 'pred_iob' must be a list"),
        ('"pred_iob": "BO"', "field 'pred_iob' must be a list"),  # not read as ["B", "O"]
        ('"clauses": 5', "field 'clauses' must be a list"),
        ('"pred_clauses": 5', "field 'pred_clauses' must be a list"),
        ('"parse": 5', "field 'parse' must be a string"),
        ('"emotion": ["joy"]', "field 'emotion' must be a string"),
        ('"clauses": [{"start": 0, "end": 2, "stimulus": "no"}]', "'clauses' entry 0"),
        ('"pred_clauses": [{"start": 0, "end": 2, "stimulus": 1}]', "'pred_clauses' entry 0"),
        ('"clauses": [{"start": false, "end": 2}]', "'clauses' entry 0 has non-integer"),
        (
            '"clauses": [{"start": 0, "end": 1}, {"start": 1, "end": 1}]',
            "field 'clauses' entry 1 has invalid span [1, 1)",
        ),
        (
            '"pred_clauses": [{"start": -1, "end": 1}]',
            "field 'pred_clauses' entry 0 has invalid span [-1, 1)",
        ),
    ],
)
def test_load_rejects_a_field_of_the_wrong_type(tmp_path, extra, needle):
    path = tmp_path / "c.jsonl"
    path.write_text(f"{GOOD_LINE}}}\n{GOOD_LINE}, {extra}}}\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert str(exc.value).startswith(f"{path}: line 2: ") and needle in str(exc.value)


@pytest.mark.parametrize(
    "field, bounds, needle",
    [
        ("clauses", [(3, 6), (0, 3)], "clause 1 is out of order: it precedes clause 0"),
        (
            "pred_clauses",
            [(0, 2), (4, 6), (2, 3)],
            "clause 2 is out of order: it precedes clause 1",
        ),
        ("clauses", [(0, 4), (3, 6)], "clause 1 overlaps its predecessor"),
        ("pred_clauses", [(3, 6), (2, 4)], "clause 1 overlaps its predecessor"),
    ],
)
def test_load_tells_clauses_out_of_order_from_overlapping_ones(tmp_path, field, bounds, needle):
    path = tmp_path / "c.jsonl"
    clauses = [{"start": start, "end": end} for start, end in bounds]
    record = {"id": "a", "dataset": "d", "tokens": ["x"] * 6, "iob": ["O"] * 6, field: clauses}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: line 1: field '{field}' {needle}"


@pytest.mark.parametrize(
    "data, needle",
    [
        (GOOD_LINE.encode() + b"}\n\xff\n", "line 2: not UTF-8"),
        (b"[" * 100_000 + b"\n", "line 1: invalid JSON"),
        (b'{"id": ' + b"1" * 5000 + b"}\n", "line 1: invalid JSON"),
    ],
)
def test_load_rejects_bytes_that_are_not_a_json_line(tmp_path, data, needle):
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    with pytest.raises(CorpusError, match=needle):
        load_corpus(path)


def test_not_utf8_names_only_the_file_when_every_line_decodes(tmp_path, monkeypatch):
    """As when the file was mended between the failed text read and the scan of its bytes."""
    path = tmp_path / "c.jsonl"
    path.write_text(GOOD_LINE + "}\n\u00e9\n", encoding="utf-8")

    def ascii_text(file, mode="r", **kwargs):  # the text read fails on the UTF-8 "é"
        return builtins.open(file, mode, **(kwargs if "b" in mode else {"encoding": "ascii"}))

    monkeypatch.setattr(corpus, "open", ascii_text, raising=False)
    with pytest.raises(CorpusError) as exc:
        list(read_lines(path))
    assert str(exc.value) == f"{path}: not UTF-8 text"


def test_read_lines_numbers_the_lines_of_a_text_mode_read(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"a\r\nb\rc\n\n\xc3\xa9")
    assert list(read_lines(path)) == [(1, "a\n"), (2, "b\n"), (3, "c\n"), (4, "\n"), (5, "\u00e9")]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_corpora_load_or_raise_a_corpus_error_naming_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "damaged.jsonl"
    path.write_bytes(data.draw(damaged_corpus(CORPUS_RECORD)))
    try:
        instances = load_corpus(path)
    except CorpusError as exc:
        assert str(exc).startswith(f"{path}: line ")
        return
    for inst in instances:
        inst.validate()
        assert all(isinstance(v, (str, type(None))) for v in (inst.parse, inst.emotion))


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '\n{"id": "a", "dataset": "d", "tokens": ["x"], "iob": ["O"]}\n\n', encoding="utf-8"
    )
    assert len(load_corpus(path)) == 1


def annotations(instances):
    """Every clause object of ``instances``, gold and predicted, repeats kept."""
    return [c for inst in instances for c in (inst.clauses or []) + (inst.pred_clauses or [])]


def test_load_shares_equal_clause_annotations(tmp_path):
    def line(name, clauses, pred_clauses=None):
        record = {"id": name, "dataset": "d", "tokens": ["x"] * 4, "iob": ["O"] * 4}
        record["clauses"] = [{"start": s, "end": e, "stimulus": f} for s, e, f in clauses]
        if pred_clauses is not None:
            record["pred_clauses"] = [
                {"start": s, "end": e, "stimulus": f} for s, e, f in pred_clauses
            ]
        return json.dumps(record) + "\n"

    path = tmp_path / "c.jsonl"
    path.write_text(
        line("a", [(0, 2, True), (2, 4, False)])
        + line("b", [(0, 2, True), (2, 4, True)], [(0, 2, True)]),
        encoding="utf-8",
    )
    a, b = load_corpus(path)
    assert a.clauses[0] is b.clauses[0] is b.pred_clauses[0]
    assert a.clauses[1] == ClauseAnnotation(Span(2, 4), False)
    assert b.clauses[1] == ClauseAnnotation(Span(2, 4), True)
    assert a.clauses[1] is not b.clauses[1]  # differs only in 'stimulus'

    again = load_corpus(path)
    assert again == [a, b]
    assert not {id(c) for c in annotations([a, b])} & {id(c) for c in annotations(again)}

    b.clauses.append(ClauseAnnotation(Span(3, 4)))
    assert len(a.clauses) == 2 and a.clauses is not b.clauses
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.clauses[0].is_stimulus = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.clauses[0].span.start = 1

    instances = generate_synthetic(200, seed=4)
    for inst in instances[::2]:
        inst.pred_clauses = list(inst.clauses)
    save_corpus(instances, path)
    loaded = annotations(load_corpus(path))
    triples = {(c.span.start, c.span.end, c.is_stimulus) for c in loaded}
    assert len(loaded) > len(triples)
    assert len({id(c) for c in loaded}) == len(triples)


def test_load_interns_token_and_dataset_strings(tmp_path):
    """Equal token and dataset strings are one object within a load and across
    loads. Every token has two or more characters: CPython caches one-character
    strings anyway."""
    records = [
        {"id": "a", "dataset": "news", "tokens": ["we", "won", "we"], "iob": ["O"] * 3},
        {"id": "b", "dataset": "news", "tokens": ["they", "won"], "iob": ["O"] * 2},
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    a, b = load_corpus(path)
    assert a.tokens[0] is a.tokens[2]  # one line
    assert a.tokens[1] is b.tokens[1] and a.dataset is b.dataset  # two lines

    again = load_corpus(path)
    assert again == [a, b]
    for first, second in zip([a, b], again):
        assert all(x is y for x, y in zip(first.tokens, second.tokens))
        assert first.dataset is second.dataset
    assert a.tokens is not b.tokens and a.tokens is not again[0].tokens  # lists stay owned

    path.write_text(
        f'{GOOD_LINE}}}\n{{"id": "c", "dataset": "d", "tokens": ["xy", 5], "iob": ["O", "O"]}}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusError) as exc:  # checked before it is interned
        load_corpus(path)
    assert str(exc.value) == (
        f"{path}: line 2: field 'tokens' must be a non-empty list of strings"
    )


@pytest.mark.parametrize(
    "lookalike, needle",
    [
        ('{"start": 0, "end": 2.0}', "non-integer bounds"),
        ('{"start": 0.0, "end": 2}', "non-integer bounds"),
        ('{"start": false, "end": 2}', "non-integer bounds"),
        ('{"start": 0, "end": 2, "stimulus": 1}', "a non-boolean 'stimulus'"),
    ],
)
def test_load_never_shares_a_clause_with_a_lookalike_entry(tmp_path, lookalike, needle):
    path = tmp_path / "c.jsonl"
    valid = '{"start": 0, "end": 2, "stimulus": true}'
    path.write_text(
        f'{GOOD_LINE}, "clauses": [{valid}]}}\n{GOOD_LINE}, "clauses": [{lookalike}]}}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}: line 2: field 'clauses' entry 0 has {needle}"


# -- splitting ----------------------------------------------------------------


def test_split_sizes_and_partition():
    instances = generate_synthetic(50, seed=0)
    train, dev, test = split_corpus(instances, seed=4)
    assert (len(train), len(dev), len(test)) == (40, 5, 5)
    combined = sorted(i.id for i in train + dev + test)
    assert combined == sorted(i.id for i in instances)


def test_split_floors_small_remainder():
    instances = generate_synthetic(19, seed=0)
    train, dev, test = split_corpus(instances, seed=4)
    assert (len(train), len(dev), len(test)) == (17, 1, 1)
    train, dev, test = split_corpus(generate_synthetic(10, seed=0), seed=4)  # the least it takes
    assert (len(train), len(dev), len(test)) == (8, 1, 1)


def test_split_deterministic_per_seed():
    instances = generate_synthetic(30, seed=0)
    a = split_corpus(instances, seed=9)
    b = split_corpus(instances, seed=9)
    assert [[i.id for i in part] for part in a] == [[i.id for i in part] for part in b]
    c = split_corpus(instances, seed=10)
    assert [i.id for i in a[0]] != [i.id for i in c[0]]


def test_split_rejects_tiny_corpus():
    with pytest.raises(CorpusError):
        split_corpus(generate_synthetic(9, seed=0), seed=1)


# -- statistics ----------------------------------------------------------------


def test_stats_hand_example():
    one = make_instance(["B", "I", "O", "O"])
    two = make_instance(["O", "O", "O", "O"])
    st_ = compute_stats([one, two])
    assert st_.size == 2
    assert st_.with_stimuli == 1
    assert st_.mu_len == 2.0
    assert st_.sigma_len == 0.0
    assert st_.mu_s_per_i == pytest.approx(0.25)
    assert st_.clauses_total is None


def test_stats_empty_corpus_is_all_zero():
    st_ = compute_stats([])
    assert st_ == CorpusStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)


def test_stats_clause_columns():
    inst = make_instance(
        ["O", "O", "B", "I", "I", "O"],
        clauses=[(0, 2, False), (2, 5, True), (5, 6, False)],
    )
    st_ = compute_stats([inst])
    assert st_.clauses_total == 3
    assert st_.clauses_with_s == 1
    assert st_.mu_clauses_per_i == 3.0
    assert st_.mu_s_per_c == pytest.approx(1 / 3)
    assert st_.mu_all_s_per_i == 1.0


def test_stats_match_naive_recount():
    rng = np.random.default_rng(5)
    for trial in range(20):
        corpus = generate_synthetic(int(rng.integers(0, 30)), seed=trial)
        got = compute_stats(corpus)
        want = naive_stats(corpus)
        for key, expected in want.items():
            value = getattr(got, key)
            if expected is None:
                assert value is None, key
            else:
                assert value == pytest.approx(expected, abs=1e-12), key


def test_stats_csv_format():
    text = format_stats_csv({"d": compute_stats([make_instance(["B", "O"])])})
    header, row = text.strip().splitlines()
    assert header.startswith("dataset,size,with_stimuli,mu_len")
    cells = row.split(",")
    assert cells[0] == "d" and cells[1] == "1"
    assert cells[6] == ""  # clause columns are empty without clause annotations


# -- synthetic corpus -----------------------------------------------------------


def test_synthetic_deterministic():
    assert generate_synthetic(20, seed=3) == generate_synthetic(20, seed=3)
    assert generate_synthetic(20, seed=3) != generate_synthetic(20, seed=4)


def test_synthetic_refuses_a_negative_count():
    with pytest.raises(ValueError, match="^n must be non-negative$"):
        generate_synthetic(-1, seed=0)
    assert generate_synthetic(0, seed=0) == []


def test_synthetic_is_self_consistent():
    for inst in generate_synthetic(40, seed=8):
        inst.validate()
        stim_clauses = [c.span for c in inst.clauses if c.is_stimulus]
        assert iob_to_spans(inst.iob) == stim_clauses
        tree = parse_bracket(inst.parse)
        assert tree.end == len(inst.tokens)


def test_synthetic_mixes_stimulus_presence():
    flags = [bool(iob_to_spans(i.iob)) for i in generate_synthetic(60, seed=2)]
    assert any(flags) and not all(flags)


@pytest.mark.parametrize(
    "field, value",
    [
        ("stimulus_rate", -0.1),
        ("stimulus_rate", 1.5),
        ("lead_len", (1, 1)),
        ("lead_len", (2, 6)),
        ("lead_len", (6, 5)),
        ("stimulus_len", (1, 1)),
        ("stimulus_len", (0, 4)),
        ("stimulus_len", (8, 4)),
    ],
)
def test_synthetic_grammar_refuses_bounds_it_cannot_generate(field, value):
    with pytest.raises(ValueError, match=field):
        SyntheticGrammar(**{field: value})


def test_synthetic_grammar_at_its_least_bounds_writes_those_lengths():
    grammar = SyntheticGrammar(stimulus_rate=1.0, lead_len=(3, 3), stimulus_len=(2, 2))
    for inst in generate_synthetic(10, seed=4, grammar=grammar):
        inst.validate()
        assert len(inst.tokens) == 3 + 2 + 1
        assert iob_to_spans(inst.iob) == [Span(3, 5)]
        assert parse_bracket(inst.parse).end == len(inst.tokens)
