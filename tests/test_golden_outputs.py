"""Pinned sha256 digests of the README's non-neural CLI outputs.

The corpus is ``generate_synthetic(60, seed=21)`` with two changes made by
instance number, so that clause alignment and every matching mode see
misses: every fifth gold stimulus starts one token after its connective, and
every seventh instance belongs to a second dataset.  Predictions follow the
gold spans with a boundary moved by instance number; every fourth instance
stores clause flags (``pred_clauses``) instead of token labels.  The
digests were computed before the bracket parser, the span matching and the
corpus loader were rewritten for speed; a change to any of them changed what
a command computes.  The ``report.md`` digest was computed before the CSV
writers and the report's CSV reader moved to Python's ``csv`` module.
"""

from __future__ import annotations

import hashlib

import pytest

from stimex import cli
from stimex.cli import main
from stimex.corpus import (
    ClauseAnnotation,
    Span,
    generate_synthetic,
    load_corpus,
    save_corpus,
    spans_to_iob,
)

GOLDEN = {
    "stats.csv": "e6367f8a4952732320608f9e1d86d65ebb9c16be78d8cdb95de96d4dc395b36a",
    "with_clauses.jsonl": "2dfe4e617f1590c1998e106e94cbad346dbc6da25328ab99a96d3e6d1afd6bb7",
    "clause_eval.csv": "1efe789c8c03c9cb87aad882e33c169a6ba28d392fba5db95e805e51f8d7f75e",
    "eval.csv": "5f54ac9104d39c5ed0a2b639c60faf709e7743db92715e90e686586f2bc9cc45",
    "errors.csv": "640970a169eafc6809a382f4e7830053459a46afbd6e9dfb7a32e7f98e0a76fa",
    "report.md": "a8adb493cd196ad4c246f9ffd6296b849d55367ffc4c41281bd3d5c01a2f9448",
}


def _moved(span: Span, k: int, n: int) -> list[Span]:
    """Predictions for gold ``span`` by rule ``k % 6``: exact, late start, early stop,
    longer, missed, or exact plus a spurious first token."""
    start, end = span.start, span.end
    rule = k % 6
    if rule == 1 and end - start > 1:
        return [Span(start + 1, end)]
    if rule == 2 and end - start > 1:
        return [Span(start, end - 1)]
    if rule == 3 and start > 0:
        return [Span(start - 1, min(end + 1, n))]
    if rule == 4:
        return []
    if rule == 5:
        return [Span(0, 1), span]
    return [span]


def golden_corpora(tmp_path):
    """The gold corpus and the predictions file, both written under ``tmp_path``."""
    instances = generate_synthetic(60, seed=21)
    for k, inst in enumerate(instances):
        if k % 7 == 3:
            inst.dataset = "second"
        spans = inst.stimulus_spans()
        if k % 5 == 0 and spans and len(spans[0]) > 1:
            inst.iob = spans_to_iob([Span(spans[0].start + 1, spans[0].end)], len(inst.tokens))
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(instances, corpus)
    for k, inst in enumerate(instances):
        n = len(inst.tokens)
        if k % 4 == 0:
            # every eighth instance flags its lead clause in place of the stimulus
            flags = [c.span.start == 0 if k % 8 == 0 else c.is_stimulus for c in inst.clauses]
            inst.pred_clauses = [ClauseAnnotation(c.span, f) for c, f in zip(inst.clauses, flags)]
        else:
            pred = [p for sp in inst.stimulus_spans() for p in _moved(sp, k, n)]
            inst.pred_iob = spans_to_iob(pred, n)
    preds = tmp_path / "preds.jsonl"
    save_corpus(instances, preds)
    return corpus, preds


def run_walkthrough(tmp_path) -> dict[str, str]:
    """sha256 of each output file of the README's non-neural steps."""
    corpus, preds = golden_corpora(tmp_path)
    out = {name: tmp_path / name for name in GOLDEN}
    steps = [
        ["stats", "--corpus", corpus, "--out", out["stats.csv"]],
        ["clauses", "extract", "--corpus", corpus, "--out", out["with_clauses.jsonl"]],
        ["clauses", "eval", "--corpus", corpus, "--out", out["clause_eval.csv"]],
        ["eval", "--corpus", preds, "--model", "sl", "--out", out["eval.csv"]],
        ["errors", "--corpus", preds, "--model", "sl", "--out", out["errors.csv"]],
        ["report", "--stats", out["stats.csv"], "--eval", out["eval.csv"]]
        + ["--errors", out["errors.csv"], "--out", out["report.md"]],
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0, argv
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_walkthrough(tmp_path_factory.mktemp("walkthrough"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_walkthrough_outputs_match_their_golden_digests(digests, name):
    assert digests[name] == GOLDEN[name]


def test_eval_maps_each_clause_prediction_to_tokens_once(tmp_path, monkeypatch):
    _, preds = golden_corpora(tmp_path)
    calls = []
    original = cli.clauses_to_tokens

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "clauses_to_tokens", counting)
    out = tmp_path / "eval.csv"
    assert main(["eval", "--corpus", str(preds), "--model", "sl", "--out", str(out)]) == 0
    with_clauses = sum(inst.pred_clauses is not None for inst in load_corpus(preds))
    assert len(calls) == with_clauses == 15
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["eval.csv"]
