"""Tests of the benchmark's own parts: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stimex import corpus, error_analysis, models, parsetree  # noqa: E402
from stimex.clause_extract import extract_clauses  # noqa: E402
from stimex.error_analysis import ErrorType  # noqa: E402


# -- self-time arithmetic ---------------------------------------------------


def test_self_time_nested_and_sibling_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],  # nested inside a
        ["a", 5.0, 7.0, 0],  # sibling of the first a
        ["c", 8.0, 9.5, 0],
    ]
    agg = tracing.summarize(spans)
    assert agg["root"] == [1, 10.0, 10.0 - 3.0 - 2.0 - 1.5]
    assert agg["a"] == [2, 5.0, 2.0 + 2.0]
    assert agg["b"] == [1, 1.0, 1.0]
    assert agg["c"] == [1, 1.5, 1.5]
    total_self = sum(v[2] for v in agg.values())
    assert total_self == pytest.approx(10.0)  # self times partition the root


def test_covered_time_is_a_clipped_union():
    assert tracing.covered(0.0, 10.0, []) == 0.0
    assert tracing.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 3.0
    assert tracing.covered(0.0, 10.0, [(5.0, 6.0), (1.0, 2.0)]) == 2.0
    assert tracing.covered(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]) == 1.5


def test_reentrant_calls_share_one_span_and_counting_is_excluded():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("layer", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = tracer.wrap("layer", outer, before=lambda counts, args: counts.update(n=args[0]))
    parent = tracer.wrap("parent", lambda x: traced_outer(x))
    assert parent(3) == 8
    names = [s[0] for s in tracer.spans]
    assert names == ["parent", tracing.COUNT_SPAN, "layer"]
    assert tracer.counts["n"] == 3
    agg = tracing.summarize(tracer.spans)
    assert agg["layer"][0] == 1
    assert all(v[2] >= 0.0 for v in agg.values())


def test_install_patches_lookups_and_uninstall_restores():
    tracer = tracing.Tracer()
    before = (models.attention, models.BiLstm.run, models.BiLstm.__call__, corpus.load_corpus)
    tracer.install()
    try:
        assert models.attention is not before[0]
        assert models.BiLstm.run is not before[1]
    finally:
        tracer.uninstall()
    after = (models.attention, models.BiLstm.run, models.BiLstm.__call__, corpus.load_corpus)
    assert after == before


def test_every_layer_metric_is_reported():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        corpus.generate_synthetic(3, seed=0)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    assert set(values) | {"trace.overhead_ratio"} == set(tracing.layer_metric_names())
    assert values["corpus.generate_synthetic.calls"] == 1
    assert values["corpus.generate_synthetic.s"] > 0.0


# -- generators ---------------------------------------------------------------


def _clause_depth(node) -> int:
    below = max((_clause_depth(c) for c in node.children), default=0)
    return below + (node.label in {"S", "SBAR", "SINV", "SQ"})


def test_deep_corpus_trees_match_tokens_and_round_trip(tmp_path):
    instances = gen.deep_corpus(200, seed=3)
    lengths = [len(inst.tokens) for inst in instances]
    assert max(lengths) <= gen.MAX_TOKENS
    depths = []
    for inst in instances:
        tree = parsetree.parse_bracket(inst.parse)
        assert parsetree.leaves(tree) == inst.tokens
        segs = extract_clauses(tree)
        assert segs.segments[0].start == 0 and segs.segments[-1].end == len(inst.tokens)
        depths.append(_clause_depth(tree))
    assert max(depths) >= 4  # clauses nest several levels deep
    assert any("," in inst.tokens for inst in instances)
    path = tmp_path / "deep.jsonl"
    corpus.save_corpus(instances, path)
    assert [i.tokens for i in corpus.load_corpus(path)] == [i.tokens for i in instances]


def test_sl_predictions_reach_every_error_type():
    instances = gen.deep_corpus(400, seed=5)
    preds = gen.with_predictions(instances, "sl", seed=5)
    gold = [inst.stimulus_spans() for inst in instances]
    pred = [corpus.iob_to_spans(inst.pred_iob) for inst in preds]
    counts = error_analysis.classify_corpus(gold, pred)
    assert all(counts[t] > 0 for t in ErrorType), counts


@pytest.mark.parametrize("arch", workloads.ARCHS)
def test_predictions_are_valid_instances(arch):
    instances = gen.deep_corpus(50, seed=1)
    for inst in gen.with_predictions(instances, arch, seed=1):
        inst.validate()
        assert (inst.pred_iob is None) != (inst.pred_clauses is None)


@pytest.mark.parametrize(
    "grammar, low, high, mean",
    [(corpus.DEFAULT_GRAMMAR, 4, 15, (8.5, 11.5)), (gen.LONG_GRAMMAR, 4, 61, (27, 35))],
)
def test_fixed_profile_lengths_do_not_depend_on_the_seed(grammar, low, high, mean):
    instances = gen.fixed_profile_corpus(workloads.LONG_INSTANCES, 0, grammar)
    lengths = [len(inst.tokens) for inst in instances]
    assert low <= min(lengths) and max(lengths) <= high
    assert mean[0] <= sum(lengths) / len(lengths) <= mean[1]
    other = gen.fixed_profile_corpus(workloads.LONG_INSTANCES, 9, grammar)
    assert lengths == [len(inst.tokens) for inst in other]
    assert [i.tokens for i in instances] != [i.tokens for i in other]


def _dump(instances):
    return [corpus.instance_to_obj(inst) for inst in instances]


@pytest.mark.parametrize(
    "make",
    [
        lambda s: gen.fixed_profile_corpus(20, s, gen.LONG_GRAMMAR),
        lambda s: gen.deep_corpus(30, s),
        lambda s: gen.with_predictions(gen.deep_corpus(30, 1), "sl", s),
        lambda s: gen.with_predictions(gen.deep_corpus(30, 1), "icc", s),
        lambda s: gen.with_predictions(gen.deep_corpus(30, 1), "jcc", s),
    ],
)
def test_generators_are_seed_deterministic(make):
    assert _dump(make(4)) == _dump(make(4))
    assert _dump(make(4)) != _dump(make(5))


# -- the command line -------------------------------------------------------


def test_corpus_tools_run_prints_the_contract(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "DEEP_INSTANCES", 40)
    assert run.main(["--workload", "corpus-tools", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    report, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["rounds"] == run.MIN_ROUNDS and report["environment"]["blas_threads"] == "1"


def test_traced_run_reports_every_layer_metric(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "DEEP_INSTANCES", 40)
    assert run.main(["--workload", "corpus-tools", "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert all(m["value"] >= 0 for m in result["metrics"].values())
    assert result["metrics"]["parsetree.parse_bracket.calls"]["value"] == 40
