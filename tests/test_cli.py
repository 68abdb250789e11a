from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import CORPUS_RECORD, damaged, damaged_bytes, damaged_corpus
from stimex import cli
from stimex.cli import main
from stimex.clause_extract import extract_clauses
from stimex.corpus import (
    compute_stats,
    format_stats_csv,
    generate_synthetic,
    load_corpus,
    save_corpus,
)
from stimex.models import (
    EmbeddingTable,
    TrainConfig,
    clause_spans,
    clause_token_lists,
    icc_predict,
    jcc_predict,
    load_checkpoint,
    save_checkpoint,
    sl_predict,
    train,
    vocabulary,
)


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic(30, seed=1), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def checkpoint_header(path):
    """The JSON header line of a checkpoint."""
    return json.loads(path.read_bytes().partition(b"\n")[0])


def pipeline(tmp_path, corpus_path, seed=5, arch="sl"):
    """split -> train -> predict(test) -> eval/errors; returns the file paths."""
    splits = tmp_path / "splits.json"
    ckpt = tmp_path / "model.json"
    preds = tmp_path / "preds.jsonl"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "embedding_dim": 12,
                "hidden_dim": 8,
                "max_epochs": 3,
                "patience": 3,
            }
        ),
        encoding="utf-8",
    )
    assert run("split", "--corpus", corpus_path, "--seed", seed, "--out", splits) == 0
    assert (
        run(
            "train",
            "--corpus", corpus_path,
            "--splits", splits,
            "--arch", arch,
            "--config", config,
            "--checkpoint", ckpt,
        )
        == 0
    )
    assert (
        run(
            "predict",
            "--corpus", corpus_path,
            "--checkpoint", ckpt,
            "--splits", splits,
            "--subset", "test",
            "--out", preds,
        )
        == 0
    )
    return splits, ckpt, preds


def test_validate_ok_and_failure(tmp_path, corpus_path, capsys):
    assert run("validate", "--corpus", corpus_path) == 0
    assert "30 instances" in capsys.readouterr().out
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    assert run("validate", "--corpus", bad) == 1
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_exits_with_the_code_of_main(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "stimex.cli", "validate", "--corpus", str(bad)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith(f"error: {bad}: line 1: ") and done.stderr.count("\n") == 1


def test_validate_names_the_entry_of_an_invalid_clause_span(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"id": "a", "dataset": "d", "tokens": ["x", "y"], "iob": ["O", "O"], '
        '"clauses": [{"start": 0, "end": 1}, {"start": 1, "end": 1}]}\n',
        encoding="utf-8",
    )
    assert run("validate", "--corpus", bad) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == f"error: {bad}: line 1: field 'clauses' entry 1 has invalid span [1, 1)\n"


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_validate_on_a_damaged_corpus_exits_zero_or_one_with_one_error_line(
    tmp_path_factory, data
):
    path = tmp_path_factory.getbasetemp() / "damaged.jsonl"
    path.write_bytes(data.draw(damaged_corpus(CORPUS_RECORD)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = run("validate", "--corpus", path)
    if code == 1:
        message = err.getvalue()
        assert message.startswith(f"error: {path}: line ") and message.count("\n") == 1
        assert out.getvalue() == ""
    else:
        assert code == 0 and err.getvalue() == "" and out.getvalue().startswith("ok: ")


def test_stats_writes_csv(tmp_path, corpus_path, capsysbinary):
    out = tmp_path / "stats.csv"
    assert run("stats", "--corpus", corpus_path, "--out", out) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("dataset,size")
    assert len(lines) == 2 and lines[1].split(",")[1] == "30"
    capsysbinary.readouterr()
    assert run("stats", "--corpus", corpus_path) == 0  # no --out: the same bytes to stdout
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_clauses_extract_writes_clause_fields(tmp_path, corpus_path):
    out = tmp_path / "with_clauses.jsonl"
    assert run("clauses", "extract", "--corpus", corpus_path, "--out", out) == 0
    for inst in load_corpus(out):
        assert inst.clauses is not None
        assert inst.clauses[0].span.start == 0
        assert inst.clauses[-1].span.end == len(inst.tokens)
        assert all(not c.is_stimulus for c in inst.clauses)


def test_clauses_extract_names_an_instance_with_a_bad_parse(tmp_path, capsys):
    path, out = tmp_path / "c.jsonl", tmp_path / "out.jsonl"
    record = dict(CORPUS_RECORD, parse="(S (NN x)")
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert run("clauses", "extract", "--corpus", path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: instance 'ex-1': unbalanced") and err.count("\n") == 1
    path.write_text(json.dumps(dict(record, parse=5)) + "\n", encoding="utf-8")
    assert run("clauses", "extract", "--corpus", path, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {path}: line 1: field 'parse' must be a string\n"
    assert not out.exists()


def test_clauses_extract_labels_are_the_comma_separated_names(
    tmp_path, corpus_path, monkeypatch
):
    seen = set()

    def recording(tree, labels, join):
        seen.add(labels)
        return extract_clauses(tree, labels, join)

    monkeypatch.setattr(cli, "extract_clauses", recording)
    out = tmp_path / "out.jsonl"
    argv = ["clauses", "extract", "--corpus", corpus_path, "--labels", "SBAR, S,", "--out", out]
    assert run(*argv) == 0
    assert seen == {frozenset({"SBAR", "S"})}


@pytest.mark.parametrize("command", ["extract", "eval"])
@pytest.mark.parametrize("value", [",", " , ", ""])
def test_clauses_labels_naming_no_label_exit_one(tmp_path, corpus_path, capsys, command, value):
    out = tmp_path / "out"
    assert run("clauses", command, "--corpus", corpus_path, "--labels", value, "--out", out) == 1
    assert capsys.readouterr().err == f"error: --labels {value!r} names no clause label\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "eval"])
def test_clauses_labels_unknown_to_the_parses_are_an_open_set(tmp_path, corpus_path, command):
    """A name no node carries is kept, not refused: it simply matches nothing."""
    out = tmp_path / "out"
    assert run("clauses", command, "--corpus", corpus_path, "--labels", "NOPE", "--out", out) == 0
    if command == "extract":  # no node matches, so each sentence is one clause
        assert all(len(inst.clauses) == 1 for inst in load_corpus(out))


def test_clauses_extract_no_join_gives_finer_segments(tmp_path, corpus_path):
    joined, raw = tmp_path / "joined.jsonl", tmp_path / "raw.jsonl"
    assert run("clauses", "extract", "--corpus", corpus_path, "--out", joined) == 0
    assert run("clauses", "extract", "--corpus", corpus_path, "--no-join", "--out", raw) == 0
    n_joined = sum(len(i.clauses) for i in load_corpus(joined))
    n_raw = sum(len(i.clauses) for i in load_corpus(raw))
    assert n_raw >= n_joined


def test_clauses_extract_trees_sidecar(tmp_path, corpus_path, capsys):
    instances = load_corpus(corpus_path)
    sidecar = tmp_path / "trees.txt"
    sidecar.write_text("\n".join(i.parse for i in instances) + "\n", encoding="utf-8")
    stripped = tmp_path / "noparse.jsonl"
    for inst in instances:
        inst.parse = None
    save_corpus(instances, stripped)
    out = tmp_path / "out.jsonl"
    assert run("clauses", "extract", "--corpus", stripped, "--out", out) == 1  # no trees
    assert (
        run("clauses", "extract", "--corpus", stripped, "--trees", sidecar, "--out", out) == 0
    )
    sidecar.write_text("(S (NN x))\n", encoding="utf-8")
    assert (
        run("clauses", "extract", "--corpus", stripped, "--trees", sidecar, "--out", out) == 1
    )
    trees = ["(S (NN x))"] + [i.parse for i in load_corpus(corpus_path)[1:]]
    sidecar.write_text("\n".join(trees) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert (
        run("clauses", "extract", "--corpus", stripped, "--trees", sidecar, "--out", out) == 1
    )
    first = instances[0]
    assert capsys.readouterr().err == (
        f"error: instance {first.id!r}: tree has 1 leaves but the instance has "
        f"{len(first.tokens)} tokens\n"
    )


def test_clauses_eval_reports_alignment(tmp_path, corpus_path):
    out = tmp_path / "clause_eval.csv"
    assert run("clauses", "eval", "--corpus", corpus_path, "--out", out) == 0
    header, row = out.read_text(encoding="utf-8").strip().splitlines()
    assert header.startswith("dataset,stimuli,anno_exact")
    cells = row.split(",")
    # synthetic stimuli coincide with annotated clauses exactly
    assert float(cells[2]) == 1.0


def test_clauses_eval_names_an_instance_without_clauses(tmp_path, capsys):
    instances = generate_synthetic(6, seed=2)
    instances[3].clauses = None
    path = tmp_path / "noclauses.jsonl"
    save_corpus(instances, path)
    out = tmp_path / "clause_eval.csv"
    assert run("clauses", "eval", "--corpus", path, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: instance {instances[3].id!r} has no clause annotations\n"
    )
    assert not out.exists()


def test_split_partitions_ids(tmp_path, corpus_path):
    out = tmp_path / "splits.json"
    assert run("split", "--corpus", corpus_path, "--seed", 3, "--out", out) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    ids = payload["train"] + payload["dev"] + payload["test"]
    assert sorted(ids) == sorted(i.id for i in load_corpus(corpus_path))
    assert len(payload["dev"]) == len(payload["test"]) == 3
    assert payload["seed"] == 3


def test_split_requires_unique_ids(tmp_path):
    instances = generate_synthetic(12, seed=0)
    for inst in instances:
        inst.id = "same"
    path = tmp_path / "dup.jsonl"
    save_corpus(instances, path)
    assert run("split", "--corpus", path, "--seed", 1, "--out", tmp_path / "s.json") == 1


def test_full_sl_pipeline(tmp_path, corpus_path):
    splits, ckpt, preds = pipeline(tmp_path, corpus_path)
    predicted = load_corpus(preds)
    assert len(predicted) == 3
    originals = {i.id: i for i in load_corpus(corpus_path)}
    for inst in predicted:
        assert inst.pred_iob is not None and len(inst.pred_iob) == len(inst.tokens)
        assert inst.iob == originals[inst.id].iob  # gold untouched

    eval_csv = tmp_path / "eval.csv"
    assert run("eval", "--corpus", preds, "--model", "sl", "--out", eval_csv) == 0
    lines = eval_csv.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 6  # header + 4 span modes + clause mode
    assert {ln.split(",")[2] for ln in lines[1:]} == {"exact", "relaxed", "left", "right", "clause"}

    errors_csv = tmp_path / "errors.csv"
    assert run("errors", "--corpus", preds, "--model", "sl", "--out", errors_csv) == 0
    lines = errors_csv.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "error_type,sl/synthetic"
    assert lines[-1].startswith("all,")

    report = tmp_path / "report.md"
    assert (
        run("report", "--stats", eval_csv, "--eval", eval_csv, "--errors", errors_csv, "--out", report)
        == 0
    )
    assert report.read_text(encoding="utf-8").startswith("# Stimulus detection report")


@pytest.mark.parametrize("arch", ["icc", "jcc"])
def test_clause_model_pipeline(tmp_path, corpus_path, arch):
    _, _, preds = pipeline(tmp_path, corpus_path, arch=arch)
    for inst in load_corpus(preds):
        assert inst.pred_clauses is not None
        assert [c.span for c in inst.pred_clauses] == [c.span for c in inst.clauses]
        assert inst.pred_iob is None
    eval_csv = tmp_path / "eval.csv"
    assert run("eval", "--corpus", preds, "--mode", "clause", "--out", eval_csv) == 0
    lines = eval_csv.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[2] == "clause"


def test_eval_single_mode_and_missing_predictions(tmp_path, corpus_path):
    out = tmp_path / "eval.csv"
    assert run("eval", "--corpus", corpus_path, "--mode", "exact", "--out", out) == 1  # no preds
    instances = load_corpus(corpus_path)
    for inst in instances:
        inst.pred_iob = list(inst.iob)
    preds = tmp_path / "perfect.jsonl"
    save_corpus(instances, preds)
    assert run("eval", "--corpus", preds, "--mode", "exact", "--out", out) == 0
    row = out.read_text(encoding="utf-8").strip().splitlines()[1].split(",")
    assert row[3] == "100" and row[5] == "100" and row[6] == "1.0"


def test_train_seed_flag_overrides_config(tmp_path, corpus_path):
    splits = tmp_path / "splits.json"
    run("split", "--corpus", corpus_path, "--seed", 2, "--out", splits)
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"embedding_dim": 8, "hidden_dim": 6, "max_epochs": 1, "patience": 1, "seed": 1}),
        encoding="utf-8",
    )
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    for ckpt, seed_args in ((a, ["--seed", "7"]), (b, ["--seed", "7"]), (c, [])):
        assert (
            run(
                "train",
                "--corpus", corpus_path,
                "--splits", splits,
                "--arch", "sl",
                "--config", config,
                *seed_args,
                "--checkpoint", ckpt,
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()
    assert checkpoint_header(a)["config"]["seed"] == 7
    assert checkpoint_header(c)["config"]["seed"] == 1


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_predict_writes_what_the_prediction_functions_return(tmp_path, corpus_path, arch):
    _, ckpt, preds = pipeline(tmp_path, corpus_path, arch=arch)
    trained = load_checkpoint(ckpt)
    golds = {inst.id: inst for inst in load_corpus(corpus_path)}
    for inst in load_corpus(preds):
        gold = golds[inst.id]
        assert (inst.tokens, inst.iob, inst.clauses) == (gold.tokens, gold.iob, gold.clauses)
        if arch == "sl":
            assert inst.pred_clauses is None
            assert inst.pred_iob == sl_predict(trained, gold)
            continue
        assert inst.pred_iob is None
        if arch == "icc":
            flags = [icc_predict(trained, toks) for toks in clause_token_lists(gold)]
        else:
            flags = jcc_predict(trained, gold)
        assert [c.span for c in inst.pred_clauses] == clause_spans(gold)
        assert [c.is_stimulus for c in inst.pred_clauses] == flags


def test_predict_subset_all_without_splits(tmp_path, corpus_path):
    splits, ckpt, _ = pipeline(tmp_path, corpus_path)
    out = tmp_path / "all.jsonl"
    assert run("predict", "--corpus", corpus_path, "--checkpoint", ckpt, "--out", out) == 0
    assert len(load_corpus(out)) == 30


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        run("train", "--corpus", "x")
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run("no-such-command")


def test_missing_file_is_reported(tmp_path, capsys):
    assert run("stats", "--corpus", tmp_path / "nope.jsonl") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, needle",
    [
        ("[]", "not a model checkpoint"),
        ('{"format": "stimex-checkpoint", "version": 4}', "'config'"),
        ('{"format": "stimex-checkpoint", "version": 2, "config": {}}', "version 2"),
        ("{broken", "ckpt.json"),
    ],
)
def test_predict_with_bad_checkpoint_exits_one(tmp_path, corpus_path, capsys, content, needle):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(content, encoding="utf-8")
    out = tmp_path / "preds.jsonl"
    assert run("predict", "--corpus", corpus_path, "--checkpoint", ckpt, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}") and needle in err
    assert not out.exists()


def test_predict_names_damaged_parameter(tmp_path, corpus_path, capsys):
    _, ckpt, _ = pipeline(tmp_path, corpus_path)
    header = checkpoint_header(ckpt)
    names = [name for name, _ in header["arrays"]]
    sizes = [8 * math.prod(shape) for _, shape in header["arrays"]]
    cut = sum(sizes[: names.index("project.weight")]) + 3  # 3 bytes into project.weight
    data = ckpt.read_bytes()
    ckpt.write_bytes(data[: data.index(b"\n") + 1 + cut])
    out = tmp_path / "again.jsonl"
    assert run("predict", "--corpus", corpus_path, "--checkpoint", ckpt, "--out", out) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "'project.weight'" in err


def test_predict_refuses_a_checkpoint_holding_a_non_finite_value(tmp_path, corpus_path, capsys):
    _, ckpt, _ = pipeline(tmp_path, corpus_path)
    header = checkpoint_header(ckpt)
    names = [name for name, _ in header["arrays"]]
    sizes = [8 * math.prod(shape) for _, shape in header["arrays"]]
    data = ckpt.read_bytes()
    at = data.index(b"\n") + 1 + sum(sizes[: names.index("crf.end_scores")])
    ckpt.write_bytes(data[:at] + np.array(np.nan, "<f8").tobytes() + data[at + 8 :])
    capsys.readouterr()
    out = tmp_path / "again.jsonl"
    assert run("predict", "--corpus", corpus_path, "--checkpoint", ckpt, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: array 'crf.end_scores' holds a non-finite value\n"
    assert not out.exists()


def test_predict_refuses_a_config_width_the_embeddings_do_not_have(tmp_path, corpus_path, capsys):
    _, ckpt, _ = pipeline(tmp_path, corpus_path)
    data = ckpt.read_bytes()
    header = checkpoint_header(ckpt)
    header["config"]["embedding_dim"] = 10**9
    ckpt.write_bytes(json.dumps(header).encode("utf-8") + data[data.index(b"\n") :])
    capsys.readouterr()
    out = tmp_path / "again.jsonl"
    assert run("predict", "--corpus", corpus_path, "--checkpoint", ckpt, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: 'config': embedding_dim 1000000000, embeddings 12 wide\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A short corpus, a small valid checkpoint's bytes and its path, and an output path."""
    tmp = tmp_path_factory.mktemp("cli_fuzz")
    corpus, ckpt, out = tmp / "corpus.jsonl", tmp / "ckpt.json", tmp / "preds.jsonl"
    instances = generate_synthetic(6, seed=3)
    save_corpus(instances, corpus)
    config = TrainConfig(embedding_dim=6, hidden_dim=4, max_epochs=1, patience=1)
    embeddings = EmbeddingTable.random(vocabulary(instances), 6, 0)
    save_checkpoint(train("sl", instances, instances, embeddings, config), ckpt)
    return corpus, ckpt, ckpt.read_bytes(), out


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_predict_on_a_damaged_checkpoint_exits_zero_or_one_with_one_error_line(
    fuzz_files, data
):
    corpus, ckpt, good, out = fuzz_files
    ckpt.write_bytes(data.draw(damaged(good)))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run("predict", "--corpus", corpus, "--checkpoint", ckpt, "--out", out)
    if code == 1:
        message = err.getvalue()
        assert message.startswith(f"error: {ckpt}: ") and message.count("\n") == 1
        assert not out.exists()
    else:
        assert code == 0 and err.getvalue() == ""


def train_args(tmp_path, corpus_path):
    """Arguments of a small ``train`` run; returns them with its split and config files."""
    splits, config = tmp_path / "splits.json", tmp_path / "cfg.json"
    run("split", "--corpus", corpus_path, "--seed", 2, "--out", splits)
    config.write_text(
        json.dumps({"embedding_dim": 4, "hidden_dim": 3, "max_epochs": 1, "patience": 1}),
        encoding="utf-8",
    )
    args = ["--corpus", corpus_path, "--splits", splits, "--config", config, "--arch", "sl"]
    return args, splits, config


@pytest.mark.parametrize(
    "which, content, needle",
    [
        ("splits", "{not json", "split file is not valid JSON: Expecting property name"),
        ("splits", "[1, 2]", "split file must be a JSON object"),
        ("splits", '{"train": 5, "dev": [], "test": []}', "'train' must be a list of instance"),
        ("splits", '{"train": [], "dev": [1], "test": []}', "'dev' must be a list of instance"),
        ("splits", '{"train": [], "test": []}', "split file is missing the 'dev' id list"),
        (
            "splits",
            '{"train": ["nope"], "dev": [], "test": []}',
            "split references unknown instance ids: ['nope']",
        ),
        ("config", "{not json", "training config is not valid JSON: Expecting property name"),
        ("config", '{"hidden_dim": "6"}', "hidden_dim must be of type int"),
        ("config", '{"hidden_dim": 6.5}', "hidden_dim must be of type int"),
        ("config", '{"seed": 1.5}', "seed must be of type int"),
        ("config", '{"seed": -1}', "seed must be non-negative"),
        ("config", '{"nope": 1}', "unknown training config key 'nope'"),
        ("config", "[1, 2]", "training config must be a JSON object"),
    ],
)
def test_train_with_a_bad_split_or_config_file_names_it(
    tmp_path, corpus_path, capsys, which, content, needle
):
    args, splits, config = train_args(tmp_path, corpus_path)
    bad = {"splits": splits, "config": config}[which]
    bad.write_text(content, encoding="utf-8")
    capsys.readouterr()
    ckpt = tmp_path / "model.json"
    assert run("train", *args, "--checkpoint", ckpt) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and needle in err and err.count("\n") == 1
    assert not ckpt.exists()


@pytest.mark.parametrize("which", ["splits", "config"])
def test_train_with_a_split_or_config_file_not_utf8_names_its_line(
    tmp_path, corpus_path, capsys, which
):
    args, splits, config = train_args(tmp_path, corpus_path)
    bad = {"splits": splits, "config": config}[which]
    bad.write_bytes(b'{\n"seed": "\xff"}\n')
    capsys.readouterr()
    ckpt = tmp_path / "model.json"
    assert run("train", *args, "--checkpoint", ckpt) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 2: not UTF-8 text\n"
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["split", "train"])
def test_a_negative_or_non_integer_seed_flag_is_a_usage_error(
    tmp_path, corpus_path, capsys, command
):
    out = tmp_path / "out.json"
    if command == "split":
        argv = ["split", "--corpus", corpus_path, "--out", out]
    else:
        args, _, _ = train_args(tmp_path, corpus_path)
        argv = ["train", *args, "--checkpoint", out]
    for seed, needle in (("-1", "must be non-negative, got -1"), ("x", "invalid int value: 'x'")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", seed)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --seed: {needle}\n")
        assert not out.exists()


def test_predict_with_a_bad_split_file_names_it(tmp_path, corpus_path, capsys):
    splits = tmp_path / "splits.json"
    splits.write_text('{"train": 5, "dev": [], "test": []}', encoding="utf-8")
    out = tmp_path / "preds.jsonl"
    args = ["--corpus", corpus_path, "--checkpoint", tmp_path / "none.json", "--out", out]
    assert run("predict", *args, "--splits", splits, "--subset", "all") == 1
    assert capsys.readouterr().err == (
        f"error: {splits}: 'train' must be a list of instance id strings\n"
    )


@pytest.mark.parametrize("where", ["train", "dev", "test"])
def test_train_refuses_an_id_listed_twice_in_a_split_file(
    tmp_path, corpus_path, capsys, where
):
    args, splits, _ = train_args(tmp_path, corpus_path)
    payload = json.loads(splits.read_text(encoding="utf-8"))
    twice = payload["train"][0]
    payload[where].append(twice)  # in one list for "train", across two lists otherwise
    splits.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    ckpt = tmp_path / "model.json"
    assert run("train", *args, "--checkpoint", ckpt) == 1
    assert capsys.readouterr().err == (
        f"error: {splits}: instance id {twice!r} is listed twice (in 'train' and {where!r})\n"
    )
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_selecting_from_a_corpus_with_a_duplicate_id_names_it(
    tmp_path, corpus_path, capsys, command
):
    args, splits, _ = train_args(tmp_path, corpus_path)
    instances = load_corpus(corpus_path)
    twice = instances[2].id
    instances[7].id = twice
    save_corpus(instances, corpus_path)
    capsys.readouterr()
    out = tmp_path / "out.json"
    if command == "train":
        argv = ["train", *args, "--checkpoint", out]
    else:
        ckpt = tmp_path / "none.json"
        argv = ["predict", "--corpus", corpus_path, "--checkpoint", ckpt, "--splits", splits]
        argv += ["--out", out]
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {corpus_path}: instance id {twice!r} appears more than once\n"
    )
    assert not out.exists()


def test_predict_subset_needs_splits(tmp_path, corpus_path, capsys):
    out = tmp_path / "preds.jsonl"
    args = ["--corpus", corpus_path, "--checkpoint", tmp_path / "none.json", "--out", out]
    assert run("predict", *args, "--subset", "test") == 1
    assert capsys.readouterr().err == f"error: {corpus_path}: --subset test needs --splits\n"
    assert not out.exists()


def test_train_names_a_duplicate_embedding_token(tmp_path, corpus_path, capsys):
    args, _, _ = train_args(tmp_path, corpus_path)
    emb = tmp_path / "emb.txt"
    emb.write_text("a 0.1 0.2 0.3\nb 0.1 0.2 0.3\n\na 0.5 0.6 0.7\n", encoding="utf-8")
    capsys.readouterr()
    assert run("train", *args, "--embeddings", emb, "--checkpoint", tmp_path / "m.json") == 1
    assert capsys.readouterr().err == (
        f"error: {emb}: line 4: duplicate token 'a' (first on line 1)\n"
    )


def embedding_file(tmp_path, corpus_path, width):
    """A text embedding file of ``width`` components for every corpus token."""
    vocab = sorted({tok for inst in load_corpus(corpus_path) for tok in inst.tokens})
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(f"{tok}{' 0.1' * width}\n" for tok in vocab), encoding="utf-8")
    return emb


def test_train_records_the_width_of_the_embeddings_file(tmp_path, corpus_path):
    args, _, config = train_args(tmp_path, corpus_path)
    config.write_text(json.dumps({"hidden_dim": 3, "max_epochs": 1, "patience": 1}), "utf-8")
    ckpt = tmp_path / "m.json"
    emb = embedding_file(tmp_path, corpus_path, 5)
    assert run("train", *args, "--embeddings", emb, "--checkpoint", ckpt) == 0
    header = checkpoint_header(ckpt)
    shapes = dict(header["arrays"])
    assert header["config"]["embedding_dim"] == shapes["embedding"][1] == 5
    assert load_checkpoint(ckpt).model.config.embedding_dim == 5


def test_train_refuses_a_config_width_other_than_the_embeddings(tmp_path, corpus_path, capsys):
    args, _, config = train_args(tmp_path, corpus_path)  # the config names embedding_dim 4
    ckpt = tmp_path / "m.json"
    emb = embedding_file(tmp_path, corpus_path, 5)
    capsys.readouterr()
    assert run("train", *args, "--embeddings", emb, "--checkpoint", ckpt) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: embedding_dim 4 does not match the 5 components per vector of {emb}\n"
    )
    assert not ckpt.exists()


@pytest.mark.parametrize("flag", ["--trees", "--embeddings"])
def test_a_file_that_is_not_utf8_is_named_with_its_line(tmp_path, corpus_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a 0.1\n\xff\xfe\n")
    if flag == "--trees":
        argv = ["clauses", "extract", "--corpus", corpus_path, "--out", tmp_path / "out.jsonl"]
    else:
        args, _, _ = train_args(tmp_path, corpus_path)
        argv = ["train", *args, "--checkpoint", tmp_path / "m.json"]
    capsys.readouterr()
    assert run(*argv, flag, bad) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 2: not UTF-8 text\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"a,b\n1,2,3\n", "line 2: 3 cells, but the header has 2"),
        (b"\na,b\n1,2\n3,4,5,6\n", "line 4: 4 cells, but the header has 2"),
        (b"a,b\n\xff,2\n", "line 2: not UTF-8 text"),
        (b"a,b,c\n1,2\n", "line 2: 2 cells, but the header has 3"),
        pytest.param(
            b'a,b\n"' + b"x" * 200_000 + b'",2\n',
            "line 2: field larger than field limit (131072)",
            id="a-200000-character-cell",
        ),
    ],
)
def test_report_on_a_bad_csv_exits_one_naming_its_line(tmp_path, capsys, content, message):
    bad = tmp_path / "stats.csv"
    bad.write_bytes(content)
    out = tmp_path / "report.md"
    assert run("report", "--stats", bad, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


GOOD_STATS = format_stats_csv({"synthetic": compute_stats(generate_synthetic(8, seed=1))})


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_report_on_a_damaged_csv_exits_zero_or_one_with_one_error_line(tmp_path_factory, data):
    stats = tmp_path_factory.getbasetemp() / "damaged_stats.csv"
    stats.write_bytes(data.draw(damaged_bytes(GOOD_STATS.encode("utf-8"))))
    out = tmp_path_factory.getbasetemp() / "damaged_report.md"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run("report", "--stats", stats, "--out", out)
    if code == 1:
        message = err.getvalue()
        assert message.startswith(f"error: {stats}: ") and message.count("\n") == 1
        assert not out.exists()
    else:
        assert code == 0 and err.getvalue() == "" and out.exists()


FREE_TEXT_NAME = 'news, 2019 "late" | a\nb'
CR_NAME = "plain\rtext"  # quoted for its lone \r alone


def test_free_text_names_round_trip_through_every_table_and_the_report(tmp_path):
    instances = generate_synthetic(12, seed=4)
    for k, inst in enumerate(instances):
        inst.dataset = FREE_TEXT_NAME if k % 2 else CR_NAME
        inst.pred_iob = inst.iob
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(instances, corpus)
    model = "sl,v2"
    paths = {name: tmp_path / f"{name}.csv" for name in ("stats", "clause_eval", "eval", "errors")}
    assert run("stats", "--corpus", corpus, "--out", paths["stats"]) == 0
    assert run("clauses", "eval", "--corpus", corpus, "--out", paths["clause_eval"]) == 0
    for command in ("eval", "errors"):
        assert run(command, "--corpus", corpus, "--model", model, "--out", paths[command]) == 0
    tables = {}
    for name, path in paths.items():
        with open(path, encoding="utf-8", newline="") as handle:
            tables[name] = list(csv.reader(handle))
    for name, rows in tables.items():
        assert [len(row) for row in rows] == [len(rows[0])] * len(rows), name
    names = sorted([CR_NAME, FREE_TEXT_NAME])
    assert [row[0] for row in tables["stats"][1:]] == names
    assert [row[0] for row in tables["clause_eval"][1:]] == names
    assert {(row[0], row[1]) for row in tables["eval"][1:]} == {(n, model) for n in names}
    assert tables["errors"][0] == ["error_type"] + [f"{model}/{n}" for n in names]

    report = tmp_path / "report.md"
    argv = ["--stats", paths["stats"], "--eval", paths["eval"], "--errors", paths["errors"]]
    assert run("report", *argv, "--out", report) == 0
    text = report.read_text(encoding="utf-8")
    assert 'news, 2019 "late" \\| a b' in text and "| plain text " in text
    assert all(ln == "" or ln.startswith(("#", "|")) for ln in text.splitlines())
    # one Markdown line per CSV row, plus the rule under each header, with unescaped
    # bars only between cells
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    expected = []
    for name in ("stats", "eval", "errors"):
        expected += [len(tables[name][0])] * (len(tables[name]) + 1)
    assert [len(re.split(r"(?<!\\)\|", ln)) - 2 for ln in lines] == expected


def test_train_with_nan_embedding_exits_one_without_checkpoint(tmp_path, corpus_path, capsys):
    splits = tmp_path / "splits.json"
    run("split", "--corpus", corpus_path, "--seed", 2, "--out", splits)
    vocab = sorted({tok for inst in load_corpus(corpus_path) for tok in inst.tokens})
    rows = [f"{tok} {' '.join(['0.1'] * 4)}" for tok in vocab]
    rows[0] = f"{vocab[0]} nan 0.1 0.1 0.1"
    emb = tmp_path / "emb.txt"
    emb.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"embedding_dim": 4, "hidden_dim": 3, "max_epochs": 1, "patience": 1}),
        encoding="utf-8",
    )
    ckpt = tmp_path / "model.json"
    args = ["--corpus", corpus_path, "--splits", splits, "--embeddings", emb, "--config", config]
    capsys.readouterr()
    assert run("train", *args, "--arch", "sl", "--checkpoint", ckpt) == 1
    assert capsys.readouterr().err == f"error: {emb}: line 1: non-finite component\n"
    assert not ckpt.exists()


def test_train_that_diverges_exits_one_without_checkpoint(tmp_path, corpus_path, capsys):
    args, _, config = train_args(tmp_path, corpus_path)
    settings = json.loads(config.read_text(encoding="utf-8"))
    config.write_text(json.dumps({**settings, "learning_rate": 1e308}), encoding="utf-8")
    ckpt = tmp_path / "model.json"
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("train", *args, "--checkpoint", ckpt) == 1
    assert "error: training diverged at epoch 1, batch " in capsys.readouterr().err
    assert not ckpt.exists()
