"""Acceptance suite: one test per release criterion, each with a time budget.

Every test reports a single ``ACCEPTANCE NN <name>: PASS/FAIL`` line in the
pytest terminal summary (see conftest) and fails if its runtime exceeds the
stated budget.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np
import pytest

import _acceptance_log
from _oracles import brute_force_log_partition, finite_difference, gradient_gap, naive_stats
from stimex.clause_extract import (
    clause_gaps,
    is_punct_only,
    join_segments,
    segments_from_gaps,
)
from stimex.cli import main as cli_main
from stimex.corpus import Instance, Span, compute_stats, generate_synthetic, iob_to_spans, save_corpus
from stimex.crf import (
    CrfParams,
    brute_force_decode,
    log_partition,
    nll_loss,
    viterbi_decode,
)
from stimex.error_analysis import ErrorType, classify_corpus, classify_gold
from stimex.evaluation import MatchMode, clause_prf, span_prf
from stimex.mapping import clauses_to_tokens, tokens_to_clauses
from stimex.models import (
    EmbeddingTable,
    IccModel,
    JccModel,
    SlModel,
    TrainConfig,
    clause_gold_flags,
    jcc_predict,
    sl_predict,
    train,
    vocabulary,
)
from stimex.nn import Parameter
from stimex.parsetree import parse_bracket


@contextlib.contextmanager
def criterion(num: int, name: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _acceptance_log.record(num, name, "FAIL", time.perf_counter() - start, limit)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit
    _acceptance_log.record(num, name, "PASS" if ok else "FAIL", elapsed, limit)
    assert ok, f"criterion {num} took {elapsed:.1f}s, budget {limit:.0f}s"


def test_01_clause_extraction_golden():
    with criterion(1, "clause extraction golden example", 1.0):
        tree = parse_bracket("(S (SBARQ (X a) (X b)) (N (X c)))")
        gaps = clause_gaps(tree)
        assert gaps == [0, 2, 3]
        segs = segments_from_gaps(gaps, ["a", "b", "c"])
        assert [segs.tokens[sp.start : sp.end] for sp in segs.segments] == [
            ("a", "b"),
            ("c",),
        ]


def test_02_crf_oracle_equivalence():
    with criterion(2, "CRF decode and partition match enumeration", 30.0):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            params = CrfParams("crf", 3)
            for p in params.parameters():
                p.data[...] = rng.standard_normal(p.data.shape)
            n = int(rng.integers(1, 9))
            u = rng.standard_normal((n, 3))
            path_v, score_v = viterbi_decode(u, params)
            path_b, score_b = brute_force_decode(u, params)
            assert score_v == score_b
            assert path_v == path_b
            assert abs(
                log_partition(u, params).item() - brute_force_log_partition(u, params)
            ) < 1e-9


def _check_grads(loss_fn, params, tol=1e-4):
    for p in params:
        p.grad = None
    loss_fn().backward()
    numeric = finite_difference(loss_fn, params)
    analytic = {
        p.name: p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
    }
    assert gradient_gap(analytic, numeric) < tol


def test_03_gradient_checks():
    with criterion(3, "gradients match finite differences", 120.0):
        cfg = TrainConfig(embedding_dim=4, hidden_dim=4, dropout_p=0.0)
        vocab = [f"w{i}" for i in range(8)]

        rng = np.random.default_rng(7)
        for _ in range(20):  # CRF negative log-likelihood
            params = CrfParams("crf", 3)
            for p in params.parameters():
                p.data[...] = rng.standard_normal(p.data.shape)
            n = int(rng.integers(1, 6))
            u = Parameter("u", rng.standard_normal((n, 3)))
            y = rng.integers(0, 3, size=n)
            _check_grads(lambda: nll_loss(u, [y], params), [u, *params.parameters()])

        def random_tokens(rng, n):
            return [vocab[int(k)] for k in rng.integers(0, len(vocab), size=n)]

        for draw in range(20):  # token sequence labeler
            rng = np.random.default_rng(100 + draw)
            emb = EmbeddingTable.random(vocab, 4, seed=draw)
            model = SlModel(emb, cfg, rng)
            n = int(rng.integers(1, 6))
            iob = ["O"] + [["B", "I", "O"][int(k)] for k in rng.integers(0, 3, size=n - 1)]
            inst = Instance("g", "d", random_tokens(rng, n), iob)
            _check_grads(lambda: model.loss(model.units([inst])), model.parameters())

        for draw in range(20):  # independent clause classifier
            rng = np.random.default_rng(200 + draw)
            emb = EmbeddingTable.random(vocab, 4, seed=draw)
            model = IccModel(emb, cfg, rng)
            unit = (random_tokens(rng, int(rng.integers(1, 6))), bool(rng.integers(0, 2)))
            _check_grads(lambda: model.loss([unit]), model.parameters())

        for draw in range(20):  # joint clause classifier
            rng = np.random.default_rng(300 + draw)
            emb = EmbeddingTable.random(vocab, 4, seed=draw)
            model = JccModel(emb, cfg, rng)
            n_clauses = int(rng.integers(1, 3))
            clauses = [random_tokens(rng, int(rng.integers(1, 3))) for _ in range(n_clauses)]
            flags = [bool(rng.integers(0, 2)) for _ in range(n_clauses)]
            _check_grads(lambda: model.loss([(clauses, flags)]), model.parameters())


def test_04_mapping_round_trip():
    with criterion(4, "task-formulation mapping round trips", 10.0):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            cuts = sorted(set(rng.integers(1, n, size=6).tolist())) if n > 1 else []
            bounds = [0] + cuts + [n]
            clauses = [Span(a, b) for a, b in zip(bounds, bounds[1:])]
            flags = [bool(rng.integers(0, 2)) for _ in clauses]
            # clause -> token -> clause is the identity on tilings
            assert tokens_to_clauses(clauses_to_tokens(flags, clauses, n), clauses) == flags
            # token -> clause -> token never loses a labeled token inside a clause
            iob = [["O", "B", "I"][int(k)] for k in rng.integers(0, 3, size=n)]
            back = clauses_to_tokens(tokens_to_clauses(iob, clauses), clauses, n)
            for sp in clauses:
                if any(lab != "O" for lab in iob[sp.start : sp.end]):
                    assert all(lab != "O" for lab in back[sp.start : sp.end])


def test_05_metric_hand_suite():
    with criterion(5, "evaluation metric hand suite and dominance", 10.0):
        identical = span_prf([[Span(4, 9)]], [[Span(4, 9)]], MatchMode.EXACT)
        assert (identical.precision, identical.recall, identical.f1) == (1.0, 1.0, 1.0)

        pred, gold = [[Span(3, 9)]], [[Span(4, 9)]]
        assert span_prf(pred, gold, MatchMode.EXACT).f1 == 0.0
        assert span_prf(pred, gold, MatchMode.RELAXED).f1 == 1.0
        assert span_prf(pred, gold, MatchMode.LEFT_EXACT).f1 == 0.0
        assert span_prf(pred, gold, MatchMode.RIGHT_EXACT).f1 == 1.0

        relaxed = span_prf([[Span(0, 2), Span(5, 6)]], [[Span(0, 3)]], MatchMode.RELAXED)
        assert relaxed.precision == pytest.approx(0.5)
        assert relaxed.recall == pytest.approx(1.0)
        assert relaxed.f1 == pytest.approx(2 / 3)

        rng = np.random.default_rng(5)
        for _ in range(500):
            def draw():
                rows = []
                for _ in range(int(rng.integers(1, 6))):
                    row = []
                    for _ in range(int(rng.integers(0, 4))):
                        a = int(rng.integers(0, 12))
                        row.append(Span(a, a + int(rng.integers(1, 5))))
                    rows.append(row)
                return rows

            pred = draw()
            gold = [
                [Span(int(a.start), int(a.end)) for a in row] for row in draw()[: len(pred)]
            ]
            while len(gold) < len(pred):
                gold.append([])
            exact = span_prf(pred, gold, MatchMode.EXACT).f1
            relaxed = span_prf(pred, gold, MatchMode.RELAXED).f1
            assert exact <= relaxed + 1e-12


def test_06_overfit_capability():
    with criterion(6, "models overfit a small synthetic corpus", 900.0):
        corpus = generate_synthetic(50, seed=123)
        emb = EmbeddingTable.random(vocabulary(corpus), 300, seed=0)
        cfg = TrainConfig(
            learning_rate=0.003,
            batch_size=10,
            dropout_p=0.5,
            max_epochs=200,
            patience=20,
            selection_metric="f1",
        )

        sl = train("sl", corpus, corpus, emb, cfg)
        pred = [iob_to_spans(sl_predict(sl, inst)) for inst in corpus]
        gold = [inst.stimulus_spans() for inst in corpus]
        sl_f1 = span_prf(pred, gold, MatchMode.EXACT).f1
        assert sl_f1 >= 0.95, f"sequence labeler exact span F1 {sl_f1:.3f}"

        icc = train("icc", corpus, corpus, emb, cfg)
        pred_flags = icc.model.predict(corpus)
        gold_flags = [clause_gold_flags(inst) for inst in corpus]
        icc_f1 = clause_prf(pred_flags, gold_flags).f1
        assert icc_f1 >= 0.95, f"independent clause classifier F1 {icc_f1:.3f}"

        jcc = train("jcc", corpus, corpus, emb, cfg)
        pred_flags = [jcc_predict(jcc, inst) for inst in corpus]
        jcc_f1 = clause_prf(pred_flags, gold_flags).f1
        assert jcc_f1 >= 0.95, f"joint clause classifier F1 {jcc_f1:.3f}"


def test_07_error_taxonomy_exhaustive():
    with criterion(7, "error taxonomy total and exhaustive", 10.0):
        rng = np.random.default_rng(99)
        for _ in range(100_000):
            gs = int(rng.integers(0, 12))
            gold = Span(gs, gs + int(rng.integers(1, 6)))
            preds = []
            for _ in range(int(rng.integers(0, 4))):
                ps = int(rng.integers(0, 15))
                preds.append(Span(ps, ps + int(rng.integers(1, 6))))
            overlapping = [p for p in preds if p.overlaps(gold)]
            etype = classify_gold(gold, overlapping)
            assert isinstance(etype, ErrorType)  # exactly one type fires

        fixture_gold, fixture_pred = [], []
        for g, p in [
            ([(10, 20)], [(10, 20)]),
            ([(10, 20)], [(10, 15)]),
            ([(10, 20)], [(10, 25)]),
            ([(10, 20)], [(5, 15)]),
            ([(10, 20)], [(5, 20)]),
            ([(10, 20)], [(15, 20)]),
            ([(10, 20)], [(15, 25)]),
            ([(10, 20)], [(12, 18)]),
            ([(10, 20)], [(5, 25)]),
            ([(10, 20)], [(10, 12), (15, 20)]),
            ([(10, 20)], []),
            ([], [(3, 6)]),
        ]:
            fixture_gold.append([Span(a, b) for a, b in g])
            fixture_pred.append([Span(a, b) for a, b in p])
        counts = classify_corpus(fixture_gold, fixture_pred)
        assert all(counts[t] == 1 for t in ErrorType)


def test_08_join_convergence():
    with criterion(8, "segment join terminates and is idempotent", 10.0):
        rng = np.random.default_rng(77)
        pool = ["word", "item", ",", ".", "--", "x", "verylongtoken"]
        for _ in range(10_000):
            n = int(rng.integers(1, 18))
            cuts = sorted(set(rng.integers(1, n, size=5).tolist())) if n > 1 else []
            gaps = [0] + cuts + [n]
            tokens = [pool[int(k)] for k in rng.integers(0, len(pool), size=n)]
            joined = join_segments(segments_from_gaps(gaps, tokens))
            # the SegmentList constructor re-validates the tiling invariant
            assert joined.segments[0].start == 0 and joined.segments[-1].end == n
            again = join_segments(joined)
            assert again.segments == joined.segments


def test_09_stats_oracle():
    with criterion(9, "corpus statistics match a naive recount", 10.0):
        rng = np.random.default_rng(13)
        for trial in range(100):
            corpus = generate_synthetic(int(rng.integers(0, 40)), seed=trial)
            got = compute_stats(corpus)
            want = naive_stats(corpus)
            for key, expected in want.items():
                value = getattr(got, key)
                if expected is None:
                    assert value is None, key
                else:
                    assert value == pytest.approx(expected, abs=1e-12), key


def test_10_cli_determinism(tmp_path):
    with criterion(10, "CLI pipeline is byte-identical across reruns", 300.0):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(generate_synthetic(50, seed=21), corpus)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_epochs": 3, "patience": 3}), encoding="utf-8")

        def run_pipeline(tag: str) -> dict[str, bytes]:
            base = tmp_path / tag
            base.mkdir()
            splits = base / "splits.json"
            ckpt = base / "model.json"
            preds = base / "preds.jsonl"
            eval_csv = base / "eval.csv"
            errors_csv = base / "errors.csv"
            steps = [
                ["split", "--corpus", str(corpus), "--seed", "7", "--out", str(splits)],
                [
                    "train",
                    "--corpus", str(corpus),
                    "--splits", str(splits),
                    "--arch", "sl",
                    "--config", str(config),
                    "--checkpoint", str(ckpt),
                ],
                [
                    "predict",
                    "--corpus", str(corpus),
                    "--checkpoint", str(ckpt),
                    "--splits", str(splits),
                    "--subset", "test",
                    "--out", str(preds),
                ],
                ["eval", "--corpus", str(preds), "--model", "sl", "--out", str(eval_csv)],
                ["errors", "--corpus", str(preds), "--model", "sl", "--out", str(errors_csv)],
            ]
            for argv in steps:
                assert cli_main(argv) == 0, argv[0]
            return {p.name: p.read_bytes() for p in (splits, ckpt, preds, eval_csv, errors_csv)}

        first = run_pipeline("run1")
        second = run_pipeline("run2")
        assert first["eval.csv"] == second["eval.csv"]
        assert first["errors.csv"] == second["errors.csv"]
        # the intermediate artifacts are deterministic too
        assert first == second
