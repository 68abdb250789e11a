"""The three benchmark workloads, driven through stimex's public API.

Each workload has a ``setup()`` that builds its inputs from the seed, a
``run()`` that executes the timed region once and returns a ``Round``, and a
``check()`` that verifies one round's outputs.  Timed seconds are wall-clock
``perf_counter`` seconds of a single-threaded process.  ``gc.collect()`` runs
before each timed part, outside its timing, so every part starts from the
same collector state whatever ran before it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
from stimex import clause_extract, corpus, error_analysis, evaluation, mapping, models, parsetree
from stimex.corpus import ClauseAnnotation, iob_to_spans
from stimex.crf import brute_force_decode, viterbi_decode
from stimex.evaluation import SPAN_MODES, MatchMode
from stimex.error_analysis import ErrorType

ARCHS = ("sl", "icc", "jcc")
IOB = frozenset("BIO")

TRAIN_INSTANCES = 50  # split 40/5/5
TRAIN_EPOCHS = 2
LONG_INSTANCES = 60
SETUP_TRAIN_INSTANCES = 20
DEEP_INSTANCES = 1500
ORACLE_SAMPLES = 12


@dataclass
class Round:
    """One execution of a workload's timed region."""

    seconds: dict[str, float]  # per part (architecture), timed
    units: int  # instances each part processes
    wall: float  # the whole timed region, collections between parts excluded
    instances: int  # instances through the whole timed region
    outputs: dict = field(default_factory=dict)


@dataclass
class Checked:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    digest: str = ""
    quality: dict = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(message)


def sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _predict(arch: str, trained, inst) -> list:
    """One instance's prediction, as ``stimex predict`` makes it."""
    if arch == "sl":
        return models.sl_predict(trained, inst)
    if arch == "icc":
        return [
            models.icc_predict(trained, inst.tokens[sp.start : sp.end])
            for sp in models.clause_spans(inst)
        ]
    return models.jcc_predict(trained, inst)


def _score(arch: str, preds: list, instances) -> float:
    """Exact span F1 (sl) or clause F1 (icc, jcc) of predictions."""
    if arch == "sl":
        gold = [inst.stimulus_spans() for inst in instances]
        return evaluation.span_prf([iob_to_spans(p) for p in preds], gold, MatchMode.EXACT).f1
    return evaluation.clause_prf(preds, [models.clause_gold_flags(i) for i in instances]).f1


class TrainShort:
    """``models.train`` + ``save_checkpoint`` for each architecture, paper config."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        instances = gen.fixed_profile_corpus(TRAIN_INSTANCES, self.seed)
        self.train, self.dev, self.test = corpus.split_corpus(instances, self.seed)
        self.config = models.TrainConfig(
            max_epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS, seed=self.seed
        )
        self.embeddings = models.EmbeddingTable.random(
            models.vocabulary(self.train), self.config.embedding_dim, self.seed
        )

    def run(self) -> Round:
        seconds, trained = {}, {}
        for arch in ARCHS:
            gc.collect()
            start = perf_counter()
            result = models.train(arch, self.train, self.dev, self.embeddings, self.config)
            models.save_checkpoint(result, self.workdir / f"{arch}.json")
            seconds[arch] = perf_counter() - start
            trained[arch] = result
        units = len(self.train) * TRAIN_EPOCHS
        return Round(seconds, units, sum(seconds.values()), units * len(ARCHS), trained)

    def check(self, rnd: Round, first: bool) -> Checked:
        out = Checked()
        histories = {}
        for arch, trained in rnd.outputs.items():
            losses = [h["train_loss"] for h in trained.history]
            histories[arch] = [[h["train_loss"], h["dev_metric"]] for h in trained.history]
            out.expect(
                len(losses) == TRAIN_EPOCHS
                and all(math.isfinite(v) for v in losses)
                and losses[-1] < losses[0],
                f"{arch}: epoch losses {losses} not finite and decreasing over {TRAIN_EPOCHS} epochs",
            )
            if first:
                preds = [_predict(arch, trained, inst) for inst in self.test]
                out.quality[arch] = _score(arch, preds, self.test)
        out.digest = sha256(histories)
        return out


class PredictLong:
    """``load_checkpoint`` + a prediction per long instance, per architecture."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.instances = gen.fixed_profile_corpus(LONG_INSTANCES, self.seed, gen.LONG_GRAMMAR)
        short = corpus.generate_synthetic(SETUP_TRAIN_INSTANCES, self.seed)
        train, dev, _ = corpus.split_corpus(short, self.seed)
        config = models.TrainConfig(max_epochs=1, patience=1, seed=self.seed)
        embeddings = models.EmbeddingTable.random(
            models.vocabulary(train), config.embedding_dim, self.seed
        )
        for arch in ARCHS:
            trained = models.train(arch, train, dev, embeddings, config)
            models.save_checkpoint(trained, self.workdir / f"{arch}.json")

    def run(self) -> Round:
        seconds, preds = {}, {}
        for arch in ARCHS:
            gc.collect()
            start = perf_counter()
            trained = models.load_checkpoint(self.workdir / f"{arch}.json")
            preds[arch] = [_predict(arch, trained, inst) for inst in self.instances]
            seconds[arch] = perf_counter() - start
            preds[f"{arch}.crf"] = getattr(trained.model, "crf", None)
        n = len(self.instances)
        return Round(seconds, n, sum(seconds.values()), n * len(ARCHS), preds)

    def check(self, rnd: Round, first: bool) -> Checked:
        out = Checked()
        for arch in ARCHS:
            for inst, pred in zip(self.instances, rnd.outputs[arch]):
                if arch == "sl":
                    ok = len(pred) == len(inst.tokens) and set(pred) <= IOB
                else:
                    ok = len(pred) == len(inst.clauses) and all(isinstance(f, bool) for f in pred)
                out.expect(ok, f"{arch}: invalid prediction {pred!r} for {inst.id}")
        if first:
            rng = np.random.default_rng(self.seed)
            for arch in ("sl", "jcc"):
                params = rnd.outputs[f"{arch}.crf"]
                for _ in range(ORACLE_SAMPLES):
                    u = rng.normal(0.0, 2.0, size=(int(rng.integers(1, 9)), params.num_labels))
                    path, score = viterbi_decode(u, params)
                    best, best_score = brute_force_decode(u, params)
                    out.expect(
                        path == best and abs(score - best_score) <= 1e-9 * max(1.0, abs(score)),
                        f"{arch}: viterbi {path} ({score}) != enumeration {best} ({best_score})",
                    )
            out.quality = {a: _score(a, rnd.outputs[a], self.instances) for a in ARCHS}
        out.digest = sha256({arch: rnd.outputs[arch] for arch in ARCHS})
        return out


def _pred_iob(inst) -> list[str]:
    if inst.pred_iob is not None:
        return inst.pred_iob
    return mapping.clauses_to_tokens(
        [c.is_stimulus for c in inst.pred_clauses],
        [c.span for c in inst.pred_clauses],
        len(inst.tokens),
    )


class CorpusTools:
    """The README's non-neural steps over a deep-parse corpus and three prediction files."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.corpus_path = workdir / "corpus.jsonl"

    def preds_path(self, arch: str) -> Path:
        return self.workdir / f"preds_{arch}.jsonl"

    def setup(self) -> None:
        instances = gen.deep_corpus(DEEP_INSTANCES, self.seed)
        corpus.save_corpus(instances, self.corpus_path)
        for arch in ARCHS:
            preds = gen.with_predictions(instances, arch, self.seed)
            corpus.save_corpus(preds, self.preds_path(arch))

    def run(self) -> Round:
        out: dict = {}
        gc.collect()
        start = perf_counter()
        # stats, clauses extract, clauses eval, split
        instances = corpus.load_corpus(self.corpus_path)
        out["stats"] = corpus.compute_stats(instances)
        trees = [parsetree.parse_bracket(inst.parse) for inst in instances]
        segs = [clause_extract.extract_clauses(tree) for tree in trees]
        extracted = [list(s.segments) for s in segs]
        annotated = [[c.span for c in inst.clauses] for inst in instances]
        stimuli = [inst.stimulus_spans() for inst in instances]
        out["alignment"] = (
            evaluation.clause_alignment(stimuli, annotated),
            evaluation.clause_match_prf(extracted, annotated),
            evaluation.clause_alignment(stimuli, extracted),
        )
        out["split"] = [[i.id for i in part] for part in corpus.split_corpus(instances, self.seed)]
        for inst, s in zip(instances, segs):
            inst.clauses = [ClauseAnnotation(sp, False) for sp in s.segments]
        corpus.save_corpus(instances, self.workdir / "with_clauses.jsonl")
        shared = perf_counter() - start
        out["instances"], out["trees"], out["segs"] = instances, trees, segs
        # eval and errors, once per model's predictions; each loads the file
        seconds = {}
        for arch in ARCHS:
            gc.collect()
            t = perf_counter()
            preds = corpus.load_corpus(self.preds_path(arch))
            gold = [inst.stimulus_spans() for inst in preds]
            pred = [iob_to_spans(_pred_iob(inst)) for inst in preds]
            prfs = [evaluation.span_prf(pred, gold, mode) for mode in SPAN_MODES]
            spans = [models.clause_spans(inst) for inst in preds]
            clause = evaluation.clause_prf(
                [mapping.tokens_to_clauses(_pred_iob(i), sp) for i, sp in zip(preds, spans)],
                [mapping.tokens_to_clauses(i.iob, sp) for i, sp in zip(preds, spans)],
            )
            preds = corpus.load_corpus(self.preds_path(arch))
            counts = error_analysis.classify_corpus(
                [inst.stimulus_spans() for inst in preds],
                [iob_to_spans(_pred_iob(inst)) for inst in preds],
            )
            seconds[arch] = perf_counter() - t
            out[arch] = (gold, pred, prfs, clause, counts)
        n = len(instances)
        return Round(seconds, n, shared + sum(seconds.values()), n, out)

    def check(self, rnd: Round, first: bool) -> Checked:
        out = Checked()
        o = rnd.outputs
        for inst, tree, segs in zip(o["instances"], o["trees"], o["segs"]):
            sp = segs.segments
            tiles = sp[0].start == 0 and sp[-1].end == len(inst.tokens) and all(
                a.end == b.start for a, b in zip(sp, sp[1:])
            )
            out.expect(
                tiles and parsetree.leaves(tree) == inst.tokens,
                f"{inst.id}: segments {segs.segments} do not tile the sentence",
            )
        for arch in ARCHS:
            gold, pred, prfs, clause, counts = o[arch]
            n_gold = sum(len(g) for g in gold)
            fp = sum(1 for g, p in zip(gold, pred) for s in p if not any(s.overlaps(x) for x in g))
            out.expect(
                sum(counts.values()) == n_gold + counts[ErrorType.FALSE_POSITIVE]
                and counts[ErrorType.FALSE_POSITIVE] == fp,
                f"{arch}: taxonomy counts {counts} do not cover {n_gold} gold + {fp} false positives",
            )
            if first:
                for mode in SPAN_MODES:
                    f1 = evaluation.span_prf(gold, gold, mode).f1
                    out.expect(f1 == 1.0, f"{arch}: span_prf(gold, gold, {mode.value}) = {f1}")
                out.quality[arch] = (prfs[0] if arch == "sl" else clause).f1
        if first:
            out.quality["clause_match"] = o["alignment"][1].f1
        digest_of = {arch: repr(o[arch][2:]) for arch in ARCHS}
        digest_of.update(stats=repr(o["stats"]), alignment=repr(o["alignment"]), split=o["split"])
        digest_of["segments"] = [[(sp.start, sp.end) for sp in s.segments] for s in o["segs"]]
        out.digest = sha256(digest_of)
        return out


WORKLOADS = {"train-short": TrainShort, "predict-long": PredictLong, "corpus-tools": CorpusTools}
