"""Seeded input generators for the benchmark workloads.

``fixed_profile_corpus`` builds the train-short and predict-long inputs
from ``generate_synthetic`` with one fixed-length grammar per instance, so
every seed gets the same sentence lengths and only the words change: run
time then differs between seeds by machine noise, not by corpus size.
``deep_corpus`` builds the corpus-tools inputs: bracket parses that nest
``S``/``SBAR``/``SINV``/``SQ`` clauses several levels deep, with commas, of
at most ``MAX_TOKENS`` tokens, a gold clause layer and gold stimulus spans.
``with_predictions`` adds one model's predictions with perturbed boundaries.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from stimex import corpus
from stimex.corpus import ClauseAnnotation, Instance, Span, SyntheticGrammar

PROFILE_SEED = 20201014
# The predict-long grammar: mean ~31 tokens, at most 61.
LONG_GRAMMAR = SyntheticGrammar(lead_len=(3, 30), stimulus_len=(2, 30))

MAX_TOKENS = 80
MAX_DEPTH = 4

SUBJECTS = ("riley", "jordan", "casey", "morgan", "avery", "quinn")
DETS = ("the", "a", "every", "no")
NOUNS = ("rain", "crowd", "letter", "music", "game", "storm", "news", "friend", "city", "road")
VERBS = ("lost", "kept", "found", "heard", "missed", "broke", "sent", "saw", "felt")
ADVS = ("slowly", "again", "never", "suddenly")
COMPLEMENTIZERS = ("because", "when", "after", "although", "if", "that")
CONJUNCTIONS = ("and", "but", "so")
EMOTIONS = ("joy", "anger", "fear", "sadness", "surprise", "disgust")


def fixed_profile_corpus(
    n: int, seed: int, grammar: SyntheticGrammar = corpus.DEFAULT_GRAMMAR
) -> list[Instance]:
    """``n`` instances of ``grammar`` whose shapes do not depend on ``seed``.

    Lead length, stimulus length and stimulus presence are drawn from
    ``grammar`` with the fixed ``PROFILE_SEED``; ``generate_synthetic`` then
    fills each shape with words drawn from ``seed``.
    """
    profile = np.random.default_rng(PROFILE_SEED)
    out = []
    for i in range(n):
        lead = int(profile.integers(grammar.lead_len[0], grammar.lead_len[1] + 1))
        stim = int(profile.integers(grammar.stimulus_len[0], grammar.stimulus_len[1] + 1))
        shape = replace(
            grammar,
            stimulus_rate=float(profile.random() < grammar.stimulus_rate),
            lead_len=(lead, lead),
            stimulus_len=(stim, stim),
        )
        inst = corpus.generate_synthetic(1, seed * 1_000_003 + i, shape)[0]
        inst.id = f"syn-{i:04d}"
        out.append(inst)
    return out


class _Sentence:
    """Grows one tree left to right, recording clause-node leaf spans."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.tokens: list[str] = []
        self.clauses: list[Span] = []  # S/SINV/SQ nodes
        self.sbars: list[Span] = []  # SBAR nodes, complementizer included

    def pick(self, pool) -> str:
        return pool[int(self.rng.integers(0, len(pool)))]

    def room(self) -> bool:
        return len(self.tokens) < MAX_TOKENS - 20

    def leaf(self, tag: str, word: str) -> str:
        self.tokens.append(word)
        return f"({tag} {word})"

    def noun_phrase(self, subject: bool) -> str:
        if subject and self.rng.random() < 0.5:
            return f"(NP {self.leaf('NNP', self.pick(SUBJECTS))})"
        words = [self.leaf("DT", self.pick(DETS)), self.leaf("NN", self.pick(NOUNS))]
        return "(NP " + " ".join(words) + ")"

    def verb_phrase(self, depth: int) -> str:
        parts = [self.leaf("VBD", self.pick(VERBS))]
        if self.rng.random() < 0.7:
            parts.append(self.noun_phrase(subject=False))
        if self.rng.random() < 0.3:
            parts.append(f"(ADVP {self.leaf('RB', self.pick(ADVS))})")
        if depth < MAX_DEPTH and self.room() and self.rng.random() < 0.6:
            start = len(self.tokens)
            comp = self.leaf("IN", self.pick(COMPLEMENTIZERS))
            inner = self.clause(depth + 1, self.pick(("S", "S", "SINV", "SQ")))
            self.sbars.append(Span(start, len(self.tokens)))
            parts.append(f"(SBAR {comp} {inner})")
        return "(VP " + " ".join(parts) + ")"

    def clause(self, depth: int, label: str, final: bool = False) -> str:
        start = len(self.tokens)
        if label == "SQ":
            parts = [self.leaf("MD", "did"), self.noun_phrase(True), self.verb_phrase(depth)]
        elif label == "SINV":
            parts = [self.verb_phrase(depth), self.noun_phrase(True)]
        else:
            parts = [self.noun_phrase(True), self.verb_phrase(depth)]
        if depth < MAX_DEPTH and self.room() and self.rng.random() < 0.45:
            parts.append(self.leaf(",", ","))
            parts.append(self.leaf("CC", self.pick(CONJUNCTIONS)))
            parts.append(self.clause(depth + 1, "S"))
        if final:
            parts.append(self.leaf(".", "."))
        self.clauses.append(Span(start, len(self.tokens)))
        return f"({label} " + " ".join(parts) + ")"


def _segments(bounds: set[int], n: int) -> list[Span]:
    points = sorted(b for b in bounds | {0, n} if 0 <= b <= n)
    return [Span(a, b) for a, b in zip(points, points[1:])]


def deep_instance(rng: np.random.Generator, ident: str) -> Instance:
    sent = _Sentence(rng)
    parse = sent.clause(0, "S", final=True)
    n = len(sent.tokens)
    # Stimuli: up to two disjoint SBAR clauses, else occasionally a random span.
    stimuli: list[Span] = []
    for k in rng.permutation(len(sent.sbars)):
        sp = sent.sbars[k]
        if len(stimuli) < 2 and not any(sp.overlaps(s) for s in stimuli) and rng.random() < 0.7:
            stimuli.append(sp)
    if not stimuli and rng.random() < 0.5:
        a = int(rng.integers(0, n - 1))
        stimuli.append(Span(a, int(rng.integers(a + 1, n))))
    iob = corpus.spans_to_iob(stimuli, n)
    bounds = {b for sp in sent.clauses + sent.sbars for b in (sp.start, sp.end)}
    clauses = [
        ClauseAnnotation(sp, any(lab != "O" for lab in iob[sp.start : sp.end]))
        for sp in _segments(bounds, n)
    ]
    return Instance(
        id=ident,
        dataset="deep",
        tokens=sent.tokens,
        iob=iob,
        clauses=clauses,
        parse=parse,
        emotion=EMOTIONS[int(rng.integers(0, len(EMOTIONS)))],
    )


def deep_corpus(n: int, seed: int) -> list[Instance]:
    rng = np.random.default_rng(seed)
    return [deep_instance(rng, f"deep-{i:05d}") for i in range(n)]


def _perturb(gold: Span, n: int, rng: np.random.Generator) -> list[Span]:
    """One gold span's predictions, drawn across every boundary-error type."""
    s, e = gold.start, gold.end
    k = int(rng.integers(1, 4))
    kind = int(rng.integers(0, 11))
    candidates = [
        [(s, e)],  # true positive
        [(s, e - k)],  # early stop
        [(s, e + k)],  # late stop
        [(s - k, e - k)],  # early start and stop
        [(s - k, e)],  # early start
        [(s + k, e)],  # late start
        [(s + k, e + k)],  # late start and stop
        [(s + 1, e - 1)],  # contained
        [(s - k, e + k)],  # surrounded
        [(s, (s + e) // 2), ((s + e) // 2 + 1, e)],  # multiple
        [],  # false negative
    ][kind]
    out = [Span(a, b) for a, b in candidates if 0 <= a < b <= n]
    return out if len(out) == len(candidates) else [gold]


def _disjoint(spans: list[Span]) -> list[Span]:
    kept: list[Span] = []
    for sp in sorted(spans):
        if not kept or sp.start >= kept[-1].end:
            kept.append(sp)
    return kept


def with_predictions(instances: list[Instance], arch: str, seed: int) -> list[Instance]:
    """Copies of ``instances`` carrying ``arch``-style predictions.

    ``sl`` gets ``pred_iob`` with perturbed span boundaries plus occasional
    false positives; ``icc`` flips clause flags independently; ``jcc`` shifts
    a stimulus flag onto a neighbouring clause.
    """
    rng = np.random.default_rng([seed, ("sl", "icc", "jcc").index(arch)])
    out = []
    for inst in instances:
        n = len(inst.tokens)
        copy = replace(inst)
        if arch == "sl":
            preds = [p for g in inst.stimulus_spans() for p in _perturb(g, n, rng)]
            if rng.random() < 0.2:
                a = int(rng.integers(0, n))
                preds.append(Span(a, min(n, a + int(rng.integers(1, 4)))))
            copy.pred_iob = corpus.spans_to_iob(_disjoint(preds), n)
        else:
            flags = [c.is_stimulus for c in inst.clauses]
            if arch == "icc":
                flags = [f != (rng.random() < 0.15) for f in flags]
            elif len(flags) > 1 and rng.random() < 0.4:
                k = int(rng.integers(0, len(flags) - 1))
                flags[k], flags[k + 1] = flags[k + 1], flags[k]
            copy.pred_clauses = [ClauseAnnotation(c.span, f) for c, f in zip(inst.clauses, flags)]
        out.append(copy)
    return out
