"""Corpus data model, JSON-lines I/O, IOB/span conversion and statistics.

The canonical corpus format is one JSON object per line with the fields
``id``, ``dataset``, ``tokens``, ``iob`` and the optional fields ``clauses``
(list of ``{"start", "end", "stimulus"}``), ``parse`` (bracketed constituency
tree), ``emotion``, and the prediction fields ``pred_iob`` / ``pred_clauses``
which mirror their gold counterparts but are never written by annotation
tools, only by model prediction.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import astuple, dataclass, fields
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

IOB_LABELS = ("B", "I", "O")
_IOB_SET = frozenset(IOB_LABELS)


class CorpusError(ValueError):
    """Malformed corpus file or annotation violating a format invariant."""


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """Half-open token interval ``[start, end)``, 0-based."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise CorpusError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True, slots=True)
class ClauseAnnotation:
    span: Span
    is_stimulus: bool = False


@dataclass
class Instance:
    """One annotated text: tokens, IOB stimulus labels, optional clause layer."""

    id: str
    dataset: str
    tokens: list[str]
    iob: list[str]
    clauses: list[ClauseAnnotation] | None = None
    parse: str | None = None
    emotion: str | None = None
    pred_iob: list[str] | None = None
    pred_clauses: list[ClauseAnnotation] | None = None

    def validate(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise CorpusError("field 'id' must be a non-empty string")
        if not isinstance(self.dataset, str) or not self.dataset:
            raise CorpusError("field 'dataset' must be a non-empty string")
        if not self.tokens or not all(map(isinstance, self.tokens, repeat(str))):
            raise CorpusError("field 'tokens' must be a non-empty list of strings")
        self._check_iob("iob", self.iob)
        if self.pred_iob is not None:
            self._check_iob("pred_iob", self.pred_iob)
        if self.clauses is not None:
            self._check_clauses("clauses", self.clauses)
        if self.pred_clauses is not None:
            self._check_clauses("pred_clauses", self.pred_clauses)

    def _check_iob(self, field: str, labels: Sequence[str]) -> None:
        if len(labels) != len(self.tokens):
            raise CorpusError(
                f"field '{field}' has {len(labels)} labels for {len(self.tokens)} tokens"
            )
        try:
            if _IOB_SET.issuperset(labels):
                return
        except TypeError:  # an unhashable label, which the loop below names
            pass
        for i, lab in enumerate(labels):
            if lab not in IOB_LABELS:
                raise CorpusError(f"field '{field}' has unknown label {lab!r} at position {i}")

    def _check_clauses(self, field: str, clauses: Sequence[ClauseAnnotation]) -> None:
        n = len(self.tokens)
        prev_start = prev_end = 0
        for k, cl in enumerate(clauses):
            sp = cl.span
            if sp.end > n:
                raise CorpusError(
                    f"field '{field}' clause {k} spans [{sp.start}, {sp.end}) "
                    f"but the instance has {n} tokens"
                )
            if sp.end <= prev_start:
                raise CorpusError(
                    f"field '{field}' clause {k} is out of order: it precedes clause {k - 1}"
                )
            if sp.start < prev_end:
                raise CorpusError(f"field '{field}' clause {k} overlaps its predecessor")
            prev_start, prev_end = sp.start, sp.end

    def stimulus_spans(self) -> list[Span]:
        return iob_to_spans(self.iob)


def iob_to_spans(iob: Sequence[str]) -> list[Span]:
    """Decode IOB labels into spans.

    ``B`` opens a span, ``I`` continues one, ``O`` closes.  An ``I`` without a
    preceding ``B``/``I`` is repaired by opening a span at that position.
    """
    spans: list[Span] = []
    start: int | None = None
    for i, lab in enumerate(iob):
        if lab == "B":
            if start is not None:
                spans.append(Span(start, i))
            start = i
        elif lab == "I":
            if start is None:
                start = i
        elif lab == "O":
            if start is not None:
                spans.append(Span(start, i))
                start = None
        else:
            raise CorpusError(f"unknown IOB label {lab!r} at position {i}")
    if start is not None:
        spans.append(Span(start, len(iob)))
    return spans


def check_spans(spans: Iterable[Span], n: int) -> list[Span]:
    """``spans`` in order, checked to be disjoint and to end within ``n`` tokens."""
    ordered = sorted(spans, key=attrgetter("start", "end"))
    prev_end = 0
    for sp in ordered:
        if sp.end > n:
            raise CorpusError(f"span [{sp.start}, {sp.end}) exceeds sequence length {n}")
        if sp.start < prev_end:
            raise CorpusError(f"span [{sp.start}, {sp.end}) overlaps another span")
        prev_end = sp.end
    return ordered


def spans_to_iob(spans: Iterable[Span], n: int) -> list[str]:
    """Encode disjoint spans over ``n`` tokens as IOB labels."""
    return checked_spans_to_iob(check_spans(spans, n), n)


def checked_spans_to_iob(spans: Iterable[Span], n: int) -> list[str]:
    """IOB labels of spans already known to be disjoint and to end within ``n`` tokens."""
    out = ["O"] * n
    for sp in spans:
        out[sp.start : sp.end] = ["B"] + ["I"] * (len(sp) - 1)
    return out


# ---------------------------------------------------------------------------
# JSON-lines I/O


def _field(obj: dict, field: str, kind: type):
    """``obj[field]`` if it is a ``kind``, None if it is absent or null."""
    value = obj.get(field)
    if value is not None and not isinstance(value, kind):
        raise CorpusError(f"field '{field}' must be a {'list' if kind is list else 'string'}")
    return value


def _clause_list(obj: dict, field: str, shared: dict) -> list[ClauseAnnotation] | None:
    """``obj[field]`` as clauses; ``shared`` maps each checked triple to its one annotation."""
    entries = _field(obj, field, list)
    if entries is None:
        return None
    clauses = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CorpusError(f"field '{field}' entry {k} must be an object")
        try:
            start, end = entry["start"], entry["end"]
        except KeyError as exc:
            raise CorpusError(f"field '{field}' entry {k} is missing key {exc}") from None
        if type(start) is not int or type(end) is not int:
            raise CorpusError(f"field '{field}' entry {k} has non-integer bounds")
        stimulus = entry.get("stimulus", False)
        if not isinstance(stimulus, bool):
            raise CorpusError(f"field '{field}' entry {k} has a non-boolean 'stimulus'")
        key = (start, end, stimulus)
        clause = shared.get(key)
        if clause is None:
            try:  # stored only once the span is valid
                clause = shared[key] = ClauseAnnotation(Span(start, end), stimulus)
            except CorpusError as exc:  # "invalid span [s, e)"
                raise CorpusError(f"field '{field}' entry {k} has {exc}") from None
        clauses.append(clause)
    return clauses


def _instance_from_obj(obj: dict, shared: dict) -> Instance:
    for field in ("id", "dataset", "tokens", "iob"):
        if field not in obj:
            raise CorpusError(f"missing required field '{field}'")
    for field in ("tokens", "iob"):
        if not isinstance(obj[field], list):
            raise CorpusError(f"field '{field}' must be a list")
    pred_iob = _field(obj, "pred_iob", list)
    inst = Instance(
        id=obj["id"],
        dataset=obj["dataset"],
        tokens=obj["tokens"],
        iob=obj["iob"],
        clauses=_clause_list(obj, "clauses", shared),
        parse=_field(obj, "parse", str),
        emotion=_field(obj, "emotion", str),
        pred_iob=pred_iob,
        pred_clauses=_clause_list(obj, "pred_clauses", shared),
    )
    inst.validate()  # first, so a non-string token fails with its own message
    inst.tokens = list(map(sys.intern, inst.tokens))  # one object per distinct token
    inst.dataset = sys.intern(inst.dataset)
    return inst


def not_utf8(path: str | Path) -> str:
    """``<path>: line N: not UTF-8 text``, N being the first line that does not decode.

    For the ``UnicodeDecodeError`` of a text reader, which decodes whole blocks
    ahead of the lines it returns, so the line is found in the bytes.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return f"{path}: line {lineno}: not UTF-8 text"
    return f"{path}: not UTF-8 text"


def load_corpus(path: str | Path) -> list[Instance]:
    """Read a JSON-lines corpus; errors name the file, the offending line and field.

    Within one call, equal clause entries (``clauses`` or ``pred_clauses``, on
    any line) load as one shared frozen ``ClauseAnnotation``. Token and
    ``dataset`` strings are interned, so equal ones are one object across
    calls and with ``parse_bracket``'s leaves; each instance owns its lists.
    """
    instances = []
    shared: dict[tuple[int, int, bool], ClauseAnnotation] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
                except (ValueError, RecursionError) as exc:  # a number too long, nesting too deep
                    raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc})") from None
                if not isinstance(obj, dict):
                    raise CorpusError(f"{path}: line {lineno}: record must be a JSON object")
                try:
                    instances.append(_instance_from_obj(obj, shared))
                except CorpusError as exc:
                    raise CorpusError(f"{path}: line {lineno}: {exc}") from None
    except UnicodeDecodeError:
        raise CorpusError(not_utf8(path)) from None
    return instances


def _clauses_to_obj(clauses: Sequence[ClauseAnnotation]) -> list[dict]:
    return [
        {"start": c.span.start, "end": c.span.end, "stimulus": c.is_stimulus} for c in clauses
    ]


def instance_to_obj(inst: Instance) -> dict:
    obj: dict = {
        "id": inst.id,
        "dataset": inst.dataset,
        "tokens": inst.tokens,
        "iob": inst.iob,
    }
    if inst.clauses is not None:
        obj["clauses"] = _clauses_to_obj(inst.clauses)
    if inst.parse is not None:
        obj["parse"] = inst.parse
    if inst.emotion is not None:
        obj["emotion"] = inst.emotion
    if inst.pred_iob is not None:
        obj["pred_iob"] = inst.pred_iob
    if inst.pred_clauses is not None:
        obj["pred_clauses"] = _clauses_to_obj(inst.pred_clauses)
    return obj


def save_corpus(instances: Iterable[Instance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for inst in instances:
            handle.write(json.dumps(instance_to_obj(inst), ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Splitting


def split_corpus(
    instances: Sequence[Instance], seed: int
) -> tuple[list[Instance], list[Instance], list[Instance]]:
    """Shuffle deterministically and split 80/10/10 (train/dev/test).

    Dev and test each get ``floor(n / 10)`` instances; the remainder goes to
    train.
    """
    items = list(instances)
    if len(items) < 10:
        raise CorpusError(f"cannot split a corpus of {len(items)} instances (need >= 10)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    shuffled = [items[i] for i in order]
    n_dev = len(items) // 10
    n_test = len(items) // 10
    dev = shuffled[:n_dev]
    test = shuffled[n_dev : n_dev + n_test]
    train = shuffled[n_dev + n_test :]
    return train, dev, test


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-level descriptive statistics.

    ``mu_len``/``sigma_len`` are the mean and population standard deviation
    of stimulus span lengths.  ``mu_s_per_i`` is the mean fraction of tokens
    per instance that are stimulus tokens; ``mu_s_per_c`` the mean fraction
    per clause.  ``mu_all_s_per_i`` is the mean number per instance of
    clauses whose every token is a stimulus token.  Clause fields are ``None``
    when no instance carries clause annotations.
    """

    size: int
    with_stimuli: int
    mu_len: float
    sigma_len: float
    mu_s_per_i: float
    mu_s_per_c: float | None
    clauses_total: int | None
    clauses_with_s: int | None
    mu_clauses_per_i: float | None
    mu_all_s_per_i: float | None


def compute_stats(instances: Iterable[Instance]) -> CorpusStats:
    insts = list(instances)
    if not insts:
        return CorpusStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)

    span_lengths: list[int] = []
    fractions: list[float] = []
    with_stimuli = 0
    for inst in insts:
        spans = iob_to_spans(inst.iob)
        if spans:
            with_stimuli += 1
        span_lengths.extend(len(s) for s in spans)
        fractions.append(sum(len(s) for s in spans) / len(inst.tokens))

    mu_len = float(np.mean(span_lengths)) if span_lengths else 0.0
    sigma_len = float(np.std(span_lengths)) if span_lengths else 0.0
    mu_s_per_i = float(np.mean(fractions))

    clause_insts = [inst for inst in insts if inst.clauses is not None]
    if not clause_insts:
        return CorpusStats(
            len(insts), with_stimuli, mu_len, sigma_len, mu_s_per_i, None, None, None, None, None
        )

    clause_fracs: list[float] = []
    clauses_with_s = 0
    fully_covered = 0
    for inst in clause_insts:
        stim = [lab != "O" for lab in inst.iob]
        for cl in inst.clauses:
            covered = stim[cl.span.start : cl.span.end]
            clause_fracs.append(sum(covered) / len(covered))
            if any(covered):
                clauses_with_s += 1
            if all(covered):
                fully_covered += 1
    return CorpusStats(
        size=len(insts),
        with_stimuli=with_stimuli,
        mu_len=mu_len,
        sigma_len=sigma_len,
        mu_s_per_i=mu_s_per_i,
        mu_s_per_c=float(np.mean(clause_fracs)) if clause_fracs else 0.0,
        clauses_total=len(clause_fracs),
        clauses_with_s=clauses_with_s,
        mu_clauses_per_i=len(clause_fracs) / len(clause_insts),
        mu_all_s_per_i=fully_covered / len(clause_insts),
    )


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``header`` and ``rows`` as CSV lines ending in ``\\n``: a cell is quoted only
    when it holds a comma, a double quote, ``\\n`` or ``\\r``, and ``None`` is an
    empty cell.  The writer ends each line in ``\\r\\n``, cut here to ``\\n``, because
    Python 3.11's writer quotes a ``\\r`` only when its line terminator holds one."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def format_stats_csv(stats_by_dataset: dict[str, CorpusStats]) -> str:
    """A header, then one row per dataset: its name and the ``CorpusStats``
    fields in declaration order, ``None`` as an empty cell."""
    header = ["dataset"] + [field.name for field in fields(CorpusStats)]
    rows = [[name, *astuple(stats_by_dataset[name])] for name in sorted(stats_by_dataset)]
    return csv_text(header, rows)


# ---------------------------------------------------------------------------
# Synthetic corpus


_SYNTHETIC_DATASET = "synthetic"
_SUBJECTS = ("riley", "jordan", "casey", "morgan", "avery", "quinn")
_VERBS = ("felt", "seemed", "looked", "sounded")
_ADJECTIVES = ("happy", "angry", "afraid", "sad", "surprised", "disgusted")
_EMOTIONS = ("joy", "anger", "fear", "sadness", "surprise", "disgust")  # one per adjective
_CONNECTIVES = ("because", "when", "after")
_FILLERS = (
    "the",
    "game",
    "rain",
    "crowd",
    "music",
    "letter",
    "was",
    "lost",
    "kept",
    "falling",
    "grew",
    "loud",
    "never",
    "came",
    "again",
    "slowly",
)


@dataclass(frozen=True)
class SyntheticGrammar:
    """Shape parameters of the synthetic stimulus corpus.

    Instances follow ``<subject> <verb> <adjective> [filler...]`` optionally
    continued by ``<connective> <filler...> .`` where the connective-led
    clause is the annotated stimulus.  ``lead_len`` bounds the tokens before
    the stimulus, three at least, and ``stimulus_len`` those of the stimulus
    clause, two at least (the connective and one more), which an instance has
    with probability ``stimulus_rate``.
    """

    stimulus_rate: float = 0.8
    lead_len: tuple[int, int] = (3, 6)
    stimulus_len: tuple[int, int] = (4, 8)

    def __post_init__(self) -> None:
        if not 0.0 <= self.stimulus_rate <= 1.0:
            raise ValueError(f"stimulus_rate must be in [0, 1], got {self.stimulus_rate!r}")
        for name, least in (("lead_len", 3), ("stimulus_len", 2)):
            low, high = getattr(self, name)
            if not least <= low <= high:
                raise ValueError(f"{name} must be (low, high) with {least} <= low <= high")


DEFAULT_GRAMMAR = SyntheticGrammar()


def _pick(rng: np.random.Generator, pool: Sequence[str]) -> str:
    return pool[int(rng.integers(0, len(pool)))]


def _pick_many(rng: np.random.Generator, pool: Sequence[str], k: int) -> list[str]:
    return [_pick(rng, pool) for _ in range(k)]


def _synthetic_parse(lead: Sequence[str], stimulus: Sequence[str]) -> str:
    extra = "".join(f" (X {w})" for w in lead[3:])
    parts = (
        f"(NP (NNP {lead[0]})) (VP (VBD {lead[1]}) (ADJP (JJ {lead[2]}){extra}))"
    )
    if stimulus:
        inner = " ".join(f"(X {w})" for w in stimulus[1:])
        parts += f" (SBAR (IN {stimulus[0]}) (S {inner}))"
    return f"(S {parts} (. .))"


def generate_synthetic(
    n: int, seed: int, grammar: SyntheticGrammar = DEFAULT_GRAMMAR
) -> list[Instance]:
    """Generate ``n`` deterministic template instances with gold clauses and parses."""
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        emo_idx = int(rng.integers(0, len(_ADJECTIVES)))
        lead_len = int(rng.integers(grammar.lead_len[0], grammar.lead_len[1] + 1))
        lead = [
            _pick(rng, _SUBJECTS),
            _pick(rng, _VERBS),
            _ADJECTIVES[emo_idx],
        ] + _pick_many(rng, _FILLERS, lead_len - 3)
        has_stimulus = bool(rng.random() < grammar.stimulus_rate)
        if has_stimulus:
            stim_len = int(rng.integers(grammar.stimulus_len[0], grammar.stimulus_len[1] + 1))
            stimulus = [_pick(rng, _CONNECTIVES)] + _pick_many(rng, _FILLERS, stim_len - 1)
        else:
            stimulus = []
        tokens = lead + stimulus + ["."]
        p, m = len(lead), len(stimulus)
        iob = ["O"] * p + (["B"] + ["I"] * (m - 1) if m else []) + ["O"]
        clauses = [ClauseAnnotation(Span(0, p), False)]
        if m:
            clauses.append(ClauseAnnotation(Span(p, p + m), True))
        instances.append(
            Instance(
                id=f"syn-{i:04d}",
                dataset=_SYNTHETIC_DATASET,
                tokens=tokens,
                iob=iob,
                clauses=clauses,
                parse=_synthetic_parse(lead, stimulus),
                emotion=_EMOTIONS[emo_idx],
            )
        )
    return instances
