"""Stimulus detection models and their shared training loop.

Three architectures over frozen word embeddings:

* ``sl``  — token sequence labeling: BiLSTM, self-attention, linear
  projection, IOB CRF.
* ``icc`` — independent clause classification: BiLSTM + attention over one
  clause, mean-pooled, one hidden layer, softmax over {other, stimulus}.
* ``jcc`` — joint clause classification: a shared word-level BiLSTM yields
  one vector per clause, two stacked clause-level BiLSTMs and clause-level
  attention feed a 2-label clause CRF.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from stimex import crf
from stimex.corpus import IOB_LABELS, ClauseAnnotation, Instance, Span, iob_to_spans, not_utf8
from stimex.evaluation import MatchMode, clause_prf, span_prf
from stimex.mapping import tokens_to_clauses
from stimex.nn import (
    Adam,
    BiLstm,
    Linear,
    Parameter,
    Tensor,
    attention,
    concat,
    cross_entropy,
    dropout,
    segment_mean,
)

SELECTION_METRICS = ("accuracy", "f1")
CHECKPOINT_FORMAT = "stimex-checkpoint"
CHECKPOINT_VERSION = 3
_CONFIG_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.003
    batch_size: int = 10
    dropout_p: float = 0.5
    max_epochs: int = 50
    patience: int = 10
    embedding_dim: int = 300
    hidden_dim: int = 100
    seed: int = 0
    selection_metric: str = "accuracy"

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[field.type]):
                raise ValueError(f"{field.name} must be of type {field.type}, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValueError("patience must satisfy 1 <= patience <= max_epochs")
        if self.embedding_dim < 1 or self.hidden_dim < 1:
            raise ValueError("embedding_dim and hidden_dim must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.selection_metric not in SELECTION_METRICS:
            raise ValueError(f"selection_metric must be one of {SELECTION_METRICS}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        known = {field.name for field in fields(cls)}
        for key in obj:
            if key not in known:
                raise ValueError(f"unknown training config key {key!r}")
        return cls(**obj)


class EmbeddingTable:
    """Frozen token -> vector table; unknown tokens map to the zero vector."""

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise ValueError(
                f"matrix of shape {matrix.shape} does not match {len(tokens)} tokens"
            )
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in embedding vocabulary")
        self.tokens = list(tokens)
        self.matrix = matrix
        self.dim = int(matrix.shape[1])
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def lookup(self, tokens: Sequence[str]) -> Tensor:
        if not tokens:
            raise ValueError("cannot embed an empty token sequence")
        rows = np.zeros((len(tokens), self.dim))
        for k, tok in enumerate(tokens):
            i = self.index.get(tok)
            if i is not None:
                rows[k] = self.matrix[i]
        return Tensor(rows)

    @classmethod
    def load_text(cls, path: str | Path) -> "EmbeddingTable":
        """Read ``token v1 ... vd`` lines (whitespace-separated decimals)."""
        tokens: dict[str, int] = {}  # token -> the line it is on
        rows: list[list[float]] = []
        dim: int | None = None
        try:
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    parts = line.split()
                    if not parts:
                        continue
                    values = parts[1:]
                    if dim is None:
                        dim = len(values)
                        if dim == 0:
                            raise ValueError(f"{path}: line {lineno}: no vector components")
                    if len(values) != dim:
                        raise ValueError(
                            f"{path}: line {lineno}: expected {dim} components, found {len(values)}"
                        )
                    try:
                        rows.append([float(v) for v in values])
                    except ValueError:
                        raise ValueError(f"{path}: line {lineno}: non-numeric component") from None
                    if parts[0] in tokens:
                        raise ValueError(
                            f"{path}: line {lineno}: duplicate token {parts[0]!r}"
                            f" (first on line {tokens[parts[0]]})"
                        )
                    tokens[parts[0]] = lineno
        except UnicodeDecodeError:
            raise ValueError(not_utf8(path)) from None
        if dim is None:
            raise ValueError(f"{path}: empty embedding file")
        return cls(list(tokens), np.array(rows))

    @classmethod
    def random(cls, tokens: Sequence[str], dim: int, seed: int) -> "EmbeddingTable":
        """Deterministic random table for corpora without pretrained vectors."""
        uniq = list(dict.fromkeys(tokens))
        rng = np.random.default_rng(seed)
        return cls(uniq, rng.normal(0.0, 0.3, size=(len(uniq), dim)))


def vocabulary(instances: Sequence[Instance]) -> list[str]:
    """Corpus token types in first-seen order."""
    return list(dict.fromkeys(tok for inst in instances for tok in inst.tokens))


# ---------------------------------------------------------------------------
# Clause units


def clause_spans(instance: Instance) -> list[Span]:
    if not instance.clauses:
        raise ValueError(f"instance {instance.id!r} has no clause annotations")
    return [c.span for c in instance.clauses]


def clause_gold_flags(instance: Instance) -> list[bool]:
    """Gold clause flags derived from the token labels via the mapping."""
    return tokens_to_clauses(instance.iob, clause_spans(instance))


def clause_token_lists(instance: Instance) -> list[list[str]]:
    return [instance.tokens[sp.start : sp.end] for sp in clause_spans(instance)]


# ---------------------------------------------------------------------------
# Architectures
#
# Each model's ``loss`` runs every layer once over a mini-batch of units,
# packed as consecutive rows (see ``Lstm.states``): the encoders, attention,
# dropout and the projections.  One (N, d) dropout draw yields the numbers
# that per-unit (n_r, d) draws would, in unit order.  The CRF models hand the
# projection's packed rows to ``crf.nll_loss``, the loss of the whole batch
# as one node; ``icc`` pools each clause's rows and takes one cross-entropy
# node over the batch.  ``predict`` runs the same forward pass without
# dropout over chunks of ``config.batch_size`` instances, then decodes each
# unit: Viterbi for the CRF models, the argmax of the two logits for ``icc``.


def _flat(token_lists: Sequence[Sequence[str]]) -> list[str]:
    return [tok for toks in token_lists for tok in toks]


def _viterbi_paths(
    emissions: Tensor, lengths: Sequence[int], params: crf.CrfParams
) -> list[list[int]]:
    """Best label path of each of the packed sequences, decoded one by one."""
    blocks = np.split(emissions.data, np.cumsum(lengths[:-1]))
    return [crf.viterbi_decode(u, params)[0] for u in blocks]


def _chunks(items: Sequence, size: int) -> list[Sequence]:
    """Consecutive slices of ``items``, ``size`` long but for the last."""
    return [items[k : k + size] for k in range(0, len(items), size)]


def _encode(
    encoder: BiLstm, embeddings: EmbeddingTable, token_lists: Sequence[Sequence[str]]
) -> tuple[Tensor, list[int]]:
    """Packed (N, 2h) BiLSTM states of the token lists, and their lengths."""
    lengths = [len(toks) for toks in token_lists]
    return encoder(embeddings.lookup(_flat(token_lists)), lengths), lengths


def _stimulus_flags(logits: Tensor) -> list[bool]:
    """Whether each row of (R, 2) logits classifies its clause as a stimulus."""
    return (np.argmax(logits.data, axis=1) == 1).tolist()


class Model:
    """What ``train``, ``stimex predict`` and the checkpoints use of a model.

    Besides ``parameters`` and ``loss``, the summed loss of a mini-batch, a
    model has ``units``, the training units its ``loss`` takes, built from
    instances; ``predict``, each instance's labels in the model's own unit
    (IOB labels or clause flags); ``gold`` and ``f1``, the gold labels in
    that unit and their F1 score; and ``store_prediction``, which puts labels
    on an instance.  ``rng=None`` leaves the weights uninitialised, for a
    checkpoint to fill.
    """

    architecture: str

    def __init__(self, embeddings: EmbeddingTable, config: TrainConfig):
        self.embeddings = embeddings
        self.config = config

    def dev_score(self, instances: Sequence[Instance], metric: str) -> float:
        """The selection ``metric`` on ``instances``: label accuracy or F1."""
        preds = self.predict(instances)
        golds = [self.gold(inst) for inst in instances]
        if metric == "accuracy":
            correct = sum(p == g for ps, gs in zip(preds, golds) for p, g in zip(ps, gs))
            return correct / sum(len(g) for g in golds)
        return self.f1(preds, golds)


class SlModel(Model):
    architecture = "sl"

    def __init__(
        self, embeddings: EmbeddingTable, config: TrainConfig, rng: np.random.Generator | None
    ):
        super().__init__(embeddings, config)
        h = config.hidden_dim
        self.encoder = BiLstm("encoder", embeddings.dim, h, rng)
        self.project = Linear("project", 4 * h, len(IOB_LABELS), rng)
        self.crf = crf.CrfParams("crf", len(IOB_LABELS))

    def parameters(self) -> list[Parameter]:
        return self.encoder.parameters() + self.project.parameters() + self.crf.parameters()

    def emissions(
        self, token_lists: Sequence[Sequence[str]], training: bool = False, rng=None
    ) -> tuple[Tensor, list[int]]:
        """Packed (N, 3) emission scores of the sentences, and their lengths."""
        h, lengths = _encode(self.encoder, self.embeddings, token_lists)
        x = dropout(attention(h, lengths), self.config.dropout_p, training, rng)
        return self.project(x), lengths

    def loss(self, units: Sequence[Instance], training: bool = True, rng=None) -> Tensor:
        """Summed CRF loss of a batch of instances."""
        emissions, _ = self.emissions([inst.tokens for inst in units], training, rng)
        labels = [[IOB_LABELS.index(lab) for lab in inst.iob] for inst in units]
        return crf.nll_loss(emissions, labels, self.crf)

    def predict(self, instances: Sequence[Instance]) -> list[list[str]]:
        """IOB labels per instance."""
        return [
            [IOB_LABELS[i] for i in path]
            for chunk in _chunks(instances, self.config.batch_size)
            for path in _viterbi_paths(*self.emissions([inst.tokens for inst in chunk]), self.crf)
        ]

    def units(self, instances: Sequence[Instance]) -> list[Instance]:
        return list(instances)

    def gold(self, instance: Instance) -> list[str]:
        return instance.iob

    @staticmethod
    def f1(preds: Sequence[Sequence[str]], golds: Sequence[Sequence[str]]) -> float:
        """Exact-match span F1."""
        return span_prf(
            [iob_to_spans(p) for p in preds], [iob_to_spans(g) for g in golds], MatchMode.EXACT
        ).f1

    def store_prediction(self, instance: Instance, labels: list[str]) -> None:
        instance.pred_iob = labels


class _ClauseModel(Model):
    """The clause models' gold flags, clause F1 and ``pred_clauses``."""

    def gold(self, instance: Instance) -> list[bool]:
        return clause_gold_flags(instance)

    @staticmethod
    def f1(preds: Sequence[Sequence[bool]], golds: Sequence[Sequence[bool]]) -> float:
        return clause_prf(preds, golds).f1

    def store_prediction(self, instance: Instance, flags: list[bool]) -> None:
        spans = clause_spans(instance)
        instance.pred_clauses = [ClauseAnnotation(sp, f) for sp, f in zip(spans, flags)]


class IccModel(_ClauseModel):
    architecture = "icc"

    def __init__(
        self, embeddings: EmbeddingTable, config: TrainConfig, rng: np.random.Generator | None
    ):
        super().__init__(embeddings, config)
        h = config.hidden_dim
        self.encoder = BiLstm("encoder", embeddings.dim, h, rng)
        self.hidden = Linear("hidden", 4 * h, h, rng)
        self.out = Linear("out", h, 2, rng)

    def parameters(self) -> list[Parameter]:
        return self.encoder.parameters() + self.hidden.parameters() + self.out.parameters()

    def logits(
        self, clause_lists: Sequence[Sequence[str]], training: bool = False, rng=None
    ) -> Tensor:
        """(R, 2) class logits of R clauses, from one pass over the packed batch."""
        h, lengths = _encode(self.encoder, self.embeddings, clause_lists)
        s = segment_mean(attention(h, lengths), lengths)
        z = dropout(self.hidden(s), self.config.dropout_p, training, rng).relu()
        return self.out(z)

    def loss(
        self, units: Sequence[tuple[Sequence[str], bool]], training: bool = True, rng=None
    ) -> Tensor:
        """Summed cross-entropy of a batch of (clause tokens, flag) units."""
        logits = self.logits([toks for toks, _ in units], training, rng)
        return cross_entropy(logits, [int(flag) for _, flag in units])

    def units(self, instances: Sequence[Instance]) -> list[tuple[list[str], bool]]:
        """One (clause tokens, gold flag) unit per clause."""
        return [
            unit
            for inst in instances
            for unit in zip(clause_token_lists(inst), clause_gold_flags(inst))
        ]

    def predict(self, instances: Sequence[Instance]) -> list[list[bool]]:
        """Clause flags per instance, each clause classified on its own."""
        preds = []
        for chunk in _chunks(instances, self.config.batch_size):
            documents = [clause_token_lists(inst) for inst in chunk]
            flags = iter(_stimulus_flags(self.logits(_flat(documents))))
            preds += [list(itertools.islice(flags, len(doc))) for doc in documents]
        return preds


class JccModel(_ClauseModel):
    architecture = "jcc"

    def __init__(
        self, embeddings: EmbeddingTable, config: TrainConfig, rng: np.random.Generator | None
    ):
        super().__init__(embeddings, config)
        h = config.hidden_dim
        self.word_encoder = BiLstm("word_encoder", embeddings.dim, h, rng)
        self.clause_encoder1 = BiLstm("clause_encoder1", 2 * h, h, rng)
        self.clause_encoder2 = BiLstm("clause_encoder2", 2 * h, h, rng)
        self.project = Linear("project", 4 * h, 2, rng)
        self.crf = crf.CrfParams("crf", 2)

    def parameters(self) -> list[Parameter]:
        return (
            self.word_encoder.parameters()
            + self.clause_encoder1.parameters()
            + self.clause_encoder2.parameters()
            + self.project.parameters()
            + self.crf.parameters()
        )

    def emissions(
        self, documents: Sequence[Sequence[Sequence[str]]], training: bool = False, rng=None
    ) -> tuple[Tensor, list[int]]:
        """Packed (N, 2) clause emission scores of the documents (each a list of
        clause token lists), and their clause counts.

        The word encoder runs once over every clause of the batch and each
        clause encoder once over every document's clause sequence.
        """
        if not all(documents):
            raise ValueError("need at least one clause")
        clauses = _flat(documents)
        widths = [len(toks) for toks in clauses]
        h = self.config.hidden_dim
        words = self.word_encoder(self.embeddings.lookup(_flat(clauses)), widths)
        ends = np.cumsum(widths)
        # final forward state and first backward state of each clause
        vectors = concat([words[ends - 1, :h], words[ends - widths, h:]], axis=1)
        counts = [len(doc) for doc in documents]
        ms = self.clause_encoder2(self.clause_encoder1(vectors, counts), counts)
        x = dropout(attention(ms, counts), self.config.dropout_p, training, rng)
        return self.project(x), counts

    def loss(
        self,
        units: Sequence[tuple[Sequence[Sequence[str]], Sequence[bool]]],
        training: bool = True,
        rng=None,
    ) -> Tensor:
        """Summed clause-CRF loss of a batch of (clause token lists, flags) units."""
        emissions, _ = self.emissions([doc for doc, _ in units], training, rng)
        labels = [[int(f) for f in flags] for _, flags in units]
        return crf.nll_loss(emissions, labels, self.crf)

    def units(self, instances: Sequence[Instance]) -> list[tuple[list[list[str]], list[bool]]]:
        """One (clause token lists, gold flags) unit per instance."""
        return [(clause_token_lists(inst), clause_gold_flags(inst)) for inst in instances]

    def predict(self, instances: Sequence[Instance]) -> list[list[bool]]:
        """Clause flags per instance, decoded jointly."""
        return [
            [bool(i) for i in path]
            for chunk in _chunks(instances, self.config.batch_size)
            for path in _viterbi_paths(
                *self.emissions([clause_token_lists(inst) for inst in chunk]), self.crf
            )
        ]


MODELS: dict[str, type[Model]] = {cls.architecture: cls for cls in (SlModel, IccModel, JccModel)}
ARCHITECTURES = tuple(MODELS)


def _model_class(architecture: str) -> type[Model]:
    if architecture not in MODELS:
        raise ValueError(f"unknown architecture {architecture!r}; expected one of {ARCHITECTURES}")
    return MODELS[architecture]


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainedModel:
    architecture: str
    model: Model
    config: TrainConfig
    history: list[dict]


def _state_dict(model: Model) -> dict[str, np.ndarray]:
    return {p.name: p.data.copy() for p in model.parameters()}


def _load_state(model: Model, state: dict[str, np.ndarray]) -> None:
    params = {p.name: p for p in model.parameters()}
    if set(params) != set(state):
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        raise ValueError(f"parameter name mismatch: missing {missing}, unexpected {extra}")
    for name, p in params.items():
        arr = np.asarray(state[name], dtype=np.float64)
        if arr.shape != p.data.shape:
            raise ValueError(
                f"parameter {name!r} has shape {arr.shape}, expected {p.data.shape}"
            )
        p.data = arr.copy()


def train(
    architecture: str,
    train_instances: Sequence[Instance],
    dev_instances: Sequence[Instance],
    embeddings: EmbeddingTable,
    config: TrainConfig,
) -> TrainedModel:
    """Mini-batch Adam with early stopping on the dev selection metric.

    The returned model carries the parameters of the best dev epoch, not the
    last one.  Training stops once the metric has not improved for
    ``config.patience`` consecutive epochs.  A non-finite batch loss or
    gradient raises ``ValueError`` naming the epoch and batch, before the
    optimizer step that would spread it into the parameters.
    """
    model_class = _model_class(architecture)
    if not train_instances or not dev_instances:
        raise ValueError("train and dev splits must be non-empty")
    rng = np.random.default_rng(config.seed)
    model = model_class(embeddings, config, rng)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    units = model.units(train_instances)

    history: list[dict] = []
    best_metric = -np.inf
    best_state = _state_dict(model)
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(units))
        loss_sum = 0.0
        for k, batch in enumerate(_chunks(order, config.batch_size), start=1):
            total = model.loss([units[i] for i in batch], training=True, rng=rng)
            mean_loss = total * (1.0 / len(batch))
            where = f"epoch {epoch}, batch {k}"
            if not np.isfinite(total.data):
                raise ValueError(f"training diverged at {where}: batch loss is {total.item()}")
            optimizer.zero_grad()
            mean_loss.backward()
            for p in model.parameters():
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise ValueError(
                        f"training diverged at {where}: gradient of {p.name!r} is not finite"
                    )
            optimizer.step()
            loss_sum += float(total.data)
        metric = model.dev_score(dev_instances, config.selection_metric)
        history.append(
            {"epoch": epoch, "train_loss": loss_sum / len(units), "dev_metric": metric}
        )
        if metric > best_metric:
            best_metric = metric
            best_state = _state_dict(model)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    optimizer.zero_grad()  # the returned parameters carry no gradient arrays
    _load_state(model, best_state)
    return TrainedModel(architecture, model, config, history)


# ---------------------------------------------------------------------------
# Prediction entry points


def _unwrap(model: TrainedModel | Model) -> Model:
    return model.model if isinstance(model, TrainedModel) else model


def sl_predict(model: TrainedModel | SlModel, instance: Instance) -> list[str]:
    return _unwrap(model).predict([instance])[0]


def icc_predict(model: TrainedModel | IccModel, clause_tokens: Sequence[str]) -> bool:
    return _stimulus_flags(_unwrap(model).logits([clause_tokens]))[0]


def jcc_predict(model: TrainedModel | JccModel, instance: Instance) -> list[bool]:
    return _unwrap(model).predict([instance])[0]


# ---------------------------------------------------------------------------
# Checkpoints
#
# Version 3, the only one written or read, is one UTF-8 JSON header line
# followed by the payload: the row-major little-endian float64 bytes of every
# array the header's "arrays" list names, back to back. Versions 1 and 2 were
# one JSON document each; loading one fails with an error naming its version.


def save_checkpoint(trained: TrainedModel, path: str | Path) -> None:
    """Write ``trained`` to ``path`` through a temporary file, so a failed save leaves
    no partial file at ``path`` and keeps any checkpoint already there."""
    model = trained.model
    arrays = [("embedding", model.embeddings.matrix)]
    arrays += [(p.name, p.data) for p in model.parameters()]
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": trained.architecture,
        "config": trained.config.to_dict(),
        "history": trained.history,
        "vocab": model.embeddings.tokens,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, arr in arrays:
                handle.write(memoryview(np.ascontiguousarray(arr, "<f8")))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _shape(value) -> list[int]:
    if not isinstance(value, list) or not all(type(d) is int and d >= 0 for d in value):
        raise ValueError(f"'shape' must be a list of sizes, got {value!r}")
    return value


def _payload_arrays(header: dict, body: memoryview) -> dict[str, np.ndarray]:
    """Read-only views of a version-3 payload, keyed by name; sizes are checked first."""
    layout, offset = {}, 0
    for item in _entry(header, "arrays", list):
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
            raise ValueError(f"'arrays' entries must be [name, shape] pairs, got {item!r}")
        name, shape = item
        if name in layout:
            raise ValueError(f"'arrays' lists {name!r} twice")
        try:
            count = math.prod(_shape(shape))
        except ValueError as exc:
            raise ValueError(f"array {name!r}: {exc}") from None
        layout[name] = (shape, offset, count)
        offset += 8 * count
    size = len(body)
    if size > offset:
        raise ValueError(f"{size - offset} bytes follow the last array of 'arrays'")
    if size < offset:
        cut = next(n for n, (_, start, count) in layout.items() if start + 8 * count > size)
        raise ValueError(f"payload ends inside array {cut!r} ({size} of {offset} bytes)")
    arrays = {}
    for name, (shape, start, count) in layout.items():
        try:
            arrays[name] = np.frombuffer(body, "<f8", count, start).reshape(shape)
        except ValueError as exc:
            raise ValueError(f"array {name!r}: {exc}") from None
    return arrays


def _split_header(data: bytes) -> tuple[object, memoryview | None]:
    """The JSON value of a file's first line, and the payload after it (None
    when the file has no newline)."""
    newline = data.find(b"\n")
    end = len(data) if newline < 0 else newline
    try:
        header = json.loads(data[:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"the header line is not UTF-8 JSON ({exc})") from None
    return header, None if newline < 0 else memoryview(data)[newline + 1 :]


_JSON_KIND = {dict: "object", list: "array", str: "string"}


def _entry(payload: dict, key: str, kind: type):
    if key not in payload:
        raise ValueError(f"checkpoint has no {key!r} entry")
    value = payload[key]
    if not isinstance(value, kind):
        raise ValueError(f"{key!r} must be a JSON {_JSON_KIND[kind]}")
    return value


def _parse_checkpoint(data: bytes) -> TrainedModel:
    payload, body = _split_header(data)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a model checkpoint (format header missing or wrong)")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} (only version {CHECKPOINT_VERSION} is read)"
        )
    config_entry = _entry(payload, "config", dict)
    try:
        config = TrainConfig.from_dict(config_entry)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'config': {exc}") from None
    architecture = _entry(payload, "architecture", str)
    vocab = _entry(payload, "vocab", list)
    if not all(isinstance(tok, str) for tok in vocab):
        raise ValueError("'vocab' must be a list of strings")
    if body is None:
        raise ValueError("no payload after the version-3 header line")
    state = _payload_arrays(payload, body)
    if "embedding" not in state:
        raise ValueError("'arrays' has no 'embedding' entry")
    if 8 * config.hidden_dim**2 > sum(arr.size for arr in state.values()):
        # every model's BiLSTM has two (h, 4h) w_h arrays: refuse before allocating them
        raise ValueError(f"'config': hidden_dim {config.hidden_dim} does not fit the arrays")
    try:
        # a copy, so that the table owns its rows instead of viewing the file's bytes
        embeddings = EmbeddingTable(vocab, state.pop("embedding").copy())
    except ValueError as exc:
        raise ValueError(f"'embedding': {exc}") from None
    model = _model_class(architecture)(embeddings, config, None)
    _load_state(model, state)
    return TrainedModel(architecture, model, config, payload.get("history", []))


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Read a version-3 checkpoint; any defect, or an older version, raises
    ``ValueError`` naming ``path``."""
    try:
        return _parse_checkpoint(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
