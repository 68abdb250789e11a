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
import operator
import os
import sys
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
CHECKPOINT_VERSION = 4
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
                    if not all(map(math.isfinite, rows[-1])):
                        raise ValueError(f"{path}: line {lineno}: non-finite component")
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
# packed as consecutive rows (see ``nn.layers._lstm``): the encoders, attention,
# dropout and the projections.  One (N, d) dropout draw yields the numbers
# that per-unit (n_r, d) draws would, in unit order.  The CRF models hand the
# projection's packed rows to ``crf.nll_loss``, the loss of the whole batch
# as one node; ``icc`` pools each clause's rows and takes one cross-entropy
# node over the batch.  ``predict`` runs the same forward pass without
# dropout over chunks of ``config.batch_size`` instances, then decodes each
# unit: Viterbi for the CRF models, the argmax of the two logits for ``icc``.


def _flat(token_lists: Sequence[Sequence[str]]) -> list[str]:
    return [tok for toks in token_lists for tok in toks]


def _chunks(items: Sequence, size: int) -> list[Sequence]:
    """Consecutive slices of ``items``, ``size`` long but for the last."""
    return [items[k : k + size] for k in range(0, len(items), size)]


class _ProjectionMemo:
    """A model's word-encoder input projections ``E[tok] @ w_x`` by the forward
    and backward directions, row ``index[tok]`` of ``rows``, filled in as tokens
    are first seen.  Unknown tokens share the key None and the zero row's
    projection.  Once the table or a ``w_x`` array is replaced, it starts over;
    ``loss`` and ``train`` empty it, as ``Adam`` and ``train`` write in place."""

    def __init__(self):
        self.source, self.index, self.rows = (None,) * 3, {}, np.empty(0)

    def __call__(self, embeddings: EmbeddingTable, encoder: BiLstm, tokens) -> np.ndarray:
        """(N, 2, 4h) input projections of ``tokens`` by the encoder's two directions."""
        source = (embeddings, *(w_x.data for w_x in encoder.w_x))
        if any(map(operator.is_not, source, self.source)):
            self.source, self.index, self.rows = source, {}, np.empty(0)
        keys = [tok if tok in embeddings.index else None for tok in tokens]
        new = [key for key in dict.fromkeys(keys) if key not in self.index]
        if new:
            # two rows at least: BLAS rounds a one-row product unlike a matrix product
            x = embeddings.lookup(new * 2 if len(new) == 1 else new).data
            n, m = len(self.index), len(new)
            if n + m > len(self.rows):  # doubling, so filling costs O(1) per row
                self.rows = np.resize(self.rows, (2 * (n + m), 2, 4 * encoder.hidden_dim))
            for d, w_x in enumerate(encoder.w_x):
                self.rows[n : n + m, d] = (x @ w_x.data)[:m]
            self.index.update(zip(new, range(n, n + m)))
        return self.rows[[self.index[key] for key in keys]]


def _encode(
    encoder: BiLstm, embeddings: EmbeddingTable, token_lists: Sequence[Sequence[str]], memo=None
) -> tuple[Tensor, list[int]]:
    """Packed (N, 2h) BiLSTM states of the token lists, and their lengths; with
    a ``memo``, from its input projections, as a leaf with no graph node."""
    lengths, tokens = [len(toks) for toks in token_lists], _flat(token_lists)
    if memo is None:
        return encoder(embeddings.lookup(tokens), lengths), lengths
    return encoder(memo(embeddings, encoder, tokens), lengths), lengths


def _stimulus_flags(logits: Tensor) -> list[bool]:
    """Whether each row of (R, 2) logits classifies its clause as a stimulus."""
    return (np.argmax(logits.data, axis=1) == 1).tolist()


class Model:
    """What ``train``, ``stimex predict`` and the checkpoints use of a model.

    Besides ``layers``, whose parameters are the model's, and ``loss``, the
    summed loss of a mini-batch, with dropout only when given an ``rng``, a
    model has ``units``, the training units its ``loss`` takes, built from
    instances; ``decode``, the labels of each instance of one chunk in the
    model's own unit (IOB labels or clause flags), which ``predict`` calls
    chunk by chunk; ``gold`` and ``f1``, the gold labels in that
    unit and their F1 score; and ``store_prediction``, which puts labels on an
    instance.  A constructor given ``rng=None`` leaves the weights
    uninitialised, for a checkpoint to fill.
    """

    architecture: str
    layers: tuple  # in checkpoint order

    def __init__(self, embeddings: EmbeddingTable, config: TrainConfig):
        self.embeddings = embeddings
        self.config = config
        self.memo = _ProjectionMemo()  # read by predict; emptied by loss and by train

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def predict(self, instances: Sequence[Instance]) -> list[list]:
        """Labels per instance, from ``decode`` of each chunk of ``batch_size`` instances."""
        chunks = _chunks(instances, self.config.batch_size)
        return [labels for chunk in chunks for labels in self.decode(chunk)]

    def dev_score(self, instances: Sequence[Instance], metric: str) -> float:
        """The selection ``metric`` on ``instances``: label accuracy or F1."""
        preds = self.predict(instances)
        golds = [self.gold(inst) for inst in instances]
        if metric == "accuracy":
            correct = sum(p == g for ps, gs in zip(preds, golds) for p, g in zip(ps, gs))
            return correct / sum(len(g) for g in golds)
        return self.f1(preds, golds)


class _CrfModel(Model):
    """A linear-chain CRF labeller (Lample et al. 2016): ``rows`` packs one row per
    element of each instance's ``input`` sequence (a token for ``sl``, a clause for
    ``jcc``); attention, dropout and ``project`` score each row's ``alphabet``."""

    alphabet: tuple

    def emissions(self, inputs: Sequence, rng=None, memo=None) -> tuple[Tensor, list[int]]:
        """Packed (N, L) emission scores of the inputs, and their lengths."""
        h, lengths = self.rows(inputs, memo)
        x = dropout(attention(h, lengths), self.config.dropout_p, rng)
        return self.project(x), lengths

    def units(self, instances: Sequence[Instance]) -> list[tuple]:
        """One (input, gold labels) unit per instance."""
        return [(self.input(inst), self.gold(inst)) for inst in instances]

    def loss(self, units: Sequence[tuple], rng=None) -> Tensor:
        """Summed CRF loss of a batch of (input, gold labels) units."""
        self.memo = _ProjectionMemo()  # a step after this writes w_x in place
        emissions, _ = self.emissions([x for x, _ in units], rng)
        labels = [[self.alphabet.index(y) for y in ys] for _, ys in units]
        return crf.nll_loss(emissions, labels, self.crf)

    def decode(self, chunk: Sequence[Instance]) -> list[list]:
        """Labels per instance of one chunk: each sequence Viterbi-decoded on its own."""
        emissions, lengths = self.emissions([self.input(inst) for inst in chunk], memo=self.memo)
        return [
            [self.alphabet[i] for i in crf.viterbi_decode(u, self.crf)[0]]
            for u in np.split(emissions.data, np.cumsum(lengths[:-1]))
        ]


class SlModel(_CrfModel):
    architecture = "sl"
    alphabet = IOB_LABELS

    def __init__(
        self, embeddings: EmbeddingTable, config: TrainConfig, rng: np.random.Generator | None
    ):
        super().__init__(embeddings, config)
        h = config.hidden_dim
        self.encoder = BiLstm("encoder", embeddings.dim, h, rng)
        self.project = Linear("project", 4 * h, len(IOB_LABELS), rng)
        self.crf = crf.CrfParams("crf", len(IOB_LABELS))
        self.layers = (self.encoder, self.project, self.crf)

    def input(self, instance: Instance) -> list[str]:
        return instance.tokens

    def rows(self, token_lists: Sequence[Sequence[str]], memo=None) -> tuple[Tensor, list[int]]:
        return _encode(self.encoder, self.embeddings, token_lists, memo)

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
        self.layers = (self.encoder, self.hidden, self.out)

    def logits(self, clause_lists: Sequence[Sequence[str]], rng=None, memo=None) -> Tensor:
        """(R, 2) class logits of R clauses, from one pass over the packed batch."""
        h, lengths = _encode(self.encoder, self.embeddings, clause_lists, memo)
        s = segment_mean(attention(h, lengths), lengths)
        z = dropout(self.hidden(s), self.config.dropout_p, rng).relu()
        return self.out(z)

    def loss(self, units: Sequence[tuple[Sequence[str], bool]], rng=None) -> Tensor:
        """Summed cross-entropy of a batch of (clause tokens, flag) units."""
        self.memo = _ProjectionMemo()  # a step after this writes w_x in place
        logits = self.logits([toks for toks, _ in units], rng)
        return cross_entropy(logits, [int(flag) for _, flag in units])

    def units(self, instances: Sequence[Instance]) -> list[tuple[list[str], bool]]:
        """One (clause tokens, gold flag) unit per clause."""
        return [
            unit
            for inst in instances
            for unit in zip(clause_token_lists(inst), clause_gold_flags(inst))
        ]

    def decode(self, chunk: Sequence[Instance]) -> list[list[bool]]:
        """Clause flags per instance of one chunk, each clause classified on its own."""
        documents = [clause_token_lists(inst) for inst in chunk]
        flags = iter(_stimulus_flags(self.logits(_flat(documents), memo=self.memo)))
        return [list(itertools.islice(flags, len(doc))) for doc in documents]


class JccModel(_CrfModel, _ClauseModel):
    architecture = "jcc"
    alphabet = (False, True)

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
        self.layers = (
            self.word_encoder,
            self.clause_encoder1,
            self.clause_encoder2,
            self.project,
            self.crf,
        )

    def input(self, instance: Instance) -> list[list[str]]:
        return clause_token_lists(instance)

    def rows(self, documents: Sequence, memo=None) -> tuple[Tensor, list[int]]:
        """Packed (N, 2h) clause-level states of the documents (each a list of
        clause token lists), and their clause counts.

        The word encoder runs once over every clause of the batch and each
        clause encoder once over every document's clause sequence.
        """
        if not all(documents):
            raise ValueError("need at least one clause")
        h = self.config.hidden_dim
        words, widths = _encode(self.word_encoder, self.embeddings, _flat(documents), memo)
        ends = np.cumsum(widths)
        # final forward state and first backward state of each clause
        vectors = concat([words[ends - 1, :h], words[ends - widths, h:]], axis=1)
        counts = [len(doc) for doc in documents]
        for encoder in (self.clause_encoder1, self.clause_encoder2):
            vectors = encoder(vectors, counts)
        return vectors, counts


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
    model: Model
    history: list[dict]


def _check_shapes(model: Model, shapes: dict[str, tuple]) -> None:
    """Raise unless ``shapes`` names every parameter of ``model``, and no other,
    with its shape."""
    own = {p.name: p.data.shape for p in model.parameters()}
    if set(own) != set(shapes):
        missing, extra = sorted(set(own) - set(shapes)), sorted(set(shapes) - set(own))
        raise ValueError(f"parameter name mismatch: missing {missing}, unexpected {extra}")
    for name, shape in own.items():
        if shapes[name] != shape:
            raise ValueError(f"parameter {name!r} has shape {shapes[name]}, expected {shape}")


def train(
    architecture: str,
    train_instances: Sequence[Instance],
    dev_instances: Sequence[Instance],
    embeddings: EmbeddingTable,
    config: TrainConfig,
) -> TrainedModel:
    """Mini-batch Adam with early stopping on the dev selection metric.

    The returned model carries the parameters of the best dev epoch, not the
    last one.  They are copied only when the first optimizer step after that
    epoch is about to overwrite them, into arrays allocated once and reused
    for each later best epoch, and copied back in place only if an epoch
    ran after the best one.  Training stops once the metric has not
    improved for ``config.patience`` consecutive epochs.  A non-finite batch
    loss or gradient raises ``ValueError`` naming the epoch and batch, before
    the optimizer step that would spread it into the parameters.
    """
    model_class = _model_class(architecture)
    if not train_instances or not dev_instances:
        raise ValueError("train and dev splits must be non-empty")
    if embeddings.dim != config.embedding_dim:
        raise ValueError(f"embedding_dim {config.embedding_dim}, embeddings {embeddings.dim} wide")
    rng = np.random.default_rng(config.seed)
    model = model_class(embeddings, config, rng)
    params = model.parameters()
    optimizer = Adam(params, lr=config.learning_rate)
    units = model.units(train_instances)

    history: list[dict] = []
    best_metric, best_epoch = -np.inf, 0
    copy, copy_epoch = None, 0  # the best epoch's weights, once a step would overwrite them
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(units))
        loss_sum = 0.0
        for k, batch in enumerate(_chunks(order, config.batch_size), start=1):
            total = model.loss([units[i] for i in batch], rng=rng)
            mean_loss = total * (1.0 / len(batch))
            where = f"epoch {epoch}, batch {k}"
            if not np.isfinite(total.data):
                raise ValueError(f"training diverged at {where}: batch loss is {total.item()}")
            optimizer.zero_grad()
            mean_loss.backward()
            for p in params:
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise ValueError(
                        f"training diverged at {where}: gradient of {p.name!r} is not finite"
                    )
            if copy_epoch != best_epoch:
                if copy is None:
                    copy = [p.data.copy() for p in params]
                else:
                    for c, p in zip(copy, params):
                        np.copyto(c, p.data)
                copy_epoch = best_epoch
            optimizer.step()
            loss_sum += float(total.data)
        metric = model.dev_score(dev_instances, config.selection_metric)
        history.append(
            {"epoch": epoch, "train_loss": loss_sum / len(units), "dev_metric": metric}
        )
        if metric > best_metric:  # a finite metric, so epoch 1 always is
            best_metric, best_epoch = metric, epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    optimizer.zero_grad()  # the returned parameters carry no gradient arrays
    if best_epoch != epoch:
        for c, p in zip(copy, params):
            np.copyto(p.data, c)
    model.memo = _ProjectionMemo()  # it may hold projections of a later epoch's w_x
    return TrainedModel(model, history)


# ---------------------------------------------------------------------------
# Prediction entry points


def sl_predict(trained: TrainedModel, instance: Instance) -> list[str]:
    return trained.model.predict([instance])[0]


def icc_predict(trained: TrainedModel, clause_tokens: Sequence[str]) -> bool:
    model = trained.model
    return _stimulus_flags(model.logits([clause_tokens], memo=model.memo))[0]


def jcc_predict(trained: TrainedModel, instance: Instance) -> list[bool]:
    return trained.model.predict([instance])[0]


# ---------------------------------------------------------------------------
# Checkpoints
#
# Version 4, the only one written or read, is one UTF-8 JSON header line and
# the payload: the row-major little-endian float64 bytes of the arrays that the
# header's "arrays" list names, back to back: "embedding", then each parameter
# whole by its name. Loading an older version fails with an error naming it.
# A load checks the whole header, and every array's size against the file's,
# before it allocates anything; it then builds the model with uninitialised
# weights and reads each array straight into the one that keeps it.


def save_checkpoint(trained: TrainedModel, path: str | Path) -> None:
    """Write ``trained`` to ``path`` through a temporary file, so a failed save leaves
    no partial file at ``path`` and keeps any checkpoint already there."""
    model = trained.model
    arrays = [("embedding", model.embeddings.matrix)]
    arrays += [(p.name, p.data) for p in model.parameters()]
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": model.architecture,
        "config": model.config.to_dict(),
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


def _layout(header: dict, size: int) -> dict[str, tuple[int, ...]]:
    """The shape of each array of the header's "arrays" list, by name in file
    order, once their sizes are checked to fill the ``size`` payload bytes exactly."""
    layout, ends, offset = {}, {}, 0
    for item in _entry(header, "arrays", list):
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
            raise ValueError(f"'arrays' entries must be [name, shape] pairs, got {item!r}")
        name, shape = item
        if name in layout:
            raise ValueError(f"'arrays' lists {name!r} twice")
        try:
            offset += 8 * math.prod(_shape(shape))
        except ValueError as exc:
            raise ValueError(f"array {name!r}: {exc}") from None
        layout[name], ends[name] = tuple(shape), offset
    if size > offset:
        raise ValueError(f"{size - offset} bytes follow the last array of 'arrays'")
    if size < offset:
        cut = next(name for name, end in ends.items() if end > size)
        raise ValueError(f"payload ends inside array {cut!r} ({size} of {offset} bytes)")
    return layout


def _read_arrays(handle, arrays: dict[str, np.ndarray]) -> None:
    """Fill each of the C-contiguous float64 ``arrays``, in order, with the next
    little-endian bytes of ``handle``, and check that every value is finite."""
    for name, arr in arrays.items():
        if handle.readinto(arr) != arr.nbytes:
            raise ValueError(f"payload ends inside array {name!r}")
        if sys.byteorder == "big":
            arr.byteswap(inplace=True)
        if not np.isfinite(arr).all():
            raise ValueError(f"array {name!r} holds a non-finite value")


_JSON_KIND = {dict: "object", list: "array", str: "string"}


def _entry(payload: dict, key: str, kind: type):
    if key not in payload:
        raise ValueError(f"checkpoint has no {key!r} entry")
    value = payload[key]
    if not isinstance(value, kind):
        raise ValueError(f"{key!r} must be a JSON {_JSON_KIND[kind]}")
    return value


def _read_checkpoint(handle) -> TrainedModel:
    line = handle.readline()
    newline = line.endswith(b"\n")
    try:
        payload = json.loads((line[:-1] if newline else line).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"the header line is not UTF-8 JSON ({exc})") from None
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
    model_class = _model_class(_entry(payload, "architecture", str))
    vocab = _entry(payload, "vocab", list)
    if not all(isinstance(tok, str) for tok in vocab):
        raise ValueError("'vocab' must be a list of strings")
    if not newline:
        raise ValueError("no payload after the header line")
    history = _entry(payload, "history", list)
    if not all(isinstance(epoch, dict) for epoch in history):
        raise ValueError("'history' must be a list of JSON objects")
    shapes = _layout(payload, os.fstat(handle.fileno()).st_size - handle.tell())
    if "embedding" not in shapes:
        raise ValueError("'arrays' has no 'embedding' entry")
    if 8 * config.hidden_dim**2 > sum(map(math.prod, shapes.values())):
        # every model's BiLSTM has a (2, h, 4h) w_h array: refuse before allocating it
        raise ValueError(f"'config': hidden_dim {config.hidden_dim} does not fit the arrays")
    try:
        embeddings = EmbeddingTable(vocab, np.empty(shapes["embedding"]))
    except ValueError as exc:
        raise ValueError(f"'embedding': {exc}") from None
    if embeddings.dim != config.embedding_dim:
        raise ValueError(
            f"'config': embedding_dim {config.embedding_dim}, embeddings {embeddings.dim} wide"
        )
    model = model_class(embeddings, config, None)
    _check_shapes(model, {name: shape for name, shape in shapes.items() if name != "embedding"})
    targets = {p.name: p.data for p in model.parameters()}
    targets["embedding"] = embeddings.matrix
    _read_arrays(handle, {name: targets[name] for name in shapes})
    return TrainedModel(model, history)


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Read a version-4 checkpoint; any defect, or an older version, raises
    ``ValueError`` naming ``path``."""
    try:
        with open(path, "rb") as handle:
            return _read_checkpoint(handle)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
