from __future__ import annotations

import base64
import builtins
import dataclasses
import gc
import io
import itertools
import json
import math
import operator
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import damaged, damaged_bytes, recount_dev_score
from stimex import models
from stimex.corpus import (
    ClauseAnnotation,
    Instance,
    Span,
    generate_synthetic,
    iob_to_spans,
    split_corpus,
)
from stimex.models import (
    MODELS,
    EmbeddingTable,
    IccModel,
    JccModel,
    SlModel,
    TrainConfig,
    clause_gold_flags,
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
from stimex.nn import Adam, layers

TOY = TrainConfig(embedding_dim=8, hidden_dim=6, dropout_p=0.0, max_epochs=2, patience=1)


def toy_corpus(n=12, seed=0):
    return generate_synthetic(n, seed=seed)


def toy_embeddings(instances, dim=8, seed=0):
    return EmbeddingTable.random(vocabulary(instances), dim, seed)


# -- configuration ---------------------------------------------------------------


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.003
    assert cfg.batch_size == 10
    assert cfg.dropout_p == 0.5
    assert cfg.max_epochs == 50
    assert cfg.patience == 10
    assert cfg.embedding_dim == 300
    assert cfg.hidden_dim == 100
    assert cfg.selection_metric == "accuracy"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"batch_size": 0},
        {"dropout_p": 1.0},
        {"dropout_p": -0.1},
        {"max_epochs": 0},
        {"patience": 0},
        {"patience": 51},
        {"hidden_dim": 0},
        {"selection_metric": "loss"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("field", ["embedding_dim", "hidden_dim"])
def test_config_accepts_one_wide_layers_and_refuses_zero(field):
    assert getattr(TrainConfig(embedding_dim=1, hidden_dim=1), field) == 1
    with pytest.raises(ValueError, match="embedding_dim and hidden_dim must be at least 1"):
        TrainConfig(**{field: 0})


def test_config_round_trip_and_unknown_key():
    cfg = TrainConfig(hidden_dim=7, selection_metric="f1")
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown"):
        TrainConfig.from_dict({"hidden": 3})


# -- embeddings ---------------------------------------------------------------------


def test_embedding_lookup_and_oov():
    table = EmbeddingTable(["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = table.lookup(["b", "zzz", "a"]).data
    assert np.array_equal(out, [[3.0, 4.0], [0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        table.lookup([])


def test_embedding_rejects_bad_shapes_and_duplicates():
    with pytest.raises(ValueError):
        EmbeddingTable(["a"], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        EmbeddingTable(["a", "a"], np.zeros((2, 3)))


def test_embedding_load_text(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("hello 1 2 3\nworld 4 5 6\n\n", encoding="utf-8")
    table = EmbeddingTable.load_text(path)
    assert table.tokens == ["hello", "world"]
    assert table.dim == 3
    assert np.array_equal(table.lookup(["world"]).data, [[4.0, 5.0, 6.0]])


def test_embedding_load_text_errors(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\nb 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        EmbeddingTable.load_text(path)
    path.write_text("a 1 x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-numeric"):
        EmbeddingTable.load_text(path)
    for value in ("nan", "inf", "-inf"):
        path.write_text(f"b 1 2\na 0.1 {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{path}: line 2: non-finite component$"):
            EmbeddingTable.load_text(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        EmbeddingTable.load_text(path)


EMBEDDING_TEXT = "the 0.5 -1e-2 3\n\ncafé 1 2 nan\nß 4 5 6\n".encode("utf-8")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_embedding_files_load_or_raise_value_error_naming_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "damaged_vec.txt"
    path.write_bytes(data.draw(damaged_bytes(EMBEDDING_TEXT)))
    try:
        table = EmbeddingTable.load_text(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert table.matrix.shape == (len(table.tokens), table.dim)


def test_embedding_random_is_deterministic():
    a = EmbeddingTable.random(["x", "y", "x"], 4, seed=2)
    b = EmbeddingTable.random(["x", "y"], 4, seed=2)
    assert a.tokens == ["x", "y"]
    assert np.array_equal(a.matrix, b.matrix)


def test_vocabulary_first_seen_order():
    insts = [
        Instance("a", "d", ["the", "cat"], ["O", "O"]),
        Instance("b", "d", ["cat", "sat"], ["O", "O"]),
    ]
    assert vocabulary(insts) == ["the", "cat", "sat"]


# -- clause units ---------------------------------------------------------------------


def clause_instance():
    inst = Instance(
        "c1",
        "d",
        ["I", "cried", "because", "he", "left", "."],
        ["O", "O", "B", "I", "I", "O"],
    )
    inst.clauses = [
        ClauseAnnotation(Span(0, 2), False),
        ClauseAnnotation(Span(2, 5), True),
        ClauseAnnotation(Span(5, 6), False),
    ]
    return inst


def test_clause_unit_helpers():
    inst = clause_instance()
    assert clause_spans(inst) == [Span(0, 2), Span(2, 5), Span(5, 6)]
    assert clause_gold_flags(inst) == [False, True, False]
    assert clause_token_lists(inst) == [["I", "cried"], ["because", "he", "left"], ["."]]


def test_clause_flags_follow_token_labels_not_annotation():
    inst = clause_instance()
    inst.iob = ["B", "I", "O", "O", "O", "O"]  # stimulus moved to the first clause
    assert clause_gold_flags(inst) == [True, False, False]


def test_clause_helpers_require_annotations():
    bare = Instance("x", "d", ["a"], ["O"])
    with pytest.raises(ValueError, match="'x'"):
        clause_spans(bare)


def test_units_of_each_architecture():
    inst, other = clause_instance(), toy_corpus(1, seed=1)[0]
    inst.iob = ["B", "I", "O", "O", "O", "O"]  # gold flags now differ from the annotation's
    emb = toy_embeddings([inst, other])
    rng = np.random.default_rng(0)
    sl, icc, jcc = (MODELS[arch](emb, TOY, rng) for arch in ("sl", "icc", "jcc"))
    assert sl.units([inst, other]) == [
        (["I", "cried", "because", "he", "left", "."], ["B", "I", "O", "O", "O", "O"]),
        (other.tokens, other.iob),
    ]
    assert icc.units([inst, other]) == [
        (["I", "cried"], True),
        (["because", "he", "left"], False),
        (["."], False),
    ] + list(zip(clause_token_lists(other), clause_gold_flags(other)))
    assert jcc.units([inst]) == [
        ([["I", "cried"], ["because", "he", "left"], ["."]], [True, False, False])
    ]


# -- model shapes ------------------------------------------------------------------------


def test_sl_emission_shape_and_prediction_labels():
    corpus = toy_corpus()
    model = SlModel(toy_embeddings(corpus), TOY, np.random.default_rng(0))
    tokens = corpus[0].tokens
    u, lengths = model.emissions([tokens])
    assert lengths == [len(tokens)]
    assert u.shape == (len(tokens), 3)
    (pred,) = model.predict(corpus[:1])
    assert len(pred) == len(tokens)
    assert set(pred) <= {"B", "I", "O"}


def test_icc_logits_and_probability():
    corpus = toy_corpus()
    model = IccModel(toy_embeddings(corpus), TOY, np.random.default_rng(0))
    logits = model.logits([["because", "he", "left"], ["."]])
    assert logits.shape == (2, 2)
    assert isinstance(icc_predict(models.TrainedModel(model, []), ["because"]), bool)
    (flags,) = model.predict([clause_instance()])
    assert len(flags) == 3 and all(isinstance(f, bool) for f in flags)


def test_jcc_emissions_and_prediction():
    corpus = toy_corpus()
    model = JccModel(toy_embeddings(corpus), TOY, np.random.default_rng(0))
    inst = clause_instance()
    u, counts = model.emissions([clause_token_lists(inst)])
    assert u.shape == (3, 2) and counts == [3]
    (flags,) = model.predict([inst])
    assert len(flags) == 3 and all(isinstance(f, bool) for f in flags)
    with pytest.raises(ValueError):
        model.emissions([[]])


def test_jcc_single_clause_decodes_by_local_score():
    corpus = toy_corpus()
    model = JccModel(toy_embeddings(corpus), TOY, np.random.default_rng(1))
    inst = Instance("one", "d", ["because", "he", "left"], ["B", "I", "I"])
    inst.clauses = [ClauseAnnotation(Span(0, 3), True)]
    u, _ = model.emissions([clause_token_lists(inst)])
    expected = np.argmax(u.data[0] + model.crf.start_scores.data + model.crf.end_scores.data)
    assert model.predict([inst]) == [[bool(expected)]]


def test_jcc_is_sensitive_to_clause_order():
    corpus = toy_corpus()
    model = JccModel(toy_embeddings(corpus), TOY, np.random.default_rng(2))
    a, _ = model.emissions([[["happy"], ["because", "he", "left"]]])
    b, _ = model.emissions([[["because", "he", "left"], ["happy"]]])
    assert not np.allclose(a.data, b.data[::-1])  # clause context matters, not just content


# -- packed batches ----------------------------------------------------------------------

BATCH_CFG = TrainConfig(embedding_dim=8, hidden_dim=6, dropout_p=0.5)
WORDS = ["i", "cried", "because", "he", "left", ".", "happy", "zebra"]  # "zebra" is unknown


def ragged_units(arch):
    """Five units of ragged lengths, 1 among them; jcc has a 1-clause document."""
    rng = np.random.default_rng(3)

    def words(n):
        return [WORDS[k] for k in rng.integers(0, len(WORDS), n)]

    if arch == "sl":
        labels = ["B", "OBIIO", "OOO", "BBIOBBIO", "IO"]
        return [(words(len(iob)), list(iob)) for iob in labels]
    if arch == "icc":
        sizes = [(1, True), (5, False), (3, True), (9, False), (2, False)]
        return [(words(n), flag) for n, flag in sizes]
    docs = [[1], [2, 1, 3], [1, 1], [4, 6, 1, 2], [3]]
    return [
        ([words(n) for n in widths], [k % 2 == 0 for k in range(len(widths))]) for widths in docs
    ]


def _model(arch):
    emb = EmbeddingTable.random(WORDS[:-1], BATCH_CFG.embedding_dim, 4)
    cls = {"sl": SlModel, "icc": IccModel, "jcc": JccModel}[arch]
    model = cls(emb, BATCH_CFG, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for p in model.parameters():  # nonzero biases, so that state leaking across padding shows
        p.data += 0.3 * rng.standard_normal(p.data.shape)
    return model


def _loss_and_grads(model, loss_fn):
    for p in model.parameters():
        p.grad = None
    loss = loss_fn()
    loss.backward()
    return loss.item(), {p.name: p.grad for p in model.parameters()}


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_batch_loss_equals_sum_of_unit_losses(arch):
    model, units = _model(arch), ragged_units(arch)

    def one_by_one():
        total = model.loss(units[:1])
        for unit in units[1:]:
            total = total + model.loss([unit])
        return total

    batched, batched_grads = _loss_and_grads(model, lambda: model.loss(units))
    single, single_grads = _loss_and_grads(model, one_by_one)
    assert batched == pytest.approx(single, rel=1e-12, abs=0.0)
    for name, g in single_grads.items():
        assert np.max(np.abs(batched_grads[name] - g)) < 1e-10, name


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_each_gradient_is_an_array_of_its_own(arch):
    """A BiLSTM hands its weight gradients to the parameters uncopied: each one
    still has its parameter's shape, can be written, and shares no memory with
    another gradient or with any weight, so Adam's in-place updates stay apart."""
    model = _model(arch)
    model.loss(ragged_units(arch)).backward()
    params = model.parameters()
    for p in params:
        assert p.grad is not None and p.grad.shape == p.data.shape, p.name
        assert p.grad.flags.writeable, p.name
    for p in params:
        others = [q.grad for q in params if q is not p] + [q.data for q in params]
        assert not any(np.shares_memory(p.grad, other) for other in others), p.name


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_batch_loss_draws_the_same_dropout_masks(arch):
    model, units = _model(arch), ragged_units(arch)
    rng_batch, rng_single = np.random.default_rng(9), np.random.default_rng(9)
    batched = model.loss(units, rng_batch).item()
    single = sum(model.loss([u], rng_single).item() for u in units)
    assert batched == pytest.approx(single, rel=1e-12, abs=0.0)
    assert rng_batch.random() == rng_single.random()  # both streams at the same point


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_loss_without_rng_has_no_dropout(arch):
    """Dropout runs only when ``loss`` is given a generator: without one, a model with
    ``dropout_p`` 0.5 scores a batch as the same weights with ``dropout_p`` 0.0 do."""
    model, units = _model(arch), ragged_units(arch)
    without = model.loss(units).item()
    dropped = model.loss(units, rng=np.random.default_rng(2)).item()
    assert dropped != without  # a generator does drop units at dropout_p 0.5
    model.config = dataclasses.replace(BATCH_CFG, dropout_p=0.0)
    assert model.loss(units).item() == without
    assert model.loss(units, rng=np.random.default_rng(2)).item() == without


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_training_step_leaves_no_cyclic_garbage(arch):
    """``backward`` consumes the graph, so dropping the loss frees it by refcount."""
    model, units = _model(arch), ragged_units(arch)
    gc.collect()
    gc.disable()
    try:
        loss = model.loss(units, rng=np.random.default_rng(2))
        loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_prediction_leaves_no_cyclic_garbage(arch):
    """No graph node is a reference cycle, so a forward-only graph goes by refcount."""
    model, instances = _model(arch), ragged_instances(12)
    gc.collect()
    gc.disable()
    try:
        preds = model.predict(instances)
        del preds
        assert gc.collect() == 0
    finally:
        gc.enable()


def _graph_nodes(loss):
    """Every node reachable from ``loss``, itself included."""
    seen, todo = {id(loss): loss}, [loss]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return list(seen.values())


@pytest.mark.parametrize("arch", ["sl", "jcc"])
def test_crf_loss_is_one_graph_node(arch):
    model, units = _model(arch), ragged_units(arch)
    loss = model.loss(units, rng=np.random.default_rng(2))
    crf_params = model.crf.parameters()
    crf_nodes = [
        node
        for node in _graph_nodes(loss)
        if any(parent is p for parent in node._parents for p in crf_params)
    ]
    assert len(crf_nodes) == 1 and crf_nodes[0] is loss
    projected, trans, start, end = loss._parents
    assert (trans, start, end) == tuple(crf_params)
    # the loss reads the projection's packed output itself
    assert any(parent is model.project.bias for parent in projected._parents)
    rows = sum(len(seq) for seq, _ in units)  # tokens (sl) or clauses (jcc)
    assert projected.shape == (rows, model.crf.num_labels)


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_heads_run_once_per_batch(arch, monkeypatch):
    """One attention node and one call of each projection per ``loss``."""
    model, units = _model(arch), ragged_units(arch)
    attended, projections = [], []
    original_attention, original_linear = models.attention, layers.Linear.__call__

    def attention(h, lengths):
        attended.append(original_attention(h, lengths))
        return attended[-1]

    def linear(layer, x):
        projections.append(layer)
        return original_linear(layer, x)

    monkeypatch.setattr(models, "attention", attention)
    monkeypatch.setattr(layers.Linear, "__call__", linear)
    loss = model.loss(units, rng=np.random.default_rng(2))
    heads = [model.hidden, model.out] if arch == "icc" else [model.project]
    assert projections == heads
    (node,) = attended
    rows = sum(len(seq) for seq, _ in units)  # tokens (sl, icc) or clauses (jcc)
    assert node.shape == (rows, 4 * BATCH_CFG.hidden_dim)
    assert any(n is node for n in _graph_nodes(loss))


def test_batch_with_an_empty_sequence_is_rejected():
    sl, icc, jcc = (_model(arch) for arch in ("sl", "icc", "jcc"))
    with pytest.raises(ValueError, match="empty"):
        sl.loss([(["i", "cried"], ["O", "O"]), ([], [])])
    with pytest.raises(ValueError, match="empty"):
        icc.loss([(["i"], True), ([], False)])
    with pytest.raises(ValueError, match="empty"):
        jcc.loss([([["i"]], [True]), ([["he"], []], [False, False])])
    with pytest.raises(ValueError, match="at least one clause"):
        jcc.loss([([["i"]], [True]), ([], [])])


def ragged_instances(n):
    """``n`` instances of 1 to 12 tokens, each tiled by 1 to 4 clauses: the first is one
    token (and one clause) long, the second one clause of several tokens."""
    rng = np.random.default_rng(11)
    out = []
    for k in range(n):
        size = 1 if k == 0 else int(rng.integers(2, 13))
        cuts = rng.integers(1, size, size=0 if k < 2 else int(rng.integers(1, 4)))
        bounds = [0, *sorted(set(cuts.tolist())), size]
        tokens = [WORDS[i] for i in rng.integers(0, len(WORDS), size)]
        inst = Instance(f"r{k}", "d", tokens, ["O"] * size)
        inst.clauses = [ClauseAnnotation(Span(a, b), False) for a, b in zip(bounds, bounds[1:])]
        out.append(inst)
    return out


def _twin(model):
    """A model that never predicted, given copies of ``model``'s weights by assigning
    ``p.data``."""
    twin = type(model)(model.embeddings, model.config, None)
    for p, q in zip(twin.parameters(), model.parameters()):
        p.data = q.data.copy()
    return twin


def _scores(model, instances, memoised=True):
    """The packed emissions (``sl``, ``jcc``) or logits (``icc``) of one chunk of
    ``instances``: as ``predict`` computes them, from the projection memo, or as
    ``loss`` does, without it, if not ``memoised``."""
    memo = model.memo if memoised else None
    if model.architecture == "icc":
        clauses = [toks for inst in instances for toks in clause_token_lists(inst)]
        return model.logits(clauses, memo=memo).data
    return model.emissions([model.input(inst) for inst in instances], memo=memo)[0].data


@pytest.mark.parametrize(
    "arch, finished",
    [pytest.param(a, f, id=a + "-finished" * f) for f in (False, True) for a in MODELS],
)
def test_batched_prediction_equals_prediction_one_by_one(arch, finished, tmp_path):
    """Scores read from the projection memo are bit-equal to those a fresh model
    computes without it for inputs of two tokens or more (one row alone takes
    BLAS's vector product, which rounds differently), and the labels equal a
    second fresh model's that memoised every token at once. Also for a finished
    model, as ``load_checkpoint`` returns it."""
    fresh, instances = _model(arch), ragged_instances(23)
    model = fresh
    if finished:
        save_checkpoint(models.TrainedModel(_model(arch), []), tmp_path / "m.json")
        model = load_checkpoint(tmp_path / "m.json").model
    assert len(instances) > 2 * model.config.batch_size  # two full chunks and a partial one
    for chunk in [*([inst] for inst in instances), instances]:  # one new token at a time first
        scores = _scores(model, chunk)
        if sum(len(inst.tokens) for inst in chunk) > 1:
            assert np.array_equal(scores, _scores(fresh, chunk, memoised=False))
    batched = model.predict(instances)
    assert batched == [model.predict([inst])[0] for inst in instances]
    trained = models.TrainedModel(model, [])
    assert batched == _predictions(arch, trained, instances)  # icc_predict: one clause at a time
    assert batched == _model(arch).predict(instances)


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_projection_memo_follows_new_weights(arch):
    """After predicting, new weights assigned to every ``p.data``, or an assigned
    ``w_x``, ``w_h`` or ``bias`` (for ``jcc`` in the word and in a clause encoder),
    give the predictions and scores of a model with those weights that never
    predicted."""
    instances = ragged_instances(12)
    model = _model(arch)
    before = _scores(model, instances)
    assert len(model.memo.index) > 0
    rng = np.random.default_rng(9)
    for p in model.parameters():
        p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)
    loaded = _twin(model)
    assert model.predict(instances) == loaded.predict(instances)
    assert np.array_equal(_scores(model, instances), _scores(loaded, instances))
    assert not np.array_equal(_scores(model, instances), before)
    for m in (model, loaded):
        w_x = (m.word_encoder if arch == "jcc" else m.encoder).w_x[1]
        w_x.data = w_x.data * -1.5
    assert np.array_equal(_scores(model, instances), _scores(_twin(loaded), instances))
    assert model.predict(instances) == loaded.predict(instances)
    cells = [("word_encoder", 0), ("clause_encoder1", 1)] if arch == "jcc" else [("encoder", 0)]
    for (path, d), (name, scale) in itertools.product(cells, [("w_h", 0.5), ("bias", -2.0)]):
        before = _scores(model, instances)
        for m in (model, loaded):
            p = getattr(getattr(m, path), name)
            data = p.data.copy()
            data[d] *= scale
            p.data = data
        scores = _scores(model, instances)
        assert np.array_equal(scores, _scores(_twin(loaded), instances)), (path, d, name)
        assert not np.array_equal(scores, before)
        assert model.predict(instances) == loaded.predict(instances)


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_trained_model_trained_further_predicts_with_its_new_weights(arch):
    """Adam writes ``w_x`` in place, which the memo cannot see; each ``loss`` call
    empties the memo, so a trained model that has predicted and is then trained
    on scores as a model given the new weights by assigning ``p.data`` does."""
    train_set, dev, test = split_corpus(generate_synthetic(40, 3), 3)
    cfg = TrainConfig(embedding_dim=16, hidden_dim=8, max_epochs=1, patience=1)
    model = train(arch, train_set, dev, toy_embeddings(train_set, 16), cfg).model
    model.predict(test)
    optimizer = Adam(model.parameters(), lr=0.5)
    for _ in range(3):
        optimizer.zero_grad()
        model.loss(model.units(train_set)).backward()
        optimizer.step()
    loaded = _twin(model)
    assert np.array_equal(_scores(model, test), _scores(loaded, test))
    assert model.predict(test) == loaded.predict(test)


# -- training ----------------------------------------------------------------------------


def overfit_config(**kwargs):
    base = dict(
        embedding_dim=16,
        hidden_dim=12,
        dropout_p=0.0,
        learning_rate=0.05,
        batch_size=4,
        max_epochs=60,
        patience=60,
        selection_metric="f1",
    )
    base.update(kwargs)
    return TrainConfig(**base)


def test_train_rejects_bad_input():
    corpus = toy_corpus()
    emb = toy_embeddings(corpus)
    with pytest.raises(ValueError, match="architecture"):
        train("mlp", corpus, corpus, emb, TOY)
    with pytest.raises(ValueError, match="non-empty"):
        train("sl", [], corpus, emb, TOY)
    with pytest.raises(ValueError, match="embedding_dim 8, embeddings 16 wide"):
        train("sl", corpus, corpus, toy_embeddings(corpus, 16), TOY)


MEMO_FIELDS = {"source", "index", "rows"}  # no cache beside the projections


def test_models_start_with_an_empty_projection_memo_that_loss_never_reads(tmp_path):
    """For each architecture: no projection is memoised before predicting, or by
    ``loss``, and the memo keeps only the word encoder's ``w_x`` projections.  The
    last epoch's ``dev_score`` fills the memo of the model ``train`` returns, so
    ``train`` must empty it after restoring the best epoch in place, or it would
    serve the last epoch's projections; an empty ``source`` pins no array."""
    for arch in MODELS:
        corpus, trained = _small_trained(arch)
        save_checkpoint(trained, tmp_path / "m.json")
        loaded = load_checkpoint(tmp_path / "m.json").model
        lists = [toks for inst in corpus for toks in clause_token_lists(inst)]
        words = vocabulary(corpus) if arch == "sl" else [tok for toks in lists for tok in toks]
        for model in (trained.model, loaded):
            assert model.memo.index == {} and list(model.memo.source) == [None] * 3
            assert set(vars(model.memo)) == MEMO_FIELDS
            model.loss(model.units(corpus))
            assert model.memo.index == {} and set(vars(model.memo)) == MEMO_FIELDS
            model.predict(corpus)
            assert set(model.memo.index) == set(words)
            encoder = model.layers[0]
            assert isinstance(encoder, layers.BiLstm) and set(vars(model.memo)) == MEMO_FIELDS
            source = [model.embeddings, *(w_x.data for w_x in encoder.w_x)]
            assert list(map(operator.is_, model.memo.source, source)) == [True] * 3


def test_sl_overfits_small_corpus():
    corpus = toy_corpus(8, seed=3)
    trained = train("sl", corpus, corpus, toy_embeddings(corpus, 16), overfit_config())
    assert max(h["dev_metric"] for h in trained.history) == pytest.approx(1.0)
    for inst in corpus:
        assert iob_to_spans(sl_predict(trained, inst)) == iob_to_spans(inst.iob)


def test_icc_overfits_small_corpus():
    corpus = toy_corpus(8, seed=4)
    trained = train("icc", corpus, corpus, toy_embeddings(corpus, 16), overfit_config())
    for inst in corpus:
        for toks, flag in zip(clause_token_lists(inst), clause_gold_flags(inst)):
            assert icc_predict(trained, toks) == flag


def test_jcc_overfits_small_corpus():
    corpus = toy_corpus(8, seed=5)
    trained = train("jcc", corpus, corpus, toy_embeddings(corpus, 16), overfit_config())
    for inst in corpus:
        assert jcc_predict(trained, inst) == clause_gold_flags(inst)


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_trained_parameters_carry_no_gradients(arch):
    corpus = toy_corpus(8, seed=10)
    trained = train(arch, corpus, corpus, toy_embeddings(corpus, 8), TOY)
    assert all(p.grad is None for p in trained.model.parameters())


def test_training_is_deterministic():
    corpus = toy_corpus(10, seed=6)
    emb = toy_embeddings(corpus, 8)
    cfg = TrainConfig(
        embedding_dim=8, hidden_dim=6, max_epochs=3, patience=3, dropout_p=0.5
    )
    a = train("sl", corpus, corpus, emb, cfg)
    b = train("sl", corpus, corpus, emb, cfg)
    assert a.history == b.history
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_history_and_early_stopping():
    corpus = toy_corpus(10, seed=7)
    cfg = TrainConfig(
        embedding_dim=8, hidden_dim=6, dropout_p=0.0, max_epochs=30, patience=2
    )
    trained = train("sl", corpus, corpus, toy_embeddings(corpus, 8), cfg)
    epochs = [h["epoch"] for h in trained.history]
    assert epochs == list(range(1, len(epochs) + 1))
    assert len(epochs) <= 30
    metrics = [h["dev_metric"] for h in trained.history]
    best = max(metrics)
    # stopped only after `patience` epochs without improvement, unless max was hit
    if len(epochs) < 30:
        assert all(m <= best for m in metrics[-2:])
    # restored parameters reproduce the best dev metric
    preds = [sl_predict(trained, inst) for inst in corpus]
    correct = sum(p == g for ps, inst in zip(preds, corpus) for p, g in zip(ps, inst.iob))
    total = sum(len(inst.tokens) for inst in corpus)
    assert correct / total == pytest.approx(best)


BEST_EPOCH_PATHS = {
    # name: (scripted dev metric per epoch, max_epochs, patience)
    "one epoch": ([0.5], 1, 1),
    "last epoch best": ([0.5, 0.4, 0.7], 3, 3),
    "patience after a worse epoch": ([0.5, 0.7, 0.6], 4, 1),
    "max_epochs after a worse epoch": ([0.5, 0.7, 0.6], 3, 2),
    "patience after an equal epoch": ([0.5, 0.5], 3, 1),  # a tie is no improvement
}


@pytest.mark.parametrize("path", list(BEST_EPOCH_PATHS))
@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_train_returns_the_best_epochs_weights_bit_for_bit(arch, path, monkeypatch):
    """The returned weights are those the best epoch was scored with, whether
    training ends on that epoch or after worse or equal ones, by patience or by max_epochs."""
    script, max_epochs, patience = BEST_EPOCH_PATHS[path]
    seen = []

    def scripted_dev_score(model, instances, metric):
        seen.append([p.data.copy() for p in model.parameters()])
        return script[len(seen) - 1]

    monkeypatch.setattr(models.Model, "dev_score", scripted_dev_score)
    corpus = toy_corpus(12, seed=4)
    cfg = dataclasses.replace(TOY, max_epochs=max_epochs, patience=patience, batch_size=4)
    trained = train(arch, corpus, corpus, toy_embeddings(corpus), cfg)
    metrics = [h["dev_metric"] for h in trained.history]
    assert metrics == script  # the patience path stops before its max_epochs
    best = metrics.index(max(metrics))
    got = [p.data for p in trained.model.parameters()]
    assert all(np.array_equal(a, b) for a, b in zip(got, seen[best]))
    if best != len(seen) - 1:  # the last epoch's weights differ, so a missing copy-back shows
        assert not all(np.array_equal(a, b) for a, b in zip(got, seen[-1]))


def test_loss_decreases_early_in_training():
    corpus = toy_corpus(24, seed=8)
    cfg = TrainConfig(embedding_dim=16, hidden_dim=8, max_epochs=5, patience=5)
    trained = train("sl", corpus, corpus, toy_embeddings(corpus, 16), cfg)
    losses = [h["train_loss"] for h in trained.history]
    assert losses[-1] < losses[0]


def test_prediction_is_deterministic_after_training():
    corpus = toy_corpus(8, seed=9)
    trained = train(
        "sl",
        corpus,
        corpus,
        toy_embeddings(corpus, 8),
        TrainConfig(embedding_dim=8, hidden_dim=6, max_epochs=2, patience=2),
    )
    first = [sl_predict(trained, inst) for inst in corpus]
    second = [sl_predict(trained, inst) for inst in corpus]
    assert first == second


def _predictions(arch, trained, instances):
    """Each instance's labels from the public prediction functions."""
    if arch == "sl":
        return [sl_predict(trained, inst) for inst in instances]
    if arch == "icc":
        return [[icc_predict(trained, toks) for toks in clause_token_lists(i)] for i in instances]
    return [jcc_predict(trained, inst) for inst in instances]


def _stimulus_one_token_earlier(inst):
    """``inst`` with its stimulus span starting one token earlier, where it can."""
    iob = list(inst.iob)
    k = iob.index("B") if "B" in iob else 0
    if k > 0:
        iob[k - 1 : k + 1] = ["B", "I"]
    return dataclasses.replace(inst, iob=iob)


@pytest.mark.parametrize("metric", ["accuracy", "f1"])
@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_dev_score_equals_a_recount(arch, metric):
    corpus = toy_corpus(40, seed=16)
    cfg = TrainConfig(embedding_dim=8, hidden_dim=6, max_epochs=3, patience=3, learning_rate=0.02)
    trained = train(arch, corpus[:20], corpus[:20], toy_embeddings(corpus, 8), cfg)
    # every other dev label moved, so that the model is partly wrong and a miscount shows
    dev = [_stimulus_one_token_earlier(i) if k % 2 else i for k, i in enumerate(corpus[20:])]
    score = trained.model.dev_score(dev, metric)
    assert 0.0 < score < 1.0
    want = recount_dev_score(arch, _predictions(arch, trained, dev), dev, metric)
    assert score == pytest.approx(want, rel=1e-12, abs=0.0)


# -- checkpoints ----------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_checkpoint_round_trip(arch, tmp_path):
    corpus = toy_corpus(8, seed=10)
    cfg = TrainConfig(embedding_dim=8, hidden_dim=6, max_epochs=2, patience=2)
    trained = train(arch, corpus, corpus, toy_embeddings(corpus, 8), cfg)
    path = tmp_path / "model.json"
    save_checkpoint(trained, path)
    loaded = load_checkpoint(path)
    assert loaded.model.architecture == arch
    assert loaded.model.config == cfg
    assert loaded.history == trained.history
    for pa, pb in zip(trained.model.parameters(), loaded.model.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.data, pb.data)
    inst = corpus[0]
    if arch == "sl":
        assert sl_predict(loaded, inst) == sl_predict(trained, inst)
    elif arch == "icc":
        toks = clause_token_lists(inst)[0]
        assert icc_predict(loaded, toks) == icc_predict(trained, toks)
    else:
        assert jcc_predict(loaded, inst) == jcc_predict(trained, inst)


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_loading_a_checkpoint_draws_no_initial_weights(tmp_path, monkeypatch, arch):
    corpus, trained = _small_trained(arch)
    path = tmp_path / "m.json"
    save_checkpoint(trained, path)
    rngs = []
    original = layers.glorot_uniform

    def recording(rng, rows, cols):
        rngs.append(rng)
        return original(rng, rows, cols)

    monkeypatch.setattr(layers, "glorot_uniform", recording)
    loaded = load_checkpoint(path)
    assert rngs and all(rng is None for rng in rngs)
    for pa, pb in zip(trained.model.parameters(), loaded.model.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"hello": 1}', encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)
    path.write_text(
        '{"format": "stimex-checkpoint", "version": 99}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def _small_trained(arch="sl", seed=12):
    corpus = toy_corpus(6, seed=seed)
    cfg = TrainConfig(embedding_dim=8, hidden_dim=6, max_epochs=1, patience=1)
    return corpus, train(arch, corpus, corpus, toy_embeddings(corpus, 8), cfg)


def _arrays(model):
    """Every array of ``model`` in checkpoint order: the embedding, then the parameters."""
    params = [(p.name, p.data) for p in model.parameters()]
    return [("embedding", model.embeddings.matrix)] + params


def _split_file(path):
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header), body


def _file_bytes(header, body):
    return json.dumps(header).encode("utf-8") + b"\n" + body


@pytest.mark.parametrize("shape", [[0, 3], [], [2, 0, 5]])
def test_payload_arrays_reads_zero_size_and_zero_dimensional_shapes(shape):
    """Sizes are checked before any array is read and each array's byte size is
    8 times the product of its ``shape``, so every read fills its array exactly,
    also on an empty body."""
    other, value = np.array([1.5, -2.0]), np.full(shape, 0.25)
    for arrays in ([("y", value)], [("x", other), ("y", value)], [("y", value), ("x", other)]):
        header = {"arrays": [[name, list(arr.shape)] for name, arr in arrays]}
        body = b"".join(arr.astype("<f8").tobytes() for _, arr in arrays)
        layout = models._layout(header, len(body))
        got = {name: np.empty(shape) for name, shape in layout.items()}
        models._read_arrays(io.BytesIO(body), got)
        assert list(got) == [name for name, _ in arrays]
        for name, arr in arrays:
            assert got[name].shape == arr.shape and np.array_equal(got[name], arr)


def test_read_arrays_names_the_array_a_short_payload_ends_in():
    """``_layout`` checks the file's size first, so this read falls short only
    when the file shrinks after that check."""
    arrays = {"x": np.empty(2), "y": np.empty((2, 3))}
    body = np.arange(5.0).astype("<f8").tobytes()  # all of x, then 3 of y's 6 values
    with pytest.raises(ValueError, match="^payload ends inside array 'y'$"):
        models._read_arrays(io.BytesIO(body), arrays)


def test_a_host_of_the_other_byte_order_swaps_each_value_once(tmp_path, monkeypatch):
    """With ``sys.byteorder`` patched to the other order, each loaded value is its
    stored value with its bytes reversed.  Small integers reverse to finite
    subnormals; the value whose reversed bytes are a NaN is refused."""
    emb = EmbeddingTable.random(["a", "b", "c", "d", "e"], 8, 0)
    model = SlModel(emb, TOY, np.random.default_rng(0))
    arrays = [emb.matrix] + [p.data for p in model.parameters()]
    for k, arr in enumerate(arrays):
        arr[...] = np.arange(arr.size).reshape(arr.shape) + k
    path = tmp_path / "m.ckpt"
    save_checkpoint(models.TrainedModel(model, []), path)
    monkeypatch.setattr(sys, "byteorder", {"little": "big", "big": "little"}[sys.byteorder])
    loaded = load_checkpoint(path).model
    got = [loaded.embeddings.matrix] + [p.data for p in loaded.parameters()]
    assert all(np.array_equal(b, a.byteswap()) for a, b in zip(arrays, got, strict=True))
    model.crf.end_scores.data[1] = np.array(np.nan).byteswap()
    save_checkpoint(models.TrainedModel(model, []), path)
    with pytest.raises(ValueError, match="array 'crf.end_scores' holds a non-finite value"):
        load_checkpoint(path)


def test_checkpoint_stores_exact_binary_payloads(tmp_path):
    _, trained = _small_trained()
    path = tmp_path / "m.json"
    save_checkpoint(trained, path)
    header, body = _split_file(path)
    assert header["version"] == models.CHECKPOINT_VERSION
    arrays = _arrays(trained.model)
    assert header["arrays"] == [[name, list(arr.shape)] for name, arr in arrays]
    at = [name for name, _ in arrays].index("encoder.w_h")
    start = sum(arr.size * 8 for _, arr in arrays[:at])
    w_h = trained.model.encoder.w_h.data  # both directions, stacked
    assert body[start : start + w_h.size * 8] == w_h.astype("<f8").tobytes()
    assert header["arrays"][at] == ["encoder.w_h", list(w_h.shape)]
    # the file is exactly the header line plus every array's bytes, nothing after them
    payload = b"".join(arr.astype("<f8").tobytes() for _, arr in arrays)
    assert path.read_bytes() == _file_bytes(header, payload)


CHECKPOINT_LAYOUTS = {  # header "arrays" at embedding_dim 8, hidden_dim 6, 5 tokens
    "sl": [
        ["embedding", [5, 8]],
        ["encoder.fwd.w_x", [8, 24]],
        ["encoder.bwd.w_x", [8, 24]],
        ["encoder.w_h", [2, 6, 24]],
        ["encoder.bias", [2, 24]],
        ["project.weight", [24, 3]],
        ["project.bias", [3]],
        ["crf.transitions", [3, 3]],
        ["crf.start_scores", [3]],
        ["crf.end_scores", [3]],
    ],
    "icc": [
        ["embedding", [5, 8]],
        ["encoder.fwd.w_x", [8, 24]],
        ["encoder.bwd.w_x", [8, 24]],
        ["encoder.w_h", [2, 6, 24]],
        ["encoder.bias", [2, 24]],
        ["hidden.weight", [24, 6]],
        ["hidden.bias", [6]],
        ["out.weight", [6, 2]],
        ["out.bias", [2]],
    ],
    "jcc": [
        ["embedding", [5, 8]],
        ["word_encoder.fwd.w_x", [8, 24]],
        ["word_encoder.bwd.w_x", [8, 24]],
        ["word_encoder.w_h", [2, 6, 24]],
        ["word_encoder.bias", [2, 24]],
        ["clause_encoder1.fwd.w_x", [12, 24]],
        ["clause_encoder1.bwd.w_x", [12, 24]],
        ["clause_encoder1.w_h", [2, 6, 24]],
        ["clause_encoder1.bias", [2, 24]],
        ["clause_encoder2.fwd.w_x", [12, 24]],
        ["clause_encoder2.bwd.w_x", [12, 24]],
        ["clause_encoder2.w_h", [2, 6, 24]],
        ["clause_encoder2.bias", [2, 24]],
        ["project.weight", [24, 2]],
        ["project.bias", [2]],
        ["crf.transitions", [2, 2]],
        ["crf.start_scores", [2]],
        ["crf.end_scores", [2]],
    ],
}


@pytest.mark.parametrize("arch", sorted(CHECKPOINT_LAYOUTS))
def test_checkpoint_header_lists_the_fixed_array_layout(tmp_path, arch):
    """The names, order and shapes of a checkpoint's arrays, written out, so that
    no change to how a model holds its parameters can move them unseen."""
    emb = EmbeddingTable.random(["a", "b", "c", "d", "e"], 8, 0)
    model = MODELS[arch](emb, TOY, np.random.default_rng(0))
    save_checkpoint(models.TrainedModel(model, []), tmp_path / "m.ckpt")
    header, body = _split_file(tmp_path / "m.ckpt")
    assert header["arrays"] == CHECKPOINT_LAYOUTS[arch]
    assert len(body) == 8 * sum(math.prod(shape) for _, shape in CHECKPOINT_LAYOUTS[arch])


def _legacy_payload(trained, version):
    """The single JSON document that a version-1 or version-2 checkpoint of ``trained``
    held, as one line."""
    if version == 1:
        encode = lambda arr: {"shape": list(arr.shape), "values": arr.ravel().tolist()}
    else:
        encode = lambda arr: {
            "shape": list(arr.shape),
            "float64_le": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
        }
    model = trained.model
    return {
        "format": "stimex-checkpoint",
        "version": version,
        "architecture": model.architecture,
        "config": model.config.to_dict(),
        "clause_attention": True,
        "history": trained.history,
        "vocab": model.embeddings.tokens,
        "embedding": encode(model.embeddings.matrix),
        "params": {p.name: encode(p.data) for p in model.parameters()},
    }


def _assert_same_model(loaded, trained, corpus):
    assert np.array_equal(loaded.model.embeddings.matrix, trained.model.embeddings.matrix)
    for pa, pb in zip(trained.model.parameters(), loaded.model.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.data, pb.data)
    assert [sl_predict(loaded, inst) for inst in corpus] == [
        sl_predict(trained, inst) for inst in corpus
    ]


@pytest.mark.parametrize("version", [1, 2])
def test_checkpoint_versions_1_and_2_are_refused(tmp_path, version):
    _, trained = _small_trained()
    path = tmp_path / f"v{version}.json"
    path.write_text(json.dumps(_legacy_payload(trained, version)), encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: unsupported checkpoint version {version} ")


def test_checkpoint_version_3_is_refused(tmp_path):
    """Version 3 stored each BiLSTM's ``w_h`` and ``bias`` split by direction; such a
    file is refused by its version, before any array is read."""
    _, trained = _small_trained()
    path = tmp_path / "v3.ckpt"
    save_checkpoint(trained, path)
    header, body = _split_file(path)
    path.write_bytes(_file_bytes(dict(header, version=3), body))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    version = models.CHECKPOINT_VERSION
    assert str(exc.value) == (
        f"{path}: unsupported checkpoint version 3 (only version {version} is read)"
    )


def test_loaded_checkpoint_owns_its_arrays(tmp_path):
    corpus, trained = _small_trained()
    path = tmp_path / "m.json"
    save_checkpoint(trained, path)
    loaded = load_checkpoint(path)
    _assert_same_model(loaded, trained, corpus)
    for arr in [loaded.model.embeddings.matrix] + [p.data for p in loaded.model.parameters()]:
        assert arr.flags.owndata and arr.flags.writeable


def _traced_peak(load):
    """The most memory ``tracemalloc`` saw allocated while ``load()`` ran, in bytes."""
    tracemalloc.start()
    try:
        load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("arch, bound", [("sl", 6.5), ("jcc", 5.0)])
def test_one_epoch_of_training_holds_few_copies_of_the_weights(arch, bound):
    """A one-epoch ``train`` at the paper's dims peaks at the weights, their
    gradients and Adam's two moments, plus one batch's graph: it copies no
    weights, since the only epoch is the best one.  The peaks read 6.12 (sl)
    and 4.69 (jcc) times the weights; copying them before epoch 1 and after
    it, with a BiLSTM backward that stacked its factors, read 8.28 and 6.20."""
    corpus = generate_synthetic(20, seed=3)
    emb = EmbeddingTable.random(vocabulary(corpus), 300, 0)
    cfg = TrainConfig(max_epochs=1, patience=1)
    trained = []
    peak = _traced_peak(lambda: trained.append(train(arch, corpus, corpus, emb, cfg)))
    weights = sum(p.data.nbytes for p in trained[0].model.parameters())
    assert peak <= bound * weights


@pytest.fixture(scope="module")
def paper_dim_files(tmp_path_factory):
    """A checkpoint path of each architecture at the paper's 300/100 dims, 40 words."""
    tmp = tmp_path_factory.mktemp("paper_dims")
    emb = EmbeddingTable.random([f"w{k}" for k in range(40)], 300, 0)
    paths = {}
    for arch in ("sl", "icc", "jcc"):
        paths[arch] = tmp / f"{arch}.ckpt"
        model = MODELS[arch](emb, TrainConfig(), np.random.default_rng(0))
        save_checkpoint(models.TrainedModel(model, [{"epoch": 1}]), paths[arch])
    return paths


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_a_checkpoint_load_holds_about_one_copy_of_the_file(paper_dim_files, arch):
    """Each array is read straight into the weight that keeps it: no whole-file
    bytes, no views of them and no second copy."""
    path = paper_dim_files[arch]
    assert _traced_peak(lambda: load_checkpoint(path)) <= 1.25 * path.stat().st_size


def test_sizes_are_checked_before_any_weight_is_allocated(paper_dim_files, tmp_path):
    """A file whose arrays do not fit it, or whose hidden size the arrays cannot
    hold, fails before the model is built."""
    good = paper_dim_files["sl"]
    header, body = _split_file(good)
    wanted = (
        "shape beyond the file",
        "payload short",
        "trailing bytes",
        "hidden size beyond the arrays",
    )
    cases = {name: bad for name, bad, _ in _corrupt_files(header, body) if name in wanted}
    assert len(cases) == len(wanted)
    path = tmp_path / "bad.ckpt"
    for name, bad in cases.items():
        path.write_bytes(bad)
        peak = _traced_peak(lambda: pytest.raises(ValueError, load_checkpoint, path))
        assert peak < 0.1 * good.stat().st_size, name


def _corrupt_files(header, body):
    """Named ways to damage a valid checkpoint file, with the text the error must name."""
    arrays = header["arrays"]
    names = [name for name, _ in arrays]
    at = names.index("project.bias")

    def with_arrays(entries):
        return _file_bytes(dict(header, arrays=entries), body)

    def with_entry(entry):
        return with_arrays(arrays[:at] + [entry] + arrays[at + 1 :])

    def without(key):
        return _file_bytes({k: v for k, v in header.items() if k != key}, body)

    good = _file_bytes(header, body)
    head_len = good.index(b"\n")
    embedding_bytes = 8 * math.prod(arrays[0][1])
    yield "shape not a list", with_entry(["project.bias", "3"]), "'project.bias'"
    yield "negative size", with_entry(["project.bias", [-3]]), "'project.bias'"
    yield "size not an int", with_entry(["project.bias", [3.0]]), "'project.bias'"
    yield "shape beyond the file", with_entry(["project.bias", [10**9] * 2]), "'project.bias'"
    yield "shape of the wrong model", with_entry(["project.bias", [1, 3]]), "'project.bias'"
    renamed = with_entry(["project.offset", arrays[at][1]])  # the shape the model expects
    yield "parameter renamed", renamed, (
        "parameter name mismatch: missing ['project.bias'], unexpected ['project.offset']"
    )
    yield "entry not a pair", with_entry(["project.bias"]), "'arrays'"
    yield "duplicate name", with_arrays(arrays + [arrays[at]]), "'project.bias' twice"
    yield "arrays missing", without("arrays"), "'arrays'"
    yield "arrays not a list", with_arrays({"project.bias": [3]}), "'arrays'"
    yield "embedding not listed", _file_bytes(
        dict(header, arrays=arrays[1:]), body[embedding_bytes:]
    ), "'embedding'"
    yield "payload short", good[:-8], f"{names[-1]!r}"
    sizes = [8 * math.prod(shape) for _, shape in arrays]
    for name, value in (("crf.end_scores", np.nan), ("embedding", -np.inf)):
        at = head_len + 1 + sum(sizes[: names.index(name)])
        bad = good[:at] + np.array(value, "<f8").tobytes() + good[at + 8 :]
        yield f"{value} in {name}", bad, f"array {name!r} holds a non-finite value"
    yield "trailing bytes", good + b"\0" * 8, "8 bytes follow the last array"
    yield "header not UTF-8", b"\xff" + good[1:], "header"
    yield "header not JSON", good[: head_len - 1] + good[head_len:], "header"
    yield "no payload", good[:head_len], "no payload"
    yield "header not an object", _file_bytes([], body), "not a model checkpoint"
    yield "format wrong", _file_bytes(dict(header, format="other"), body), "format"
    yield "vocab not strings", _file_bytes(dict(header, vocab=[1, 2]), body), "'vocab'"
    yield "history missing", without("history"), "'history'"
    yield "history not a list", _file_bytes(dict(header, history=5), body), "'history'"
    yield "history entry not an object", _file_bytes(dict(header, history=[5]), body), "'history'"
    yield "config missing", without("config"), "'config'"
    yield "config bad key", _file_bytes(dict(header, config={"nope": 1}), body), "'config'"
    config = dict(header["config"], hidden_dim=6.5)
    yield "config wrong type", _file_bytes(dict(header, config=config), body), "'config'"
    flat = [["embedding", [math.prod(arrays[0][1])]]] + arrays[1:]
    yield "embedding of the wrong shape", with_arrays(flat), "'embedding'"
    huge = dict(header["config"], hidden_dim=2**40)  # would need petabytes of weights
    yield "hidden size beyond the arrays", _file_bytes(dict(header, config=huge), body), "'config'"
    wide = dict(header["config"], embedding_dim=10**9)  # the arrays are 8 wide
    yield "width not the embedding's", _file_bytes(dict(header, config=wide), body), "'config'"


def _without_clause_attention(header, body):
    """A jcc file as saved when the clause attention could be switched off: the
    flag false in the header and a (2h, 2) projection instead of a (4h, 2) one."""
    names = [name for name, _ in header["arrays"]]
    sizes = [8 * math.prod(shape) for _, shape in header["arrays"]]
    at = names.index("project.weight")
    start = sum(sizes[:at])
    rows, cols = header["arrays"][at][1]
    arrays = list(header["arrays"])
    arrays[at] = ["project.weight", [rows // 2, cols]]
    payload = body[: start + sizes[at] // 2] + body[start + sizes[at] :]
    return _file_bytes(dict(header, clause_attention=False, arrays=arrays), payload)


def test_corrupt_checkpoints_raise_value_error_naming_file_and_entry(tmp_path):
    _, trained = _small_trained()
    good = tmp_path / "good.json"
    save_checkpoint(trained, good)
    cases = list(_corrupt_files(*_split_file(good)))
    _, jcc = _small_trained("jcc")
    save_checkpoint(jcc, good)
    narrow = _without_clause_attention(*_split_file(good))
    cases.append(("jcc without clause attention", narrow, "'project.weight' has shape (12, 2)"))
    for label, bad, needle in cases:
        path = tmp_path / "bad.json"
        path.write_bytes(bad)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        message = str(exc.value)
        assert str(path) in message and needle in message, (label, message)


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()])
def test_failed_save_keeps_the_old_checkpoint(tmp_path, monkeypatch, error):
    _, trained = _small_trained()
    path = tmp_path / "m.json"
    save_checkpoint(trained, path)
    before = path.read_bytes()

    class FailsMidFile:
        def __init__(self, handle):
            self.handle, self.writes = handle, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:  # the header and one array are already written
                raise error
            return self.handle.write(data)

    monkeypatch.setattr(
        models, "open", lambda *a, **kw: FailsMidFile(builtins.open(*a, **kw)), raising=False
    )
    _, other = _small_trained(seed=13)
    for target in (path, tmp_path / "new.json"):
        with pytest.raises(type(error)):
            save_checkpoint(other, target)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file, no partial new.json


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """A small valid checkpoint's bytes, and a path to write damaged copies to."""
    _, trained = _small_trained()
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    save_checkpoint(trained, path)
    return path, path.read_bytes()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_checkpoints_load_or_raise_value_error_naming_file(fuzz_checkpoint, data):
    path, good = fuzz_checkpoint
    path.write_bytes(data.draw(damaged(good)))
    try:
        loaded = load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert all(isinstance(epoch, dict) for epoch in loaded.history)


def test_non_finite_loss_stops_training():
    corpus = toy_corpus(12, seed=13)
    emb = toy_embeddings(corpus, 8)
    emb.matrix[emb.index[corpus[0].tokens[0]]] = np.nan
    for arch in ("sl", "icc", "jcc"):
        with pytest.raises(ValueError, match=r"epoch 1, batch \d+"):
            train(arch, corpus, corpus, emb, TOY)


def test_non_finite_gradient_stops_training_before_the_step(monkeypatch):
    corpus = toy_corpus(4, seed=14)
    steps = []
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(1))
    original = SlModel.loss

    def poisoned(self, units, rng=None):
        # the bias is still zero, so the loss stays finite; its gradient overflows to inf
        return original(self, units, rng) + (self.project.bias * 1e308).sum() * 1e308

    monkeypatch.setattr(SlModel, "loss", poisoned)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="epoch 1, batch 1: gradient of 'project.bias'"):
            train("sl", corpus, corpus, toy_embeddings(corpus, 8), TOY)
    assert steps == []
