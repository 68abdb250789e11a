from __future__ import annotations

import base64
import builtins
import dataclasses
import gc
import json
import math

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
    assert sl.units([inst, other]) == [inst, other]
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
    assert isinstance(icc_predict(model, ["because"]), bool)
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
        return [Instance(f"u{k}", "d", words(len(iob)), list(iob)) for k, iob in enumerate(labels)]
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
        total = model.loss(units[:1], training=False)
        for unit in units[1:]:
            total = total + model.loss([unit], training=False)
        return total

    batched, batched_grads = _loss_and_grads(model, lambda: model.loss(units, False))
    single, single_grads = _loss_and_grads(model, one_by_one)
    assert batched == pytest.approx(single, rel=1e-12, abs=0.0)
    for name, g in single_grads.items():
        assert np.max(np.abs(batched_grads[name] - g)) < 1e-10, name


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_batch_loss_draws_the_same_dropout_masks(arch):
    model, units = _model(arch), ragged_units(arch)
    rng_batch, rng_single = np.random.default_rng(9), np.random.default_rng(9)
    batched = model.loss(units, True, rng_batch).item()
    single = sum(model.loss([u], True, rng_single).item() for u in units)
    assert batched == pytest.approx(single, rel=1e-12, abs=0.0)
    assert rng_batch.random() == rng_single.random()  # both streams at the same point


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_training_step_leaves_no_cyclic_garbage(arch):
    """``backward`` consumes the graph, so dropping the loss frees it by refcount."""
    model, units = _model(arch), ragged_units(arch)
    gc.collect()
    gc.disable()
    try:
        loss = model.loss(units, training=True, rng=np.random.default_rng(2))
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
    loss = model.loss(units, training=True, rng=np.random.default_rng(2))
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
    sizes = [len(u.tokens) for u in units] if arch == "sl" else [len(doc) for doc, _ in units]
    assert projected.shape == (sum(sizes), model.crf.num_labels)


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
    loss = model.loss(units, training=True, rng=np.random.default_rng(2))
    heads = [model.hidden, model.out] if arch == "icc" else [model.project]
    assert projections == heads
    (node,) = attended
    if arch == "sl":
        rows = sum(len(inst.tokens) for inst in units)
    else:  # clause tokens (icc) or clauses (jcc)
        rows = sum(len(seq) for seq, _ in units)
    assert node.shape == (rows, 4 * BATCH_CFG.hidden_dim)
    assert any(n is node for n in _graph_nodes(loss))


def test_batch_with_an_empty_sequence_is_rejected():
    sl, icc, jcc = (_model(arch) for arch in ("sl", "icc", "jcc"))
    with pytest.raises(ValueError, match="empty"):
        sl.loss([Instance("a", "d", ["i", "cried"], ["O", "O"]), Instance("b", "d", [], [])])
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


@pytest.mark.parametrize("arch", ["sl", "icc", "jcc"])
def test_batched_prediction_equals_prediction_one_by_one(arch):
    model, instances = _model(arch), ragged_instances(23)
    assert len(instances) > 2 * model.config.batch_size  # two full chunks and a partial one
    batched = model.predict(instances)
    assert batched == [model.predict([inst])[0] for inst in instances]
    assert batched == _predictions(arch, model, instances)  # icc_predict: one clause at a time


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
    assert loaded.architecture == arch
    assert loaded.config == cfg
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
    return [("embedding", model.embeddings.matrix)] + [
        (p.name, p.data) for p in model.parameters()
    ]


def _split_v3(path):
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header), body


def _v3_bytes(header, body):
    return json.dumps(header).encode("utf-8") + b"\n" + body


def test_checkpoint_stores_exact_binary_payloads(tmp_path):
    _, trained = _small_trained()
    path = tmp_path / "m.json"
    save_checkpoint(trained, path)
    header, body = _split_v3(path)
    assert header["version"] == 3
    arrays = _arrays(trained.model)
    assert header["arrays"] == [[name, list(arr.shape)] for name, arr in arrays]
    at = [name for name, _ in arrays].index("encoder.fwd.w_h")
    start = sum(arr.size * 8 for _, arr in arrays[:at])
    w_h = trained.model.encoder.fwd.w_h.data
    assert body[start : start + w_h.size * 8] == w_h.astype("<f8").tobytes()
    assert header["arrays"][at] == ["encoder.fwd.w_h", list(w_h.shape)]
    # the file is exactly the header line plus every array's bytes, nothing after them
    payload = b"".join(arr.astype("<f8").tobytes() for _, arr in arrays)
    assert path.read_bytes() == _v3_bytes(header, payload)


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
        "architecture": trained.architecture,
        "config": trained.config.to_dict(),
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


def test_loaded_checkpoint_owns_its_arrays(tmp_path):
    corpus, trained = _small_trained()
    path = tmp_path / "m.json"
    save_checkpoint(trained, path)
    loaded = load_checkpoint(path)
    _assert_same_model(loaded, trained, corpus)
    for arr in [loaded.model.embeddings.matrix] + [p.data for p in loaded.model.parameters()]:
        assert arr.flags.owndata and arr.flags.writeable


def _corrupt_v3(header, body):
    """Named ways to damage a valid version-3 file, with the text the error must name."""
    arrays = header["arrays"]
    names = [name for name, _ in arrays]
    at = names.index("project.bias")

    def with_arrays(entries):
        return _v3_bytes(dict(header, arrays=entries), body)

    def with_entry(entry):
        return with_arrays(arrays[:at] + [entry] + arrays[at + 1 :])

    def without(key):
        return _v3_bytes({k: v for k, v in header.items() if k != key}, body)

    good = _v3_bytes(header, body)
    head_len = good.index(b"\n")
    embedding_bytes = 8 * math.prod(arrays[0][1])
    yield "shape not a list", with_entry(["project.bias", "3"]), "'project.bias'"
    yield "negative size", with_entry(["project.bias", [-3]]), "'project.bias'"
    yield "size not an int", with_entry(["project.bias", [3.0]]), "'project.bias'"
    yield "shape beyond the file", with_entry(["project.bias", [10**9] * 2]), "'project.bias'"
    yield "shape of the wrong model", with_entry(["project.bias", [1, 3]]), "'project.bias'"
    yield "entry not a pair", with_entry(["project.bias"]), "'arrays'"
    yield "duplicate name", with_arrays(arrays + [arrays[at]]), "'project.bias' twice"
    yield "arrays missing", without("arrays"), "'arrays'"
    yield "arrays not a list", with_arrays({"project.bias": [3]}), "'arrays'"
    yield "embedding not listed", _v3_bytes(
        dict(header, arrays=arrays[1:]), body[embedding_bytes:]
    ), "'embedding'"
    yield "payload short", good[:-8], f"{names[-1]!r}"
    yield "trailing bytes", good + b"\0" * 8, "8 bytes follow the last array"
    yield "header not UTF-8", b"\xff" + good[1:], "header"
    yield "header not JSON", good[: head_len - 1] + good[head_len:], "header"
    yield "no payload", good[:head_len], "no payload"
    yield "header not an object", _v3_bytes([], body), "not a model checkpoint"
    yield "format wrong", _v3_bytes(dict(header, format="other"), body), "format"
    yield "vocab not strings", _v3_bytes(dict(header, vocab=[1, 2]), body), "'vocab'"
    yield "config missing", without("config"), "'config'"
    yield "config bad key", _v3_bytes(dict(header, config={"nope": 1}), body), "'config'"
    config = dict(header["config"], hidden_dim=6.5)
    yield "config wrong type", _v3_bytes(dict(header, config=config), body), "'config'"
    flat = [["embedding", [math.prod(arrays[0][1])]]] + arrays[1:]
    yield "embedding of the wrong shape", with_arrays(flat), "'embedding'"
    huge = dict(header["config"], hidden_dim=2**40)  # would need petabytes of weights
    yield "hidden size beyond the arrays", _v3_bytes(dict(header, config=huge), body), "'config'"


def _without_clause_attention(header, body):
    """A version-3 jcc file as saved when the clause attention could be switched off: the
    flag false in the header and a (2h, 2) projection instead of a (4h, 2) one."""
    names = [name for name, _ in header["arrays"]]
    sizes = [8 * math.prod(shape) for _, shape in header["arrays"]]
    at = names.index("project.weight")
    start = sum(sizes[:at])
    rows, cols = header["arrays"][at][1]
    arrays = list(header["arrays"])
    arrays[at] = ["project.weight", [rows // 2, cols]]
    payload = body[: start + sizes[at] // 2] + body[start + sizes[at] :]
    return _v3_bytes(dict(header, clause_attention=False, arrays=arrays), payload)


def test_corrupt_checkpoints_raise_value_error_naming_file_and_entry(tmp_path):
    _, trained = _small_trained()
    good = tmp_path / "good.json"
    save_checkpoint(trained, good)
    cases = list(_corrupt_v3(*_split_v3(good)))
    _, jcc = _small_trained("jcc")
    save_checkpoint(jcc, good)
    narrow = _without_clause_attention(*_split_v3(good))
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
        load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)


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

    def poisoned(self, units, training=True, rng=None):
        # the bias is still zero, so the loss stays finite; its gradient overflows to inf
        return original(self, units, training, rng) + (self.project.bias * 1e308).sum() * 1e308

    monkeypatch.setattr(SlModel, "loss", poisoned)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="epoch 1, batch 1: gradient of 'project.bias'"):
            train("sl", corpus, corpus, toy_embeddings(corpus, 8), TOY)
    assert steps == []
