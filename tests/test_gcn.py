import json
import pickle
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socsim.gcn import (
    GcnConfig,
    GcnModel,
    TrainInputs,
    TrainingDiverged,
    adam_step,
    backward,
    evaluate,
    forward,
    init_model,
    load_model,
    loss,
    save_history,
    save_model,
    softmax_rows,
    train,
    train_folds,
    _propagate,
)
from socsim.graph import SocialGraph
from socsim.similarity import SimilaritySpec, build_representative


def toy_graph(n=6, f=3, seed=0, density=0.45):
    rng = np.random.default_rng(seed)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.add((i, j))
    labels = np.arange(n) % 2
    return SocialGraph(n=n, edges=frozenset(edges), features=rng.random((n, f)),
                       sdna_of=labels)


def toy_inputs(g=None, kind="adjacency", seed=0):
    g = g or toy_graph(seed=seed)
    rep = build_representative(g, SimilaritySpec(kind=kind))
    train_mask = np.zeros(g.n, dtype=bool)
    train_mask[: g.n - 2] = True
    return TrainInputs(g_matrix=rep.matrix, x=g.features, labels=g.sdna_of,
                       train_mask=train_mask, test_mask=~train_mask)


def small_cfg(**kw):
    defaults = dict(variant="ftvanilla", layer_units=(5, 4, 3), num_classes=2,
                    dropout_p=0.0, epochs=10, seed=7)
    defaults.update(kw)
    return GcnConfig(**defaults)


def numerical_gradients(model, inputs, cfg, eps=1e-5, dropout_seed=None):
    """Central differences of loss(); with ``dropout_seed`` every forward
    pass trains with dropout and replays the one mask that seed draws."""

    def probs():
        if dropout_seed is None:
            return forward(model, inputs)[0]
        return forward(model, inputs, training=True,
                       rng=np.random.default_rng(dropout_seed))[0]

    grads = {}
    for name, p in model.parameters().items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + eps
            lp = loss(probs(), inputs.labels, inputs.train_mask, model, cfg.weight_decay)
            p[ix] = orig - eps
            lm = loss(probs(), inputs.labels, inputs.train_mask, model, cfg.weight_decay)
            p[ix] = orig
            g[ix] = (lp - lm) / (2 * eps)
        grads[name] = g
    return grads


def assert_gradients_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    for name, a in analytic.items():
        n = numeric[name]
        bound = atol + rtol * np.maximum(np.abs(a), np.abs(n))
        assert np.all(np.abs(a - n) <= bound), f"gradient mismatch for {name}"


GRADIENT_CONFIGS = [
    ("ftvanilla", False, "adjacency"),
    ("ftvanilla", True, "adjacency"),
    ("f", False, "adjacency"),
    ("t", False, "adjacency"),
    ("tlr", False, "adjacency"),
    ("ftvanilla", True, "katz"),
]


@pytest.mark.parametrize("variant,use_s,kind", GRADIENT_CONFIGS)
def test_gradients_match_finite_differences(variant, use_s, kind):
    inputs = toy_inputs(kind=kind)
    cfg = small_cfg(variant=variant, use_s=use_s)
    model = init_model(cfg, inputs.x.shape[0], inputs.x.shape[1])
    probs, cache = forward(model, inputs, training=False)
    analytic = backward(model, cache, inputs)
    numeric = numerical_gradients(model, inputs, cfg)
    assert set(analytic) == set(numeric)
    assert_gradients_close(analytic, numeric)


def row_normalized_inputs():
    """toy_inputs() over D^-1 (A + I): a representative that is not
    symmetric, so a backward pass that forgets a transpose of G shows."""
    inputs = toy_inputs()
    a = inputs.g_matrix > 0
    g = a / a.sum(axis=1, keepdims=True)
    assert not np.allclose(g, g.T)
    return TrainInputs(g_matrix=g, x=inputs.x, labels=inputs.labels,
                       train_mask=inputs.train_mask, test_mask=inputs.test_mask)


def assert_gates_pass_and_block(cache):
    """Every hidden layer passes some units and blocks others, so gradient
    reaches the first layer and the gates' zeros are exercised."""
    for gate in cache["gate"]:
        assert 0 < np.count_nonzero(gate) < gate.size


# (3, 6, 6) hidden units over 2 classes: a widening, an equal and a narrowing
# kernel, so G is propagated before the kernel in some layers and after it
# in others
@pytest.mark.parametrize("variant,use_s", [("ftvanilla", False), ("ftvanilla", True),
                                           ("t", False), ("tlr", False)])
def test_gradients_match_finite_differences_both_association_orders(variant, use_s):
    inputs = row_normalized_inputs()
    cfg = small_cfg(variant=variant, use_s=use_s, layer_units=(3, 6, 6), seed=1)
    model = init_model(cfg, inputs.x.shape[0], inputs.x.shape[1])
    _, cache = forward(model, inputs)
    assert_gates_pass_and_block(cache)
    assert_gradients_close(backward(model, cache, inputs),
                           numerical_gradients(model, inputs, cfg))


@pytest.mark.parametrize("variant,use_s", [("ftvanilla", True), ("tlr", False)])
def test_gradients_match_finite_differences_with_dropout(variant, use_s):
    inputs = toy_inputs(toy_graph(n=8, seed=3))
    cfg = small_cfg(variant=variant, use_s=use_s, layer_units=(6, 6, 3), dropout_p=0.3)
    model = init_model(cfg, inputs.x.shape[0], inputs.x.shape[1])
    _, cache = forward(model, inputs, training=True, rng=np.random.default_rng(5))
    assert_gates_pass_and_block(cache)
    assert {0.0, 1.0 / 0.7} == set(np.concatenate([g.ravel() for g in cache["gate"]]))
    assert_gradients_close(backward(model, cache, inputs),
                           numerical_gradients(model, inputs, cfg, dropout_seed=5))


def test_gradient_vanishes_when_perfectly_fitted():
    # all nodes share one label and the model is saturated on it, so the
    # cross-entropy signal is ~0 and only decay would remain (disabled here)
    n = 5
    g = SocialGraph(n=n, edges=frozenset({(0, 1), (2, 3)}),
                    features=np.ones((n, 2)), sdna_of=np.zeros(n, dtype=np.int64))
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    mask = np.array([True] * 4 + [False])
    inputs = TrainInputs(g_matrix=rep.matrix, x=g.features, labels=g.sdna_of,
                         train_mask=mask, test_mask=~mask)
    cfg = GcnConfig(variant="ftvanilla", layer_units=(), num_classes=2,
                    dropout_p=0.0, weight_decay=0.0, seed=0)
    model = init_model(cfg, n, 2)
    model.parameters()["W0"][:] = [[60.0, -60.0], [60.0, -60.0]]
    _, cache = forward(model, inputs)
    grads = backward(model, cache, inputs)
    assert all(np.linalg.norm(g_) < 1e-8 for g_ in grads.values())


def test_gradient_zero_for_dead_feature_column():
    g = toy_graph()
    x = g.features.copy()
    x[:, 1] = 0.0
    g = SocialGraph(n=g.n, edges=g.edges, features=x, sdna_of=g.sdna_of)
    inputs = toy_inputs(g)
    cfg = small_cfg(use_s=True)
    model = init_model(cfg, g.n, x.shape[1])
    _, cache = forward(model, inputs, training=False)
    grads = backward(model, cache, inputs)
    assert grads["S"][1] == 0.0


def test_forward_identity_chain():
    # one conv layer, identity representative, identity features and kernel
    n = 3
    g = SocialGraph(n=n, edges=frozenset(), features=np.eye(n),
                    sdna_of=np.arange(n) % 3)
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))  # = I
    cfg = GcnConfig(variant="ftvanilla", layer_units=(), num_classes=3,
                    dropout_p=0.0, seed=0)
    model = init_model(cfg, n, n)
    model.parameters()["W0"][:] = np.eye(n)
    mask = np.array([True, True, False])
    inputs = TrainInputs(g_matrix=rep.matrix, x=np.eye(n), labels=g.sdna_of,
                         train_mask=mask, test_mask=~mask)
    probs, cache = forward(model, inputs)
    assert np.array_equal(cache["logits"][0], np.eye(n))
    assert np.allclose(probs, softmax_rows(np.eye(n)))


def test_variant_f_ignores_topology():
    g1 = toy_graph(seed=1)
    g2 = SocialGraph(n=g1.n, edges=frozenset({(0, 1)}), features=g1.features,
                     sdna_of=g1.sdna_of)
    cfg = small_cfg(variant="f")
    model = init_model(cfg, g1.n, g1.features.shape[1])
    p1, _ = forward(model, toy_inputs(g1))
    p2, _ = forward(model, toy_inputs(g2))
    assert np.array_equal(p1, p2)


def test_variant_t_ignores_features():
    g = toy_graph(seed=2)
    shuffled = SocialGraph(n=g.n, edges=g.edges,
                           features=g.features[:, ::-1].copy(), sdna_of=g.sdna_of)
    cfg = small_cfg(variant="t")
    model = init_model(cfg, g.n, g.features.shape[1])
    p1, _ = forward(model, toy_inputs(g))
    p2, _ = forward(model, toy_inputs(shuffled))
    assert np.array_equal(p1, p2)


def test_neighbor_averaging_two_nodes():
    g = SocialGraph(n=2, edges=frozenset({(0, 1)}), features=np.eye(2),
                    sdna_of=np.array([0, 1]))
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    assert np.allclose(rep.matrix, [[0.5, 0.5], [0.5, 0.5]])
    cfg = GcnConfig(variant="ftvanilla", layer_units=(), num_classes=2,
                    dropout_p=0.0, seed=0)
    model = init_model(cfg, 2, 2)
    model.parameters()["W0"][:] = np.eye(2)
    mask = np.array([True, False])
    inputs = TrainInputs(g_matrix=rep.matrix, x=np.eye(2), labels=g.sdna_of,
                         train_mask=mask, test_mask=~mask)
    _, cache = forward(model, inputs)
    assert np.allclose(cache["logits"][0], [[0.5, 0.5], [0.5, 0.5]])


def test_s_at_ones_matches_plain_forward():
    inputs = toy_inputs()
    cfg_s = small_cfg(use_s=True)
    model_s = init_model(cfg_s, inputs.x.shape[0], inputs.x.shape[1])
    model_plain = GcnModel(config=small_cfg(use_s=False),
                           params={name: p.copy() for name, p in model_s.params.items()
                                   if name != "S"})
    p_s, _ = forward(model_s, inputs)
    p_plain, _ = forward(model_plain, inputs)
    assert np.array_equal(p_s, p_plain)


def test_tlr_parameter_count():
    n, units = 10, 4
    g = toy_graph(n=n)
    cfg_tlr = small_cfg(variant="tlr", layer_units=(units, 3, 3))
    cfg_t = small_cfg(variant="t", layer_units=(units, 3, 3))
    tlr = init_model(cfg_tlr, n, g.features.shape[1])
    t = init_model(cfg_t, n, g.features.shape[1])
    first_tlr = tlr.parameters()["Wa"].size + tlr.parameters()["Wb"].size
    assert first_tlr == n + units
    assert t.parameters()["W0"].size == n * units


def test_use_s_rejected_for_topology_variants():
    with pytest.raises(ValueError):
        GcnConfig(variant="t", use_s=True)
    with pytest.raises(ValueError):
        GcnConfig(variant="tlr", use_s=True)


@pytest.mark.parametrize("field,value", [
    ("epochs", -1),
    ("learning_rate", -1.0),
    ("learning_rate", 0.0),
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("num_classes", 0),
    ("layer_units", (-3,)),
    ("layer_units", (4, 0)),
])
def test_config_rejects_bad_training_settings(field, value):
    with pytest.raises(ValueError, match=field):
        GcnConfig(**{field: value})


def test_config_accepts_zero_epochs_and_huge_learning_rate():
    assert GcnConfig(epochs=0).epochs == 0
    assert GcnConfig(learning_rate=1e160).learning_rate == 1e160


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(40, 7)) * 20
    p = softmax_rows(z)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)


# --- loss -------------------------------------------------------------------

def test_loss_perfect_predictions():
    inputs = toy_inputs()
    model = init_model(small_cfg(), inputs.x.shape[0], inputs.x.shape[1])
    probs = np.zeros((inputs.x.shape[0], 2))
    probs[np.arange(inputs.x.shape[0]), inputs.labels] = 1.0
    for w in model.parameters().values():
        w[:] = 0.0
    assert loss(probs, inputs.labels, inputs.train_mask, model, 0.0) == 0.0


def test_loss_uniform_predictions():
    n, classes = 8, 4
    g = toy_graph(n=n)
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    labels = np.arange(n) % classes
    mask = np.ones(n, dtype=bool); mask[-1] = False
    inputs = TrainInputs(g_matrix=rep.matrix, x=g.features, labels=labels,
                         train_mask=mask, test_mask=~mask)
    model = init_model(small_cfg(num_classes=classes), n, g.features.shape[1])
    probs = np.full((n, classes), 1.0 / classes)
    assert loss(probs, labels, mask, model, 0.0) == pytest.approx(np.log(classes))


def test_loss_weight_decay_term():
    inputs = toy_inputs()
    cfg = small_cfg()
    model = init_model(cfg, inputs.x.shape[0], inputs.x.shape[1])
    probs, _ = forward(model, inputs)
    base = loss(probs, inputs.labels, inputs.train_mask, model, 0.0)
    decayed = loss(probs, inputs.labels, inputs.train_mask, model, 0.01)
    params = model.parameters()
    frob = sum((params[f"W{i}"] ** 2).sum() for i in range(3))  # hidden kernels only
    assert decayed - base == pytest.approx(0.01 * frob)


def test_labels_beyond_num_classes_rejected():
    inputs = toy_inputs(toy_graph(n=8))
    labels = np.arange(8) % 4
    four = TrainInputs(g_matrix=inputs.g_matrix, x=inputs.x, labels=labels,
                       train_mask=inputs.train_mask, test_mask=inputs.test_mask)
    model = init_model(small_cfg(), 8, inputs.x.shape[1])
    probs, _ = forward(model, four)
    with pytest.raises(ValueError, match="labels must lie in 0..1 for num_classes=2"):
        loss(probs, labels, four.train_mask, model, 0.0)
    with pytest.raises(ValueError, match="num_classes=2"):
        train_folds([four, four], [small_cfg(seed=1), small_cfg(seed=2)])
    negative = TrainInputs(g_matrix=inputs.g_matrix, x=inputs.x, labels=labels - 1,
                           train_mask=inputs.train_mask, test_mask=inputs.test_mask)
    with pytest.raises(ValueError, match="got -1..2"):
        train_folds([negative], [small_cfg(num_classes=4)])


def test_loss_empty_mask_rejected():
    inputs = toy_inputs()
    model = init_model(small_cfg(), inputs.x.shape[0], inputs.x.shape[1])
    probs, _ = forward(model, inputs)
    with pytest.raises(ValueError):
        loss(probs, inputs.labels, np.zeros(inputs.x.shape[0], dtype=bool), model, 0.0)


# --- adam -------------------------------------------------------------------

def scalar_model(lr=0.01):
    cfg = GcnConfig(variant="ftvanilla", layer_units=(), num_classes=1,
                    learning_rate=lr, dropout_p=0.0, seed=0)
    return GcnModel(config=cfg, params={"W0": np.array([[[1.0]]])})


def test_adam_first_step_magnitude():
    model = scalar_model(lr=0.05)
    adam_step(model, {"W0": np.array([[3.7]])})
    # first Adam step moves by ~lr regardless of gradient scale
    assert model.parameters()["W0"][0, 0] == pytest.approx(1.0 - 0.05, abs=1e-6)


def test_adam_zero_gradient_no_move():
    model = scalar_model()
    adam_step(model, {"W0": np.zeros((1, 1))})
    assert model.parameters()["W0"][0, 0] == 1.0


def test_adam_minimizes_quadratic():
    model = scalar_model(lr=0.1)
    for _ in range(100):
        w = model.parameters()["W0"][0, 0]
        adam_step(model, {"W0": np.array([[2.0 * w]])})
    assert abs(model.parameters()["W0"][0, 0]) < 0.1
    assert model.step == 100


# --- training ----------------------------------------------------------------

def separable_inputs(n=10, seed=3):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    x = rng.random((n, 3)) * 0.1
    x[labels == 1, 0] += 2.0
    g = SocialGraph(n=n, edges=frozenset(), features=x, sdna_of=labels)
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    train_mask = np.ones(n, dtype=bool)
    train_mask[-2:] = False
    return TrainInputs(g_matrix=rep.matrix, x=x, labels=labels, train_mask=train_mask,
                       test_mask=~train_mask)


def test_train_fits_separable_toy():
    inputs = separable_inputs()
    cfg = small_cfg(epochs=200, dropout_p=0.0)
    model, history = train(inputs, cfg)
    probs, _ = forward(model, inputs)
    train_rows = np.flatnonzero(inputs.train_mask)
    acc = (probs.argmax(axis=1)[train_rows] == inputs.labels[train_rows]).mean()
    assert acc == 1.0
    assert len(history) == 200


def test_train_loss_decreases_initially():
    inputs = toy_inputs(toy_graph(n=20, seed=5))
    cfg = small_cfg(epochs=12, dropout_p=0.0)
    _, history = train(inputs, cfg)
    assert history[10]["train_loss"] < history[0]["train_loss"]


def test_train_deterministic_with_dropout():
    inputs = toy_inputs(toy_graph(n=12, seed=6))
    cfg = small_cfg(epochs=15, dropout_p=0.5, seed=21)
    m1, h1 = train(inputs, cfg)
    m2, h2 = train(inputs, cfg)
    assert h1 == h2
    for name, w1 in m1.params.items():
        assert np.array_equal(w1, m2.params[name])


def test_untrained_model_near_chance():
    rng = np.random.default_rng(0)
    n, classes = 400, 4
    labels = np.arange(n) % classes
    g = SocialGraph(n=n, edges=frozenset(), features=rng.random((n, 5)),
                    sdna_of=labels)
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    accs = []
    for seed in range(30):
        mask = np.zeros(n, dtype=bool)
        mask[: n // 2] = True
        inputs = TrainInputs(g_matrix=rep.matrix, x=g.features, labels=labels,
                             train_mask=mask, test_mask=~mask)
        cfg = small_cfg(num_classes=classes, epochs=0, seed=seed)
        model, history = train(inputs, cfg)
        assert history == []
        accs.append(evaluate(model, inputs))
    assert abs(np.mean(accs) - 0.25) < 0.06


def test_evaluate_extremes():
    inputs = separable_inputs()
    cfg = small_cfg(epochs=200)
    model, _ = train(inputs, cfg)
    assert evaluate(model, inputs) in (0.0, 0.5, 1.0)
    single_mask = np.zeros(inputs.x.shape[0], dtype=bool)
    single_mask[-1] = True
    single = TrainInputs(g_matrix=inputs.g_matrix, x=inputs.x, labels=inputs.labels,
                         train_mask=inputs.train_mask, test_mask=single_mask)
    assert evaluate(model, single) in (0.0, 1.0)


def test_evaluate_empty_mask_rejected():
    inputs = separable_inputs()
    model = init_model(small_cfg(), inputs.x.shape[0], inputs.x.shape[1])
    empty = TrainInputs(g_matrix=inputs.g_matrix, x=inputs.x, labels=inputs.labels,
                        train_mask=inputs.train_mask,
                        test_mask=np.zeros(inputs.x.shape[0], dtype=bool))
    with pytest.raises(ValueError):
        evaluate(model, empty)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reports_epoch_and_norms():
    inputs = separable_inputs()
    # first step overflows the kernels, second epoch's loss goes non-finite
    cfg = small_cfg(epochs=50, learning_rate=1e160, weight_decay=0.0005)
    with pytest.raises(TrainingDiverged) as err:
        train(inputs, cfg)
    assert err.value.epoch > 0
    assert err.value.norms


def test_training_diverged_pickles():
    exc = TrainingDiverged(3, {"kernel0": float("inf"), "kernel1": 2.5}, fold=2)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is TrainingDiverged
    assert back.epoch == 3
    assert back.norms == exc.norms
    assert back.fold == 2
    assert str(back) == str(exc)


def fold_inputs(inputs, k=3):
    """k folds over the same graph: fold i tests on node i, trains on the rest."""
    n = inputs.x.shape[0]
    out = []
    for fold in range(k):
        test = np.zeros(n, dtype=bool)
        test[fold] = True
        out.append(TrainInputs(g_matrix=inputs.g_matrix, x=inputs.x, labels=inputs.labels,
                               train_mask=~test, test_mask=test))
    return out


def assert_train_folds_matches_train_then_evaluate(**cfg):
    folds = fold_inputs(toy_inputs(toy_graph(n=12, seed=6)))
    cfgs = [small_cfg(layer_units=(8, 8), dropout_p=0.5, epochs=15, seed=s, **cfg)
            for s in (4, 5, 6)]
    alone = [evaluate(train(inputs, cfg)[0], inputs) for inputs, cfg in zip(folds, cfgs)]
    assert train_folds(folds, cfgs) == alone


def test_train_folds_matches_train_then_evaluate():
    assert_train_folds_matches_train_then_evaluate()


# a 4-class output propagates its kernel's output one fold at a time; so
# does TLR's width-1 first layer
@pytest.mark.parametrize("variant,use_s,num_classes", [
    ("ftvanilla", False, 4),
    ("ftvanilla", True, 4),
    ("tlr", False, 4),
    ("tlr", False, 2),
])
def test_train_folds_matches_train_then_evaluate_per_fold_products(variant, use_s, num_classes):
    assert_train_folds_matches_train_then_evaluate(variant=variant, use_s=use_s,
                                                   num_classes=num_classes)


def test_narrow_products_equal_each_fold_alone():
    # side by side, the k products of a stack under 8 columns per fold
    # changed their last bits against each fold's own product at n = 200
    rng = np.random.default_rng(0)
    g = rng.random((200, 200))
    for width in range(1, 8):
        h = rng.normal(size=(10, 200, width))
        stack = _propagate(g, h)
        for fold in range(10):
            assert np.array_equal(stack[fold], g @ h[fold]), f"width {width}"


def test_train_folds_rejects_mismatched_folds():
    inputs = toy_inputs()
    folds = fold_inputs(inputs, k=2)
    with pytest.raises(ValueError):
        train_folds(folds, [small_cfg(seed=1)])
    with pytest.raises(ValueError):
        train_folds(folds, [small_cfg(seed=1), small_cfg(seed=2, epochs=3)])
    other = TrainInputs(g_matrix=inputs.g_matrix, x=inputs.x + 1.0, labels=inputs.labels,
                        train_mask=inputs.train_mask, test_mask=inputs.test_mask)
    with pytest.raises(ValueError):
        train_folds([folds[0], other], [small_cfg(seed=1), small_cfg(seed=2)])


def test_train_folds_empty_masks_rejected():
    inputs = toy_inputs()
    empty = np.zeros(inputs.x.shape[0], dtype=bool)
    no_test = TrainInputs(g_matrix=inputs.g_matrix, x=inputs.x, labels=inputs.labels,
                          train_mask=inputs.train_mask, test_mask=empty)
    with pytest.raises(ValueError, match="empty test mask"):
        train_folds([inputs, no_test], [small_cfg(seed=1), small_cfg(seed=2)])
    no_train = TrainInputs(g_matrix=inputs.g_matrix, x=inputs.x, labels=inputs.labels,
                           train_mask=empty, test_mask=inputs.test_mask)
    with pytest.raises(ValueError, match="empty training mask"):
        train_folds([inputs, no_train], [small_cfg(seed=1), small_cfg(seed=2)])


def test_masks_must_be_disjoint():
    inputs = separable_inputs()
    with pytest.raises(ValueError):
        TrainInputs(g_matrix=inputs.g_matrix, x=inputs.x, labels=inputs.labels,
                    train_mask=inputs.train_mask, test_mask=inputs.train_mask)


# --- persistence --------------------------------------------------------------

@pytest.mark.parametrize("variant,use_s", [("ftvanilla", True), ("tlr", False)])
def test_model_checkpoint_round_trip(tmp_path, variant, use_s):
    inputs = toy_inputs()
    cfg = small_cfg(variant=variant, use_s=use_s, epochs=5)
    model, _ = train(inputs, cfg)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.config == model.config
    p1, p2 = forward(model, inputs)[0], forward(back, inputs)[0]
    assert np.array_equal(p1, p2)


@st.composite
def model_configs(draw):
    variant = draw(st.sampled_from(["ftvanilla", "f", "t", "tlr"]))
    use_s = variant in ("ftvanilla", "f") and draw(st.booleans())
    units = draw(st.lists(st.integers(1, 3), max_size=3))
    return small_cfg(variant=variant, use_s=use_s, layer_units=units)


@given(model_configs())
@settings(max_examples=15, deadline=None)
def test_model_checkpoint_cut_at_every_length_rejected(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(init_model(cfg, 4, 3), path)
        data = path.read_bytes()
        assert load_model(path).config == cfg
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_model(path)
        path.write_bytes(data + b"\x00")
        with pytest.raises(ValueError, match="1 bytes after the last tensor"):
            load_model(path)


def test_model_checkpoint_tensors_must_match_config(tmp_path):
    path = tmp_path / "model.bin"
    plain = init_model(small_cfg(), 4, 3)
    save_model(GcnModel(config=small_cfg(use_s=True), params=plain.params), path)
    expected = r"do not match the config's \['W0', 'W1', 'W2', 'W3', 'S'\]"
    with pytest.raises(ValueError, match=expected):
        load_model(path)
    save_model(GcnModel(config=small_cfg(variant="tlr"), params=plain.params), path)
    with pytest.raises(ValueError, match="do not match"):
        load_model(path)


def test_model_checkpoint_unknown_config_key_rejected(tmp_path):
    blob = json.dumps(small_cfg().to_dict() | {"bogus": 1}).encode()
    path = tmp_path / "model.bin"
    path.write_bytes(b"SOCM" + struct.pack("<I", len(blob)) + blob + struct.pack("<I", 0))
    with pytest.raises(ValueError, match="bad config.*bogus"):
        load_model(path)


def test_history_csv(tmp_path):
    inputs = toy_inputs()
    _, history = train(inputs, small_cfg(epochs=3))
    path = tmp_path / "history.csv"
    save_history(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,test_acc"
    assert len(lines) == 4
