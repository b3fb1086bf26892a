import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from socsim import _openblas, gcn
from socsim._openblas import _one_blas_thread
from socsim.gcn import (
    GcnConfig,
    GcnModel,
    TrainInputs,
    TrainingDiverged,
    train_folds,
    _Rows,
    _Workspace,
    _adam_step,
    _backward,
    _bit_symmetric,
    _by_live_rows,
    _fit,
    _forward,
    _init_params,
    _live_rows,
    _LiveRows,
    _losses,
    _panels,
    _propagate,
    _softmax,
    _stack,
    _stacked,
    _steps,
)
from socsim.graph import SocialGraph
from socsim.rng import derive_rng
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
    test_mask = np.zeros((1, g.n), dtype=bool)
    test_mask[0, g.n - 2:] = True
    return TrainInputs(g_matrix=rep.matrix, x=g.features, labels=g.sdna_of, test_mask=test_mask)


def small_cfg(**kw):
    defaults = dict(variant="ftvanilla", layer_units=(5, 4, 3), num_classes=2,
                    dropout_p=0.0, epochs=10)
    defaults.update(kw)
    return GcnConfig(**defaults)


def one_model(cfg, n_nodes, n_features, seed=7):
    """A fresh k = 1 model, initialised from ``seed``."""
    return GcnModel(cfg, _init_params(cfg, [seed], n_nodes, n_features))


def softmax(z):
    return _softmax(z, np.empty_like(z), np.empty((*z.shape[:-1], 1)))


def epoch(model, inputs, dropout_seeds=None):
    """What a _fit() epoch computes before its Adam step, on a fresh
    _Workspace: _forward(), _losses() and _backward() of the stack
    ``model`` over the (k, n) test mask of ``inputs``.  With ``dropout_seeds``
    the forward pass trains with dropout, fold i drawing its masks from a
    generator seeded with ``dropout_seeds[i]``.  Returns the rows, the
    workspace, the probabilities, the cache, each fold's loss and the
    gradients."""
    rows = _Rows(inputs, model.config.num_classes, len(inputs.test_mask))
    ws = _Workspace(model, inputs)
    rngs = None if dropout_seeds is None else [np.random.default_rng(s) for s in dropout_seeds]
    probs, cache = _forward(model, ws, training=rngs is not None, rngs=rngs)
    losses = _losses(probs, rows, model.params, ws.decayed, model.config.weight_decay)
    grads = _backward(model, cache, rows, ws)
    return SimpleNamespace(rows=rows, ws=ws, probs=probs, cache=cache, losses=losses,
                           grads=grads)


def numerical_gradients(model, inputs, eps=1e-5, dropout_seeds=None):
    """Central differences of each fold's _losses() entry w.r.t. that
    fold's own parameters, laid out as ``model.params``; a step in fold
    i's parameters must leave every other fold's loss as it was.  With
    ``dropout_seeds`` every forward pass replays the masks they draw."""
    base = epoch(model, inputs, dropout_seeds).losses
    grads = {}
    for name, p in model.params.items():  # fold axis first
        g = np.zeros_like(p)
        for ix in np.ndindex(p.shape):
            orig = p[ix]
            p[ix] = orig + eps
            lp = epoch(model, inputs, dropout_seeds).losses
            p[ix] = orig - eps
            lm = epoch(model, inputs, dropout_seeds).losses
            p[ix] = orig
            fold = ix[0]
            g[ix] = (lp[fold] - lm[fold]) / (2 * eps)
            others = [f for f in range(len(base)) if f != fold]
            assert [lp[f] for f in others] == [lm[f] for f in others] == [base[f] for f in others]
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
    model = one_model(cfg, inputs.x.shape[0], inputs.x.shape[1])
    analytic = epoch(model, inputs).grads
    numeric = numerical_gradients(model, inputs)
    assert set(analytic) == set(numeric)
    assert_gradients_close(analytic, numeric)


# two folds over different training rows, every variant and S: each fold's
# gradient is that of its own loss, and no other fold's loss moves with it
@pytest.mark.parametrize("variant,use_s", [("ftvanilla", False), ("ftvanilla", True),
                                           ("f", True), ("t", False), ("tlr", False)])
def test_stack_gradients_match_finite_differences_fold_by_fold(variant, use_s):
    inputs = toy_inputs(toy_graph(n=8, seed=3))
    test = np.zeros((2, 8), dtype=bool)
    test[0, [1, 6]] = test[1, [2, 4]] = True
    folds = replace(inputs, test_mask=test)
    cfg = small_cfg(variant=variant, use_s=use_s, layer_units=(4, 3))
    model = GcnModel(cfg, _init_params(cfg, [1, 2], *folds.x.shape))
    run = epoch(model, folds)
    assert run.losses[0] != run.losses[1]
    for fold in range(2):
        assert_gates_pass_and_block([gate[fold] for gate in run.cache["gate"]])
    assert_gradients_close(run.grads, numerical_gradients(model, folds))


def row_normalized_inputs():
    """toy_inputs() over D^-1 (A + I): a representative that is not
    symmetric, so a backward pass that forgets a transpose of G shows."""
    inputs = toy_inputs()
    a = inputs.g_matrix > 0
    g = a / a.sum(axis=1, keepdims=True)
    assert not np.allclose(g, g.T)
    return replace(inputs, g_matrix=g)


def assert_gates_pass_and_block(gates):
    """Every hidden layer passes some units and blocks others, so gradient
    reaches the first layer and the gates' zeros are exercised."""
    for gate in gates:
        assert 0 < np.count_nonzero(gate) < gate.size


# (3, 6, 6) hidden units over 2 classes: a widening, an equal and a narrowing
# kernel, so G is propagated before the kernel in some layers and after it
# in others
@pytest.mark.parametrize("variant,use_s", [("ftvanilla", False), ("ftvanilla", True),
                                           ("t", False), ("tlr", False)])
def test_gradients_match_finite_differences_both_association_orders(variant, use_s):
    inputs = row_normalized_inputs()
    cfg = small_cfg(variant=variant, use_s=use_s, layer_units=(3, 6, 6))
    model = one_model(cfg, inputs.x.shape[0], inputs.x.shape[1], seed=1)
    run = epoch(model, inputs)
    assert_gates_pass_and_block(run.cache["gate"])
    assert_gradients_close(run.grads, numerical_gradients(model, inputs))


@pytest.mark.parametrize("variant,use_s", [("ftvanilla", True), ("tlr", False)])
def test_gradients_match_finite_differences_with_dropout(variant, use_s):
    inputs = toy_inputs(toy_graph(n=8, seed=3))
    cfg = small_cfg(variant=variant, use_s=use_s, layer_units=(6, 6, 3), dropout_p=0.3)
    model = one_model(cfg, inputs.x.shape[0], inputs.x.shape[1])
    run = epoch(model, inputs, dropout_seeds=[5])
    assert_gates_pass_and_block(run.cache["gate"])
    assert {0.0, 1.0 / 0.7} == set(np.concatenate([g.ravel() for g in run.cache["gate"]]))
    assert_gradients_close(run.grads, numerical_gradients(model, inputs, dropout_seeds=[5]))


def test_gradient_vanishes_when_perfectly_fitted():
    # all nodes share one label and the model is saturated on it, so the
    # cross-entropy signal is ~0 and only decay would remain (disabled here)
    n = 5
    g = SocialGraph(n=n, edges=frozenset({(0, 1), (2, 3)}),
                    features=np.ones((n, 2)), sdna_of=np.zeros(n, dtype=np.int64))
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    mask = np.array([[True] * 4 + [False]])
    inputs = TrainInputs(g_matrix=rep.matrix, x=g.features, labels=g.sdna_of,
                         test_mask=~mask)
    cfg = GcnConfig(variant="ftvanilla", layer_units=(), num_classes=2,
                    dropout_p=0.0, weight_decay=0.0)
    model = one_model(cfg, n, 2, seed=0)
    model.params["W0"][0] = [[60.0, -60.0], [60.0, -60.0]]
    grads = epoch(model, inputs).grads
    assert all(np.linalg.norm(g_) < 1e-8 for g_ in grads.values())


def test_gradient_zero_for_dead_feature_column():
    g = toy_graph()
    x = g.features.copy()
    x[:, 1] = 0.0
    g = SocialGraph(n=g.n, edges=g.edges, features=x, sdna_of=g.sdna_of)
    inputs = toy_inputs(g)
    cfg = small_cfg(use_s=True)
    model = one_model(cfg, g.n, x.shape[1])
    assert epoch(model, inputs).grads["S"][0, 1] == 0.0


def test_forward_identity_chain():
    # one conv layer, identity representative, identity features and kernel
    n = 3
    g = SocialGraph(n=n, edges=frozenset(), features=np.eye(n),
                    sdna_of=np.arange(n) % 3)
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))  # = I
    cfg = GcnConfig(variant="ftvanilla", layer_units=(), num_classes=3,
                    dropout_p=0.0)
    model = one_model(cfg, n, n, seed=0)
    model.params["W0"][0] = np.eye(n)
    mask = np.array([[True, True, False]])
    inputs = TrainInputs(g_matrix=rep.matrix, x=np.eye(n), labels=g.sdna_of,
                         test_mask=~mask)
    probs, cache = _forward(model, _Workspace(model, inputs))
    assert np.array_equal(cache["logits"][0], np.eye(n))
    assert np.allclose(probs[0], softmax(np.eye(n)))


def test_variant_f_ignores_topology():
    g1 = toy_graph(seed=1)
    g2 = SocialGraph(n=g1.n, edges=frozenset({(0, 1)}), features=g1.features,
                     sdna_of=g1.sdna_of)
    cfg = small_cfg(variant="f")
    model = one_model(cfg, g1.n, g1.features.shape[1])
    p1, p2 = epoch(model, toy_inputs(g1)).probs, epoch(model, toy_inputs(g2)).probs
    assert np.array_equal(p1, p2)


def test_variant_t_ignores_features():
    g = toy_graph(seed=2)
    shuffled = SocialGraph(n=g.n, edges=g.edges,
                           features=g.features[:, ::-1].copy(), sdna_of=g.sdna_of)
    cfg = small_cfg(variant="t")
    model = one_model(cfg, g.n, g.features.shape[1])
    p1, p2 = epoch(model, toy_inputs(g)).probs, epoch(model, toy_inputs(shuffled)).probs
    assert np.array_equal(p1, p2)


def test_neighbor_averaging_two_nodes():
    g = SocialGraph(n=2, edges=frozenset({(0, 1)}), features=np.eye(2),
                    sdna_of=np.array([0, 1]))
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    assert np.allclose(rep.matrix, [[0.5, 0.5], [0.5, 0.5]])
    cfg = GcnConfig(variant="ftvanilla", layer_units=(), num_classes=2,
                    dropout_p=0.0)
    model = one_model(cfg, 2, 2, seed=0)
    model.params["W0"][0] = np.eye(2)
    mask = np.array([[True, False]])
    inputs = TrainInputs(g_matrix=rep.matrix, x=np.eye(2), labels=g.sdna_of,
                         test_mask=~mask)
    _, cache = _forward(model, _Workspace(model, inputs))
    assert np.allclose(cache["logits"][0], [[0.5, 0.5], [0.5, 0.5]])


def test_s_at_ones_matches_plain_forward():
    inputs = toy_inputs()
    cfg_s = small_cfg(use_s=True)
    model_s = one_model(cfg_s, inputs.x.shape[0], inputs.x.shape[1])
    model_plain = GcnModel(config=small_cfg(use_s=False),
                           params={name: p.copy() for name, p in model_s.params.items()
                                   if name != "S"})
    assert np.array_equal(epoch(model_s, inputs).probs, epoch(model_plain, inputs).probs)


def test_tlr_parameter_count():
    n, units = 10, 4
    g = toy_graph(n=n)
    cfg_tlr = small_cfg(variant="tlr", layer_units=(units, 3, 3))
    cfg_t = small_cfg(variant="t", layer_units=(units, 3, 3))
    tlr = one_model(cfg_tlr, n, g.features.shape[1])
    t = one_model(cfg_t, n, g.features.shape[1])
    first_tlr = tlr.params["Wa"][0].size + tlr.params["Wb"][0].size
    assert first_tlr == n + units
    assert t.params["W0"][0].size == n * units


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
    ("epochs", 2.5),
    ("weight_decay", float("nan")),
    ("weight_decay", -1.0),
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
    p = softmax(z)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)


# rows of logits whose max is a corner case, cut to each class count
SOFTMAX_ROWS = np.array([
    [3.0, 3.0, 1.0, 3.0, -2.0, 3.0, 0.5],  # tied maxima
    [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
    [-0.0] * 7,
    [0.0, -0.0, -1.0, -0.0, 0.0, -3.0, 0.0],
    [np.inf, 1.0, np.inf, -np.inf, 0.0, 2.0, 3.0],
    [1.0, -np.inf, 2.0, -np.inf, 0.0, -np.inf, 5.0],
    [-np.inf] * 7,
    [np.nan] * 7,
    [1.0, np.nan, 2.0, 0.0, -1.0, 4.0, 3.0],
    [-5.0, -1.0, -3.0, -1.0, -2.0, -9.0, -4.0],
])


# n = 200 stores every class count's stack fold by fold, n = 520 stores 4
# classes side by side and 7 fold by fold
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("classes", [1, 4, 7])
@pytest.mark.parametrize("n", [200, 520])
def test_softmax_equals_the_row_max_formula_bit_for_bit(n, classes):
    # a running maximum over the class columns is the row's max, so the
    # probabilities keep every bit of exp(z - max(z)) / sum
    k = 3
    assert _stacked(n, classes) == (n == 520 and classes == 4)
    z = _stack(np.empty(k * n * classes), k, n, classes)
    z[...] = np.random.default_rng(n + classes).normal(size=z.shape) * 30
    z[:, :len(SOFTMAX_ROWS)] = SOFTMAX_ROWS[:, :classes]
    out = _softmax(z, _stack(np.empty(k * n * classes), k, n, classes), np.empty((k, n, 1)))
    shifted = np.exp(z - np.max(z, axis=-1, keepdims=True))
    expected = shifted / np.sum(shifted, axis=-1, keepdims=True)
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))


# --- loss -------------------------------------------------------------------

def losses_of(run, model, probs, weight_decay):
    """_losses() of ``probs`` (k, n, classes) over the rows of an epoch()
    run, under ``model``'s kernels and ``weight_decay``."""
    return _losses(probs, run.rows, model.params, run.ws.decayed, weight_decay)


def test_loss_perfect_predictions():
    inputs = toy_inputs()
    model = one_model(small_cfg(), inputs.x.shape[0], inputs.x.shape[1])
    probs = np.zeros((1, inputs.x.shape[0], 2))
    probs[0, np.arange(inputs.x.shape[0]), inputs.labels] = 1.0
    for w in model.params.values():
        w[:] = 0.0
    assert losses_of(epoch(model, inputs), model, probs, 0.0) == [0.0]


def test_loss_uniform_predictions():
    n, classes = 8, 4
    g = toy_graph(n=n)
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    labels = np.arange(n) % classes
    mask = np.ones((1, n), dtype=bool); mask[0, -1] = False
    inputs = TrainInputs(g_matrix=rep.matrix, x=g.features, labels=labels,
                         test_mask=~mask)
    model = one_model(small_cfg(num_classes=classes), n, g.features.shape[1])
    probs = np.full((1, n, classes), 1.0 / classes)
    (uniform,) = losses_of(epoch(model, inputs), model, probs, 0.0)
    assert uniform == pytest.approx(np.log(classes))


def test_loss_weight_decay_term():
    inputs = toy_inputs()
    cfg = small_cfg()
    model = one_model(cfg, inputs.x.shape[0], inputs.x.shape[1])
    run = epoch(model, inputs)
    (base,), (decayed,) = (losses_of(run, model, run.probs, wd) for wd in (0.0, 0.01))
    params = {name: p[0] for name, p in model.params.items()}
    frob = sum((params[f"W{i}"] ** 2).sum() for i in range(3))  # hidden kernels only
    assert decayed - base == pytest.approx(0.01 * frob)


# the kernels each variant decays at 0 and 2 hidden layers: all but the
# output layer's, which is tlr's factored Wa, Wb when it has no hidden layer
@pytest.mark.parametrize("variant,units,decayed", [
    ("ftvanilla", (), []),
    ("f", (), []),
    ("t", (), []),
    ("tlr", (), []),
    ("ftvanilla", (4, 3), ["W0", "W1"]),
    ("f", (4, 3), ["W0", "W1"]),
    ("t", (4, 3), ["W0", "W1"]),
    ("tlr", (4, 3), ["Wa", "Wb", "W1"]),
])
def test_weight_decay_spares_the_output_layer(variant, units, decayed):
    inputs = toy_inputs()
    cfg = small_cfg(variant=variant, layer_units=units, weight_decay=0.01)
    model = one_model(cfg, inputs.x.shape[0], inputs.x.shape[1])
    run = epoch(model, inputs)
    assert run.ws.decayed == decayed
    params = {name: p[0] for name, p in model.params.items()}
    frob = sum((params[name] ** 2).sum() for name in decayed)
    (with_decay,), (without,) = (losses_of(run, model, run.probs, wd) for wd in (0.01, 0.0))
    assert with_decay - without == pytest.approx(0.01 * frob, abs=1e-15)
    # the first _backward consumed run's cache: a fresh epoch takes the undecayed gradients
    plain = epoch(GcnModel(replace(cfg, weight_decay=0.0), model.params), inputs).grads
    for name, grad in run.grads.items():
        expected = 2 * 0.01 * params[name] if name in decayed else np.zeros_like(grad[0])
        assert np.allclose(grad[0] - plain[name][0], expected, rtol=1e-9, atol=1e-15), name


def test_labels_beyond_num_classes_rejected():
    inputs = toy_inputs(toy_graph(n=8))
    labels = np.arange(8) % 4
    four = replace(inputs, labels=labels)
    model = one_model(small_cfg(), 8, inputs.x.shape[1])
    with pytest.raises(ValueError, match="labels must lie in 0..1 for num_classes=2"):
        epoch(model, four)
    with pytest.raises(ValueError, match="num_classes=2"):
        train_folds(fold_inputs(four, k=2), small_cfg(), [1, 2])
    negative = replace(inputs, labels=labels - 1)
    with pytest.raises(ValueError, match="got -1..2"):
        train_folds(negative, small_cfg(num_classes=4), [7])


def test_empty_training_mask_rejected_unless_no_epoch_runs():
    inputs = toy_inputs()
    untrained = replace(inputs, test_mask=np.ones_like(inputs.test_mask))
    with pytest.raises(ValueError, match="empty training mask"):
        train_folds(untrained, small_cfg(), [7])
    assert 0.0 <= train_folds(untrained, small_cfg(epochs=0), [7])[0] <= 1.0


# --- adam -------------------------------------------------------------------

def scalar_model(lr=0.01):
    cfg = GcnConfig(variant="ftvanilla", layer_units=(), num_classes=1,
                    learning_rate=lr, dropout_p=0.0)
    return GcnModel(config=cfg, params={"W0": np.array([[[1.0]]])})


def scalar_step(model, grad):
    """One _adam_step() of a scalar_model() on the gradient ``grad``."""
    _adam_step(model, {"W0": np.full((1, 1, 1), grad)}, {"W0": np.empty((1, 1, 1))})


def test_adam_first_step_magnitude():
    model = scalar_model(lr=0.05)
    scalar_step(model, 3.7)
    # first Adam step moves by ~lr regardless of gradient scale
    assert model.params["W0"][0, 0, 0] == pytest.approx(1.0 - 0.05, abs=1e-6)


def test_adam_zero_gradient_no_move():
    model = scalar_model()
    scalar_step(model, 0.0)
    assert model.params["W0"][0, 0, 0] == 1.0


def test_adam_minimizes_quadratic():
    model = scalar_model(lr=0.1)
    for _ in range(100):
        scalar_step(model, 2.0 * model.params["W0"][0, 0, 0])
    assert abs(model.params["W0"][0, 0, 0]) < 0.1
    assert model.step == 100


# --- training ----------------------------------------------------------------

def separable_inputs(n=10, seed=3):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    x = rng.random((n, 3)) * 0.1
    x[labels == 1, 0] += 2.0
    g = SocialGraph(n=n, edges=frozenset(), features=x, sdna_of=labels)
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    test_mask = np.zeros((1, n), dtype=bool)
    test_mask[0, -2:] = True
    return TrainInputs(g_matrix=rep.matrix, x=x, labels=labels, test_mask=test_mask)


def test_train_fits_separable_toy():
    # every node held out in turn: ten leave-one-out folds from one seed,
    # each one right
    folds = fold_inputs(separable_inputs(), k=10)
    cfg = small_cfg(epochs=200, dropout_p=0.0)
    seed = 7
    assert train_folds(folds, cfg, [seed] * 10) == [1.0] * 10


def test_train_loss_decreases_initially():
    inputs = toy_inputs(toy_graph(n=20, seed=5))
    cfg = small_cfg(epochs=12, dropout_p=0.0)
    model = one_model(cfg, *inputs.x.shape)
    before = epoch(model, inputs).losses
    _fit(model, _Rows(inputs, cfg.num_classes), [], _Workspace(model, inputs), 10)
    assert epoch(model, inputs).losses[0] < before[0]


def test_train_deterministic_with_dropout():
    folds = fold_inputs(toy_inputs(toy_graph(n=12, seed=6)), k=12)
    cfg = small_cfg(epochs=15, dropout_p=0.5)
    seeds = list(range(21, 33))
    assert train_folds(folds, cfg, seeds) == train_folds(folds, cfg, seeds)
    first, second = fit_stack(folds, cfg, seeds), fit_stack(folds, cfg, seeds)
    for name, w1 in first.items():
        assert np.array_equal(w1, second[name]), name


def test_untrained_model_near_chance():
    rng = np.random.default_rng(0)
    n, classes, seeds = 400, 4, list(range(30))
    labels = np.arange(n) % classes
    g = SocialGraph(n=n, edges=frozenset(), features=rng.random((n, 5)),
                    sdna_of=labels)
    rep = build_representative(g, SimilaritySpec(kind="adjacency"))
    mask = np.zeros((len(seeds), n), dtype=bool)
    mask[:, : n // 2] = True
    inputs = TrainInputs(g_matrix=rep.matrix, x=g.features, labels=labels,
                         test_mask=~mask)
    accs = train_folds(inputs, small_cfg(num_classes=classes, epochs=0), seeds)
    assert abs(np.mean(accs) - 0.25) < 0.06


def test_evaluate_extremes():
    # two test nodes, then one
    inputs = separable_inputs()
    single_mask = np.zeros_like(inputs.test_mask)
    single_mask[0, -1] = True
    both = replace(inputs, test_mask=np.concatenate([inputs.test_mask, single_mask]))
    two, one = train_folds(both, small_cfg(epochs=200), [7, 7])
    assert two in (0.0, 0.5, 1.0)
    assert one in (0.0, 1.0)


def test_evaluate_empty_mask_rejected():
    inputs = separable_inputs()
    empty = replace(inputs, test_mask=np.zeros_like(inputs.test_mask))
    for epochs in (0, 10):
        with pytest.raises(ValueError, match="empty test mask"):
            train_folds(empty, small_cfg(epochs=epochs), [7])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reports_epoch_and_norms():
    inputs = separable_inputs()
    # first step overflows the kernels, second epoch's loss goes non-finite
    cfg = small_cfg(epochs=50, learning_rate=1e160, weight_decay=0.0005)
    with pytest.raises(TrainingDiverged) as err:
        train_folds(inputs, cfg, [7])
    assert err.value.epoch > 0
    assert err.value.norms
    assert err.value.fold == 0


def test_training_diverged_pickles():
    exc = TrainingDiverged(3, {"kernel0": float("inf"), "kernel1": 2.5}, fold=2)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is TrainingDiverged
    assert back.epoch == 3
    assert back.norms == exc.norms
    assert back.fold == 2
    assert str(back) == str(exc)


def test_train_folds_runs_blas_on_one_thread_and_gives_the_callers_count_back(monkeypatch):
    setter = _openblas._blas_thread_setter()
    if setter is None or _openblas.blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread setter and getter")
    fit, seen = gcn._fit, []

    def watching(*args):
        seen.append(_openblas.blas_threads())
        return fit(*args)

    def failing(*args):
        seen.append(_openblas.blas_threads())
        raise RuntimeError("a fit that stops early")

    inputs, cfg = toy_inputs(), small_cfg(epochs=2)
    before = _openblas.blas_threads()
    setter(2)  # a library caller running more than one BLAS thread, on any host
    try:
        monkeypatch.setattr(gcn, "_fit", watching)
        train_folds(inputs, cfg, [1])
        assert seen == [1] and _openblas.blas_threads() == 2
        monkeypatch.setattr(gcn, "_fit", failing)
        with pytest.raises(RuntimeError, match="stops early"):
            train_folds(inputs, cfg, [1])
        assert seen == [1, 1] and _openblas.blas_threads() == 2
    finally:
        setter(before)


def fold_inputs(inputs, k=3):
    """k folds over the same graph, a (k, n) test mask: fold i tests on
    node i, trains on the rest."""
    return replace(inputs, test_mask=np.eye(k, inputs.x.shape[0], dtype=bool))


def one_fold(folds, fold):
    """Fold ``fold`` of a fold_inputs() stack as a k = 1 stack's inputs,
    with a (1, n) test mask."""
    return replace(folds, test_mask=folds.test_mask[fold:fold + 1])


def fit_stack(inputs, cfg, seeds):
    """The parameters train_folds() trains, fold i from ``seeds[i]``."""
    model = GcnModel(cfg, _init_params(cfg, seeds, *inputs.x.shape))
    _fit(model, _Rows(inputs, cfg.num_classes, len(seeds)),
         [derive_rng(seed, "dropout") for seed in seeds], _Workspace(model, inputs), cfg.epochs)
    return model.params


def assert_train_folds_matches_each_fold_alone(n=12, **cfg):
    """The stack's accuracies, and its trained parameters bit for bit,
    equal those of each fold trained alone as a k = 1 stack from its own
    seed, on an ``n``-node graph."""
    folds = fold_inputs(toy_inputs(toy_graph(n=n, seed=6)))
    cfg = small_cfg(**{"layer_units": (8, 8), "dropout_p": 0.5, "epochs": 15, **cfg})
    seeds = (4, 5, 6)
    alone = [train_folds(one_fold(folds, fold), cfg, [seed])[0]
             for fold, seed in enumerate(seeds)]
    assert train_folds(folds, cfg, seeds) == alone
    stack = fit_stack(folds, cfg, seeds)
    for fold, seed in enumerate(seeds):
        for name, param in fit_stack(one_fold(folds, fold), cfg, [seed]).items():
            assert np.array_equal(stack[name][fold], param[0]), (fold, name)


def test_dropout_draws_each_folds_layers_in_order_from_its_stream():
    # positive features, G and kernels keep every ReLU on, so each gate is
    # the keep-mask over keep; fold i draws layer after layer from its own
    # stream, each layer's (n, width) block row by row
    inputs = toy_inputs(toy_graph(n=9, seed=4))
    widths, p, seeds = (8, 3, 5), 0.4, (11, 12, 13)
    cfg = small_cfg(layer_units=widths, dropout_p=p)
    model = GcnModel(cfg, _init_params(cfg, (1, 2, 3), *inputs.x.shape))
    for param in model.params.values():
        np.abs(param, out=param)
    _, cache = _forward(model, _Workspace(model, inputs), training=True,
                        rngs=[np.random.default_rng(seed) for seed in seeds])
    for fold, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for gate, width in zip(cache["gate"], widths):
            expected = (rng.random((9, width)) >= p) * (1.0 / (1.0 - p))
            assert np.array_equal(gate[fold], expected)


# hidden widths 12 and 32 at n = 60: the first layer's stacks are stored
# fold by fold, the second's side by side
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_training_gate_is_relu_times_keep_over_keep_bit_for_bit(p):
    folds = fold_inputs(toy_inputs(toy_graph(n=60, seed=6)))
    cfg = small_cfg(layer_units=(12, 32), dropout_p=p)
    assert [_stacked(60, width) for width in cfg.layer_units] == [False, True]
    model = GcnModel(cfg, _init_params(cfg, (4, 5, 6), *folds.x.shape))
    ws = _Workspace(model, folds)
    _, cache = _forward(model, ws, training=True,
                        rngs=[np.random.default_rng(seed) for seed in (1, 2, 3)])
    for i, gate in enumerate(cache["gate"]):
        # the layer's z before its gate scaled it, retaken into the same layout
        z = np.matmul(cache["prop"][i], model.params[f"W{i}"], out=np.empty_like(gate))
        expected = (z > 0) * ws._keep[i] * (1.0 / (1.0 - p))
        assert 0 < np.count_nonzero(expected) < expected.size
        assert np.array_equal(gate.view(np.int64), expected.view(np.int64)), i


# (8, 3, 9) hidden units over 2 classes: the layers take every G product
# order and both stack layouts
@pytest.mark.parametrize("variant,use_s", [("ftvanilla", True), ("f", False), ("t", False),
                                           ("tlr", False)])
def test_one_workspace_trains_as_a_fresh_one_every_epoch(variant, use_s):
    # a buffer read before the epoch writes it would carry the last epoch's
    # values into this one on a reused workspace, and NaN on a fresh one
    folds = fold_inputs(toy_inputs(toy_graph(n=12, seed=6)))
    cfg = small_cfg(variant=variant, use_s=use_s, layer_units=(8, 3, 9), dropout_p=0.5)
    rows = _Rows(folds, cfg.num_classes, 3)

    def train_5_epochs(epochs_per_workspace):
        model = GcnModel(cfg, _init_params(cfg, (4, 5, 6), *folds.x.shape))
        rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
        for _ in range(5 // epochs_per_workspace):
            _fit(model, rows, rngs, _Workspace(model, folds), epochs_per_workspace)
        return model

    reused, fresh = train_5_epochs(5), train_5_epochs(1)
    assert reused.step == fresh.step == 5
    for name, param in reused.params.items():
        assert np.all(np.isfinite(param))
        assert np.array_equal(param, fresh.params[name]), name


# the default net, a narrowing one (every layer past the first propagates
# its kernel's output) and one with no hidden layer
@pytest.mark.parametrize("layer_units", [(32, 32, 32), (16, 8, 3), ()],
                         ids=["32-32-32", "narrowing", "no-hidden"])
@pytest.mark.parametrize("variant,use_s", [("ftvanilla", False), ("ftvanilla", True),
                                           ("f", False), ("f", True), ("t", False),
                                           ("tlr", False)])
def test_workspace_keeps_one_buffer_per_stack(variant, use_s, layer_units):
    # epochs after the first allocate no stack, and a write to one stack
    # can never land in another
    folds = fold_inputs(toy_inputs(toy_graph(n=12, seed=6)))
    cfg = small_cfg(variant=variant, use_s=use_s, layer_units=layer_units, dropout_p=0.5)
    model = GcnModel(cfg, _init_params(cfg, (4, 5, 6), *folds.x.shape))
    rows, ws = _Rows(folds, cfg.num_classes, 3), _Workspace(model, folds)
    rngs = [np.random.default_rng(s) for s in (1, 2, 3)]
    _fit(model, rows, rngs, ws, 1)
    after_one = {key: id(stack) for key, stack in ws._stacks.items()}
    _fit(model, rows, rngs, ws, 4)
    assert {key: id(stack) for key, stack in ws._stacks.items()} == after_one
    stacks = list(ws._stacks.values())
    for i, a in enumerate(stacks):
        for b in stacks[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("variant", ["ftvanilla", "f"])
def test_s_feature_stacks_are_side_by_side_at_every_n(variant):
    # no G product reads the scaled features, so the reduction over nodes
    # in the S gradient, which forms in their stack, runs over the
    # (n, k * width) layout even where _stacked() would lay a G product's
    # stack out fold by fold
    folds = fold_inputs(toy_inputs(toy_graph(n=12, seed=6)))
    assert not _stacked(12, folds.x.shape[1])
    cfg = small_cfg(variant=variant, use_s=True, dropout_p=0.5)
    model = GcnModel(cfg, _init_params(cfg, (4, 5, 6), *folds.x.shape))
    rows, ws = _Rows(folds, cfg.num_classes, 3), _Workspace(model, folds)
    _fit(model, rows, [np.random.default_rng(s) for s in (1, 2, 3)], ws, 2)
    assert ws._stacks["prop0"].transpose(1, 0, 2).flags.c_contiguous
    assert "dprop" not in ws._stacks


# "train then evaluate": each fold trained alone, as a k = 1 stack, then scored
def test_train_folds_matches_train_then_evaluate():
    assert_train_folds_matches_each_fold_alone()


# a 4-class output propagates its kernel's output one fold at a time; so
# does TLR's width-1 first layer
@pytest.mark.parametrize("variant,use_s,num_classes", [
    ("ftvanilla", False, 4),
    ("ftvanilla", True, 4),
    ("tlr", False, 4),
    ("tlr", False, 2),
])
def test_train_folds_matches_train_then_evaluate_per_fold_products(variant, use_s, num_classes):
    assert_train_folds_matches_each_fold_alone(variant=variant, use_s=use_s,
                                               num_classes=num_classes)


# hidden widths 12 and 20 at n = 60 are neither a multiple of 8 nor past
# OpenBLAS's small-matrix kernel, so their G products go fold by fold
@pytest.mark.parametrize("variant", ["ftvanilla", "t"])
def test_train_folds_matches_train_then_evaluate_widths_12_and_20(variant):
    assert_train_folds_matches_each_fold_alone(n=60, variant=variant, layer_units=(12, 20),
                                               num_classes=4)


def test_train_folds_matches_train_then_evaluate_stacked_output_layer():
    # at n = 520 the 4-class output layer's G products are stacked
    assert _stacked(520, 4)
    assert_train_folds_matches_each_fold_alone(n=520, num_classes=4)


# (layer, kernel, fans, where G multiplies, gated) of every kernel product,
# in forward order, over 20 input columns (features, or nodes for t/tlr)
STEPS = {
    ("ftvanilla", (32, 32, 32)): [(0, "W0", (20, 32), "", True),
                                  (1, "W1", (32, 32), "in", True), (2, "W2", (32, 32), "in", True),
                                  (3, "W3", (32, 4), "out", False)],
    ("ftvanilla", (16, 8, 3)): [(0, "W0", (20, 16), "", True), (1, "W1", (16, 8), "out", True),
                                (2, "W2", (8, 3), "out", True), (3, "W3", (3, 4), "in", False)],
    ("ftvanilla", ()): [(0, "W0", (20, 4), "", False)],
    ("f", (32, 32, 32)): [(0, "W0", (20, 32), "", True), (1, "W1", (32, 32), "", True),
                          (2, "W2", (32, 32), "", True), (3, "W3", (32, 4), "", False)],
    ("f", (16, 8, 3)): [(0, "W0", (20, 16), "", True), (1, "W1", (16, 8), "", True),
                        (2, "W2", (8, 3), "", True), (3, "W3", (3, 4), "", False)],
    ("f", ()): [(0, "W0", (20, 4), "", False)],
    # the identity input: G @ W0 even where W0 widens
    ("t", (32, 32, 32)): [(0, "W0", (20, 32), "out", True), (1, "W1", (32, 32), "in", True),
                          (2, "W2", (32, 32), "in", True), (3, "W3", (32, 4), "out", False)],
    ("t", (16, 8, 3)): [(0, "W0", (20, 16), "out", True), (1, "W1", (16, 8), "out", True),
                        (2, "W2", (8, 3), "out", True), (3, "W3", (3, 4), "in", False)],
    ("t", ()): [(0, "W0", (20, 4), "out", False)],
    # G @ Wa, ungated, then Wb with no G product and the first layer's gate
    ("tlr", (32, 32, 32)): [(0, "Wa", (20, 1), "out", False), (0, "Wb", (1, 32), "", True),
                            (1, "W1", (32, 32), "in", True), (2, "W2", (32, 32), "in", True),
                            (3, "W3", (32, 4), "out", False)],
    ("tlr", (16, 8, 3)): [(0, "Wa", (20, 1), "out", False), (0, "Wb", (1, 16), "", True),
                          (1, "W1", (16, 8), "out", True), (2, "W2", (8, 3), "out", True),
                          (3, "W3", (3, 4), "in", False)],
    ("tlr", ()): [(0, "Wa", (20, 1), "out", False), (0, "Wb", (1, 4), "", False)],
}


@pytest.mark.parametrize("variant,layer_units", sorted(STEPS), ids=str)
def test_step_table(variant, layer_units):
    for use_s in (False, True) if variant in ("ftvanilla", "f") else (False,):
        cfg = GcnConfig(variant=variant, use_s=use_s, layer_units=layer_units, num_classes=4)
        assert [(s.layer, s.name, s.fans, s.g, s.hidden)
                for s in _steps(cfg, 20)] == STEPS[variant, layer_units]


def test_stacking_rule_at_its_boundary():
    # width 4 leaves OpenBLAS's small-matrix kernel at n = 501; widths 2
    # and 6 left it by n = 800 but the AVX2 kernels break their columns
    # there, and width 1 goes to gemv, so none of these stacks
    assert _stacked(501, 4) and _stacked(800, 4)
    assert not _stacked(800, 2) and not _stacked(800, 6)
    assert not _stacked(500, 4) and not _stacked(800, 1) and not _stacked(2000, 1)
    assert _stacked(60, 8) and _stacked(60, 32) and not _stacked(60, 12)


def lone_row_gs(n, rng, live=None):
    """Two G over n nodes with about half their rows lone (no off-diagonal
    non-zero), or all but ``live`` of them: a renormalized adjacency, equal
    to its transpose bit for bit, and a copy with its rows scaled, which is
    not."""
    linked = (rng.random(n) < 0.5 if live is None
              else np.isin(np.arange(n), rng.choice(n, live, replace=False)))
    a = (np.triu(rng.random((n, n)) < 0.1, 1) & linked & linked[:, None]).astype(float)
    a += a.T + np.eye(n)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    a *= dinv[:, None]
    a *= dinv
    return a, a * rng.random((n, 1))


def weighted_lone_row_g(n, rng):
    """A fixed-threshold katz representative of a graph on n nodes of which
    about half have no neighbour: a weighted G, scaled as (a * d_i) * d_j,
    that does not equal its transpose bit for bit."""
    linked = np.flatnonzero(rng.random(n) < 0.5)
    edges = frozenset((int(i), int(j)) for i in linked for j in linked
                      if i < j and rng.random() < 0.05)
    graph = SocialGraph(n=n, edges=edges, features=rng.random((n, 3)), sdna_of=np.arange(n) % 2)
    spec = SimilaritySpec(kind="katz", threshold_lo=0.0, threshold_hi=0.5)
    return build_representative(graph, spec).matrix


def keeps_row_rule():
    """Whether OpenBLAS runs a kernel set on which gcn takes the live-row path."""
    return _openblas.blas_core() in gcn._ROW_RULE_KERNELS


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_live_products_keep_each_folds_bits(g, k, width, rng, columns=False, widths=None):
    """A stacked G product and a G.T one, ``width`` columns per fold, each
    through the live rows the workspace would use (G's, and for G.T G's
    again where G equals its transpose, else G.T's own), built for the
    products of ``widths`` (``[width]`` by default) columns per fold, and
    through their live columns, panel by panel, where ``columns`` is set
    and the width takes them, give each fold the bits of its own full
    product, down to the sign of h's -0.0 entries in the lone rows."""
    n, widths = len(g), widths or [width]
    live = _LiveRows(g, _live_rows(g), k, widths, columns)
    live_t = (live if _bit_symmetric(g)
              else _LiveRows(g.T, _live_rows(g.T), k, widths, columns))
    h = _stack(np.empty(k * n * width), k, n, width)
    h[...] = rng.normal(size=h.shape)
    h[:, np.setdiff1d(np.arange(n), live.rows), ::2] = -0.0
    for gm, gm_live in ((g, live), (g.T, live_t)):
        assert gm_live.by_columns(width) == (columns and width % 32 == 0)
        out = _propagate(gm, h, _stack(np.empty(k * n * width), k, n, width), gm_live)
        for fold in range(k):
            assert same_bits(out[fold], gm @ h[fold]), (k, width, fold)


@pytest.mark.parametrize("n", [60, 200, 500, 501, 800])
def test_g_products_equal_each_fold_alone(n):
    # stacked or fold by fold, as _stacked() says, each fold's columns of
    # a G product (or a G.T one, as the backward pass takes) are the bits
    # of its own product; a BLAS that tiles differently fails here
    rng = np.random.default_rng(n)
    g = rng.random((n, n))
    for k in (3, 10):
        for width in [*range(1, 9), 12, 20, 32]:
            h = _stack(np.empty(k * n * width), k, n, width)
            h[...] = rng.normal(size=h.shape)
            for gm in (g, g.T):
                out = _propagate(gm, h, out=_stack(np.empty(k * n * width), k, n, width))
                for fold in range(k):
                    assert np.array_equal(out[fold], gm @ h[fold]), (k, width, fold)
    # so are they where only G's live rows go through BLAS (the row rule:
    # widths that are a multiple of 32, or past M' * n * width = 10^6, as
    # 12 is from n = 500 on, 8 from 501 and 4 at 800) and each lone row is
    # diag * h + 0.0; G.T products reuse G's live rows where G equals its
    # transpose, and go through G.T's own elsewhere; at widths that are a
    # multiple of 32 they skip G's lone columns too, on the one BLAS
    # thread training runs (two threads sum K in other panels, and change
    # the bits at n = 500 and 501)
    symmetric, skewed = lone_row_gs(n, rng)
    if not keeps_row_rule():  # the kernels are not known to keep it: no G takes the path
        assert _LiveRows.of(symmetric, 3, [32]) is None and _LiveRows.of(skewed, 3, [32]) is None
        return
    assert _bit_symmetric(symmetric) and not _bit_symmetric(skewed)
    with _one_blas_thread():
        for g in (symmetric, skewed):
            assert 0.3 * n < n - len(_live_rows(g)) < 0.7 * n
            for k in (3, 10):
                for width in (4, 8, 12, 32, 64):
                    for columns in (False, True):
                        assert_live_products_keep_each_folds_bits(g, k, width, rng, columns)


# each (n, width, M') sits just under or just past M' * n * width = 10^6,
# with 488 and 487, or 360 and 359, lone rows
@pytest.mark.parametrize("n,width,live", [(800, 4, 312), (800, 4, 313),
                                          (520, 12, 160), (520, 12, 161)])
def test_row_rule_at_its_boundary(n, width, live):
    # a narrow stacked product takes the live rows once a fold's own live
    # product leaves OpenBLAS's small-matrix kernel, and keeps each fold's
    # bits on either side
    past = live * n * width > 10**6
    assert _stacked(n, width) and _by_live_rows(live, n, width) == past
    rng = np.random.default_rng(live)
    for g in lone_row_gs(n, rng, live):
        assert len(_live_rows(g)) == live
        taken = _LiveRows.of(g, 3, [width])
        if not keeps_row_rule():
            assert taken is None
            continue
        assert (taken is not None) == past
        assert_live_products_keep_each_folds_bits(g, 3, width, rng)


# OpenBLAS's one-thread K panels: one up to 384, then 384 while 768 remain,
# then half the rest (rounded down) rounded up to 16, then the rest
@pytest.mark.parametrize("n,panels", [
    (200, [(0, 200)]), (384, [(0, 384)]), (385, [(0, 192), (192, 385)]),
    (500, [(0, 256), (256, 500)]), (800, [(0, 384), (384, 592), (592, 800)]),
    (1200, [(0, 384), (384, 768), (768, 992), (992, 1200)])])
def test_panels_split_k_as_openblas_does_on_one_thread(n, panels):
    assert _panels(n) == panels


@pytest.mark.parametrize("n", [384, 385, 500, 501, 768, 800, 801, 1000])
def test_live_columns_keep_each_folds_bits(n):
    # at a width per fold that is a multiple of 32 the live rows skip G's
    # lone columns too, summing their products panel by panel in panel
    # order: on one BLAS thread each fold gets the bits of its own full
    # product, on either side of a panel boundary, for G and G.T of a G
    # that equals its transpose and of one that does not
    rng = np.random.default_rng(n)
    if not keeps_row_rule():  # the kernels are not known to keep it: no G takes the path
        assert _LiveRows.of(lone_row_gs(n, rng)[0], 3, [32]) is None
        return
    with _one_blas_thread():
        for share in (0.1, 0.45, 0.8):
            for g in lone_row_gs(n, rng, round((1 - share) * n)):
                assert len(_LiveRows(g, _live_rows(g), 3, [32], True).panels) == len(_panels(n))
                for k in (1, 3, 10):
                    for width in (32, 64):
                        assert_live_products_keep_each_folds_bits(g, k, width, rng, columns=True)


# past M' * n * width = 10^6 (M' = 0.6 n live rows) a narrow product takes
# the live rows over all n columns beside the 32-wide ones
@pytest.mark.parametrize("n,narrow", [(520, 12), (520, 20), (800, 4), (1000, 4), (1000, 12)])
def test_one_copy_in_panel_order_keeps_the_bits_of_both_products(n, narrow):
    # a fit whose narrow products take all n columns and whose 32-wide
    # ones skip the lone columns holds one M' x n copy, each panel's live
    # columns ahead of its lone ones: the panels are its views, and the
    # narrow products, which read h's rows in that order, add the same
    # non-zero terms, in the same K panels, as the full product
    rng = np.random.default_rng(n + narrow)
    if not keeps_row_rule():
        assert _LiveRows.of(lone_row_gs(n, rng, round(0.6 * n))[0], 3, [32, narrow]) is None
        return
    with _one_blas_thread():
        for g in lone_row_gs(n, rng, round(0.6 * n)):
            live = _LiveRows.of(g, 3, [32, narrow])
            assert live.by_columns(32) and not live.by_columns(narrow)
            assert live.copy.shape == (len(live.rows), n) and live.order is not None
            assert all(np.shares_memory(panel, live.copy) for _, panel in live.panels)
            for width in (32, narrow):
                assert_live_products_keep_each_folds_bits(g, 3, width, rng, columns=True,
                                                          widths=[32, narrow])


def test_a_g_whose_live_rows_read_a_lone_column_keeps_all_n_columns():
    # a non-zero in a lone column of a live row (that column's node keeps
    # its lone row) would be dropped with the column: such a G keeps its
    # M' x n copy and all n columns, with each fold's bits; so does a G on
    # two BLAS threads, whose K panels are not _panels()
    n, k, width = 500, 3, 32
    rng = np.random.default_rng(3)
    g = lone_row_gs(n, rng)[0]
    rows = _live_rows(g)
    with _one_blas_thread():
        clean = _LiveRows.of(g, k, [width])
        g[rows[0], np.setdiff1d(np.arange(n), rows)[0]] = 0.25
        assert np.array_equal(_live_rows(g), rows)
        dirty = _LiveRows.of(g, k, [width])
    if not keeps_row_rule():
        assert clean is None and dirty is None
        return
    assert clean.by_columns(width) and len(clean.panels) == 2
    assert clean.copy.shape == (len(rows), len(rows))
    assert not dirty.by_columns(width) and dirty.copy.shape == (len(rows), n)
    assert dirty.order is None and not dirty.panels
    h = _stack(np.empty(k * n * width), k, n, width)
    h[...] = rng.normal(size=h.shape)
    with _one_blas_thread():
        out = _propagate(g, h, _stack(np.empty(k * n * width), k, n, width), dirty)
        for fold in range(k):
            assert same_bits(out[fold], g @ h[fold]), fold
    setter = _openblas._blas_thread_setter()
    if setter is None or _openblas.blas_threads() is None:
        return
    before = _openblas.blas_threads()
    setter(2)
    try:
        g[rows[0], np.setdiff1d(np.arange(n), rows)[0]] = 0.0
        assert not _LiveRows.of(g, k, [width]).by_columns(width)
    finally:
        setter(before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("variant", ["ftvanilla", "t"])
@pytest.mark.parametrize("seed", range(6))
def test_a_lone_row_fit_diverges_where_its_full_products_do(variant, seed, monkeypatch):
    # skipping the lone columns keeps a lone row's non-finite h from the
    # live rows; a fit whose kernels overflow (at epoch 1 to 4 here, in
    # any fold) still stops at the epoch, and names the fold, of the same
    # fit through full G products
    n, seeds = 200, [4, 5, 6]
    rng = np.random.default_rng(seed)
    inputs = TrainInputs(g_matrix=lone_row_gs(n, rng)[0], x=rng.random((n, 3)),
                         labels=np.arange(n) % 2, test_mask=rng.random((3, n)) < 0.1)
    cfg = small_cfg(variant=variant, layer_units=(32, 32), dropout_p=0.5, epochs=100,
                    learning_rate=1e102)
    with _one_blas_thread():
        live = _LiveRows.of(inputs.g_matrix, 3, [32])
        assert (live is not None and live.by_columns(32)) == keeps_row_rule()
    with pytest.raises(TrainingDiverged) as lone_columns_skipped:
        train_folds(inputs, cfg, seeds)
    with monkeypatch.context() as patched:
        patched.setattr(gcn, "LONE_ROWS_TO_PAY", n + 1)
        with pytest.raises(TrainingDiverged) as full:
            train_folds(inputs, cfg, seeds)
    assert ((lone_columns_skipped.value.epoch, lone_columns_skipped.value.fold)
            == (full.value.epoch, full.value.fold))


@pytest.mark.parametrize("variant", ["ftvanilla", "t"])
def test_live_row_products_train_the_bits_of_full_ones(variant, monkeypatch):
    # a G with lone rows takes the live-row path, in a stack and for each
    # fold alone, on kernels that keep the row rule, its G.T products
    # through G's live rows where G equals its transpose and through G.T's
    # own elsewhere (a row-scaled G, a weighted katz one), skipping its
    # lone columns too on the one BLAS thread training runs, and trains
    # the parameters of full G products bit for bit
    n, seeds = 200, (4, 5, 6)
    rng = np.random.default_rng(8)
    cfg = small_cfg(variant=variant, layer_units=(32, 32), dropout_p=0.5, epochs=5)
    for g in (*lone_row_gs(n, rng), weighted_lone_row_g(n, rng)):
        folds = fold_inputs(TrainInputs(
            g_matrix=g, x=rng.random((n, 3)), labels=np.arange(n) % 2,
            test_mask=np.zeros((1, n), dtype=bool)))
        model = GcnModel(cfg, _init_params(cfg, seeds, *folds.x.shape))
        with _one_blas_thread():
            ws = _Workspace(model, folds)
            assert (ws.live is not None) == (ws.live_t is not None) == keeps_row_rule()
            assert (ws.live_t is ws.live) == (_bit_symmetric(g) or not keeps_row_rule())
            for live in filter(None, (ws.live, ws.live_t)):
                assert live.by_columns(32) and live.copy.shape == (len(live.rows),) * 2
            stack = fit_stack(folds, cfg, seeds)
            for fold, seed in enumerate(seeds):
                for name, param in fit_stack(one_fold(folds, fold), cfg, [seed]).items():
                    assert same_bits(stack[name][fold], param[0]), (fold, name)
            with monkeypatch.context() as patched:
                patched.setattr(gcn, "LONE_ROWS_TO_PAY", n + 1)
                ws = _Workspace(model, folds)
                assert ws.live is None and ws.live_t is None
                full = fit_stack(folds, cfg, seeds)
        for name, param in stack.items():
            assert same_bits(param, full[name]), name


def test_propagate_raises_for_an_out_it_cannot_write():
    # width 32 is taken side by side; an out stored fold by fold is no view
    # of that (n, k * width) product, so it raises instead of staying zeros
    rng = np.random.default_rng(0)
    g, h = rng.random((60, 60)), rng.normal(size=(3, 60, 32))
    with pytest.raises(AttributeError):
        _propagate(g, h, out=np.zeros_like(h))


def reference_losses(probs, rows, params, decayed, weight_decay):
    """Each fold's loss by a gather, log and mean per fold, the loop the
    one-pass cross-entropy replaced, plus its own kernels' decay."""
    return [-np.log(np.maximum(fold_probs[train, rows.labels[train]], 1e-300)).mean()
            + weight_decay * sum(np.sum(params[name][fold] ** 2) for name in decayed)
            for fold, (fold_probs, train) in enumerate(zip(probs, rows.train))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_losses_are_non_finite_exactly_for_a_nan_training_row_or_an_overflowing_decay():
    # fold i tests on node i: a NaN row at node 1 is fold 1's test row and
    # a training row of every other fold
    folds = fold_inputs(toy_inputs(toy_graph(n=12, seed=6)), k=5)
    cfg = small_cfg(weight_decay=0.01)
    model = GcnModel(cfg, _init_params(cfg, (4, 5, 6, 7, 8), *folds.x.shape))
    rows, ws = _Rows(folds, cfg.num_classes, 5), _Workspace(model, folds)
    probs, _ = _forward(model, ws)
    args = rows, model.params, ws.decayed, cfg.weight_decay
    losses = _losses(probs, *args)
    assert np.all(np.isfinite(losses))
    assert np.allclose(losses, reference_losses(probs, *args), rtol=1e-13, atol=0)
    probs = probs.copy()
    probs[1:3, 1] = np.nan   # fold 1's test row, fold 2's training row
    probs[3, 2, 0] = np.nan  # fold 3's training row, its label's column
    model.params["W0"][4] *= 1e160  # fold 4's decay overflows
    losses = _losses(probs, *args)
    assert np.isfinite(losses).tolist() == [True, True, False, False, False]
    assert np.isfinite(reference_losses(probs, *args)).tolist() == np.isfinite(losses).tolist()
    assert np.isnan(losses[2]) and np.isnan(losses[3]) and losses[4] == np.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("hot", [1.0, 1e120, 1e160])
def test_fit_diverges_where_the_per_fold_losses_first_go_non_finite(hot):
    # fold 1's kernels start ``hot`` times larger; _fit stops at the epoch,
    # and names the lowest fold, at which the per-fold loop first finds a
    # non-finite loss: every fold's at epoch 1 (hot 1), fold 1's alone at
    # epoch 0 (1e120; at 1e160 its decay overflows too)
    folds = fold_inputs(separable_inputs())
    cfg = small_cfg(epochs=60, learning_rate=1e100, weight_decay=0.0005, dropout_p=0.5)

    def start():
        model = GcnModel(cfg, _init_params(cfg, (4, 5, 6), *folds.x.shape))
        for param in model.params.values():
            param[1] *= hot
        return (model, _Rows(folds, cfg.num_classes, 3), _Workspace(model, folds),
                [derive_rng(seed, "dropout") for seed in (4, 5, 6)])

    model, rows, ws, rngs = start()
    for epoch in range(cfg.epochs):
        probs, cache = _forward(model, ws, training=True, rngs=rngs)
        finite = np.isfinite(reference_losses(probs, rows, model.params, ws.decayed,
                                              cfg.weight_decay))
        if not finite.all():
            break
        _adam_step(model, _backward(model, cache, rows, ws), ws.scratch)
    else:
        pytest.fail("no fold diverged")
    model, rows, ws, rngs = start()
    with pytest.raises(TrainingDiverged) as err:
        _fit(model, rows, rngs, ws, cfg.epochs)
    assert (err.value.epoch, err.value.fold) == (epoch, int(np.argmin(finite)))


def test_train_folds_rejects_mismatched_folds():
    folds = fold_inputs(toy_inputs(), k=2)
    with pytest.raises(ValueError, match=r"masks of 2 folds for 1 seed\(s\)"):
        train_folds(folds, small_cfg(), [1])
    with pytest.raises(ValueError, match=r"masks of 2 folds for 3 seed\(s\)"):
        train_folds(folds, small_cfg(), [1, 2, 3])


def test_train_folds_empty_masks_rejected():
    inputs = toy_inputs()
    test = inputs.test_mask
    no_test = replace(inputs, test_mask=np.concatenate([test, np.zeros_like(test)]))
    with pytest.raises(ValueError, match="empty test mask"):
        train_folds(no_test, small_cfg(), [1, 2])
    no_train = replace(inputs, test_mask=np.concatenate([test, np.ones_like(test)]))
    with pytest.raises(ValueError, match="empty training mask"):
        train_folds(no_train, small_cfg(), [1, 2])


def test_mask_shorter_than_the_nodes_rejected():
    # a short mask used to leave its tail nodes out of training and testing
    inputs = separable_inputs()
    with pytest.raises(ValueError, match=r"test_mask must be a bool array of shape \(k, 10\) "
                                         r".* of shape \(1, 8\)"):
        replace(inputs, test_mask=inputs.test_mask[:, :8])


def test_mask_longer_than_the_nodes_rejected():
    # a long mask used to raise IndexError deep in the test-accuracy pass
    inputs = separable_inputs()
    longer = np.concatenate([inputs.test_mask, [[True]]], axis=1)
    with pytest.raises(ValueError, match=r"test_mask must be .* of shape \(1, 11\)"):
        replace(inputs, test_mask=longer)


def test_mask_that_is_not_bool_rejected():
    inputs = separable_inputs()
    with pytest.raises(ValueError, match="test_mask must be a bool array .* got int64"):
        replace(inputs, test_mask=inputs.test_mask.astype(np.int64))


def test_mask_without_folds_rejected():
    inputs = separable_inputs()
    none = np.zeros((0, 10), dtype=bool)
    with pytest.raises(ValueError, match=r"k >= 1, got bool of shape \(0, 10\)"):
        replace(inputs, test_mask=none)


def test_representative_of_the_wrong_size_rejected():
    # a G of the wrong size used to raise a raw numpy matmul error
    inputs = separable_inputs()
    with pytest.raises(ValueError, match=r"g_matrix must be \(10, 10\) for 10 nodes, "
                                         r"got \(9, 9\)"):
        replace(inputs, g_matrix=inputs.g_matrix[:9, :9])


def test_labels_of_the_wrong_shape_rejected():
    inputs = separable_inputs()
    with pytest.raises(ValueError, match=r"labels must be \(10,\) for 10 nodes, got \(10, 1\)"):
        replace(inputs, labels=inputs.labels[:, None])


def test_one_dimensional_masks_rejected():
    # one model is a k = 1 stack: its test mask is (1, n), never (n,)
    inputs = separable_inputs()
    with pytest.raises(ValueError, match=r"test_mask must be a bool array of shape \(k, 10\) "
                                         r"with k >= 1, got bool of shape \(10,\)"):
        replace(inputs, test_mask=inputs.test_mask[0])
    assert train_folds(inputs, small_cfg(epochs=2), [7])[0] in (0.0, 0.5, 1.0)
