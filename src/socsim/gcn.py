"""Dense graph convolutional network with hand-written gradients.

Every layer applies  H_next = act(G @ H @ W)  where G is a fixed graph
representative.  Four variants cover the ablation axes:

  ftvanilla   features + topology (the standard renormalized-adjacency net;
              similarity-based representatives plug in through G)
  f           features only: G is replaced by the identity in every layer
  t           topology only: the input feature matrix is replaced by the
              identity, so the first kernel is (N x units)
  tlr         topology only with the first kernel factored into an (N x 1)
              times (1 x units) pair, keeping its parameter count near the
              feature models'

Independently of the variant, ``use_s`` multiplies the input features by a
learnable per-feature weight vector (shared across nodes) before the first
layer.  Hidden layers use ReLU with inverted dropout, applied as one float
gate per layer, (ReLU active and unit kept) / keep, that the backward pass
reuses; the output layer is a softmax over class scores, trained with
masked cross-entropy plus L2 decay on the hidden kernels, optimized with
Adam.

The math is written once, for a stack of k models that share a config, G
and X and differ only in their masks, init seed and dropout stream (the
folds of one cross-validation cell).  Every parameter, Adam moment,
activation and gate carries a leading fold axis.  Each G product runs at
the narrower of its layer's kernel widths: (G @ H) @ W where the kernel
keeps or widens the width, G @ (H @ W) where it narrows it (the output
layer, num_classes wide), and TLR's first layer as (G @ Wa) @ Wb, one
column wide.  A feature model computes its first propagation G @ X once
for the whole run; S scales its columns per fold, since
G (X diag s) = (G X) diag s.  ``train_folds`` trains a stack without
scoring it every epoch.  ``forward``, ``backward``, ``loss``,
``adam_step``, ``evaluate`` and ``train`` (which records a per-epoch
history) are the k = 1 case of the same code.

Batching leaves each fold's arithmetic unchanged except for how BLAS
tiles the products.  A G product at least 8 columns wide per fold is taken
for all folds at once, G @ [H_1 ... H_k].  With OpenBLAS 0.3.31 (x86-64,
AVX-512 kernels) a fold's columns of it equal G @ H_i bit for bit when
that width is a multiple of 8, as the default 32 is; at other widths their
last bits can differ from training the fold alone (on desk-scale cells at
widths 12 and 20 the accuracies still matched).  Narrower products, such
as the output layer's G @ (H @ W) and TLR's G @ Wa, are taken one fold at
a time, as one ``np.matmul`` over the stack: stacked, they changed bits
against training the fold alone, and at n = 200 they cost about the same
either way.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from .rng import derive_rng
from .similarity import GraphRepresentative

VARIANTS = ("ftvanilla", "f", "t", "tlr")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the epoch, the parameter norms and the
    index of the fold that diverged (0 for a single model)."""

    def __init__(self, epoch: int, norms: dict[str, float], fold: int = 0):
        super().__init__(f"non-finite loss at epoch {epoch}; parameter norms {norms}")
        self.epoch = epoch
        self.norms = norms
        self.fold = fold

    def __reduce__(self):
        return TrainingDiverged, (self.epoch, self.norms, self.fold)


@dataclass(frozen=True)
class GcnConfig:
    variant: str = "ftvanilla"
    use_s: bool = False
    layer_units: tuple[int, ...] = (32, 32, 32)
    num_classes: int = 4
    learning_rate: float = 0.01
    weight_decay: float = 0.0005
    dropout_p: float = 0.5
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        variant = self.variant.lower()
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "layer_units", tuple(int(u) for u in self.layer_units))
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes!r}")
        if any(u < 1 for u in self.layer_units):
            raise ValueError(f"layer_units entries must be >= 1, got {self.layer_units!r}")
        if self.use_s and variant in ("t", "tlr"):
            raise ValueError("use_s weights features; topology-only variants have none")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GcnConfig":
        d = dict(d)
        if "layer_units" in d:
            d["layer_units"] = tuple(d["layer_units"])
        return cls(**d)


@dataclass(frozen=True, eq=False)
class TrainInputs:
    """Everything one training run consumes; all nodes stay visible to the
    propagation, the masks only gate the loss and the accuracy."""

    rep: GraphRepresentative
    x: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        if np.any(self.train_mask & self.test_mask):
            raise ValueError("train and test masks overlap")

    @property
    def g_matrix(self) -> np.ndarray:
        return self.rep.matrix


@dataclass(eq=False)
class GcnModel:
    config: GcnConfig
    weights: list[np.ndarray]                 # dense kernels; excludes the factored first kernel for tlr
    s_vector: np.ndarray | None = None
    lowrank_a: np.ndarray | None = None
    lowrank_b: np.ndarray | None = None
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def parameters(self) -> dict[str, np.ndarray]:
        """Named live references to every trainable tensor."""
        params: dict[str, np.ndarray] = {}
        offset = 0
        if self.config.variant == "tlr":
            params["Wa"] = self.lowrank_a
            params["Wb"] = self.lowrank_b
            offset = 1
        for idx, w in enumerate(self.weights):
            params[f"W{idx + offset}"] = w
        if self.s_vector is not None:
            params["S"] = self.s_vector
        return params


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(cfg: GcnConfig, n_nodes: int, n_features: int) -> GcnModel:
    """Glorot-uniform kernels, all-ones feature weights (identity behaviour)."""
    rng = derive_rng(cfg.seed, "init")
    in_dim = n_nodes if cfg.variant in ("t", "tlr") else n_features
    dims = [in_dim, *cfg.layer_units, cfg.num_classes]
    lowrank_a = lowrank_b = None
    weights = []
    for layer in range(len(dims) - 1):
        if cfg.variant == "tlr" and layer == 0:
            lowrank_a = _glorot(rng, dims[0], 1)
            lowrank_b = _glorot(rng, 1, dims[1])
        else:
            weights.append(_glorot(rng, dims[layer], dims[layer + 1]))
    s_vector = np.ones(n_features) if cfg.use_s else None
    model = GcnModel(
        config=cfg, weights=weights, s_vector=s_vector,
        lowrank_a=lowrank_a, lowrank_b=lowrank_b,
    )
    for name, p in model.parameters().items():
        model.adam_m[name] = np.zeros_like(p)
        model.adam_v[name] = np.zeros_like(p)
    return model


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (class scores)."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _hidden_kernel_names(cfg: GcnConfig) -> list[str]:
    # every kernel but the output layer's; decay exempts S and the output
    last = len(cfg.layer_units)
    if cfg.variant == "tlr":
        return ["Wa", "Wb", *(f"W{i}" for i in range(1, last))]
    return [f"W{i}" for i in range(last)]


# --- the fold axis -------------------------------------------------------------
#
# The math is written once, for a stack of k models that share a config, G
# and X.  Per-fold arrays lead with the fold axis: parameters and Adam
# moments are (k, *shape), activations and masks (k, n, width).  The
# per-model functions further down run it on k = 1 views of a GcnModel.


def _fold_view(model: GcnModel) -> dict[str, np.ndarray]:
    """k = 1 views of a model's parameters: writes land in the model."""
    return {name: p[None] for name, p in model.parameters().items()}


class _Stack:
    """Parameters and Adam state of k models, keyed and ordered like
    GcnModel.parameters(), every array with a leading fold axis."""

    def __init__(self, config: GcnConfig, params: dict[str, np.ndarray],
                 adam_m: dict[str, np.ndarray], adam_v: dict[str, np.ndarray], step: int = 0):
        self.config = config
        self.params = params
        self.adam_m = adam_m
        self.adam_v = adam_v
        self.step = step

    @classmethod
    def of_model(cls, model: GcnModel) -> "_Stack":
        params = _fold_view(model)
        return cls(model.config, params,
                   {name: model.adam_m[name][None] for name in params},
                   {name: model.adam_v[name][None] for name in params}, model.step)

    @classmethod
    def init(cls, cfgs: list[GcnConfig], n_nodes: int, n_features: int) -> "_Stack":
        """Fresh models, one per config, as init_model() makes them."""
        per_fold = [init_model(cfg, n_nodes, n_features).parameters() for cfg in cfgs]
        params = {name: np.stack([p[name] for p in per_fold]) for name in per_fold[0]}
        return cls(cfgs[0], params, {name: np.zeros_like(p) for name, p in params.items()},
                   {name: np.zeros_like(p) for name, p in params.items()})

    def norms(self, fold: int) -> dict[str, float]:
        return {name: float(np.linalg.norm(p[fold])) for name, p in self.params.items()}

    def keep(self, folds: int) -> None:
        """Drop every fold from index ``folds`` on."""
        for tensors in (self.params, self.adam_m, self.adam_v):
            for name in tensors:
                tensors[name] = tensors[name][:folds]


class _Shared:
    """What every fold reads: G (None for variant f), the features X and,
    for a feature model, the first layer's propagated input G @ X (X for
    f), computed once; S scales it per fold."""

    def __init__(self, cfg: GcnConfig, inputs: TrainInputs):
        self.gm = None if cfg.variant == "f" else inputs.g_matrix
        self.x = inputs.x
        self.prop0 = None
        if cfg.variant not in ("t", "tlr"):
            self.prop0 = self.x if self.gm is None else self.gm @ self.x


class _Rows:
    """Each fold's training and test rows over shared labels.  The training
    rows of all folds are also flattened into (fold, row, label) index
    arrays, so a gather or scatter over every fold is one fancy index."""

    def __init__(self, labels: np.ndarray, train: list[np.ndarray],
                 test: list[np.ndarray] | None = None):
        self.labels = labels
        self.train = train
        self.test = test or []
        sizes = [rows.size for rows in train]
        self._fold = np.repeat(np.arange(len(train)), sizes)
        self._row = np.concatenate(train)
        self._label = labels[self._row]
        self._size = np.repeat(np.array(sizes, dtype=np.float64), sizes)[:, None]
        self._ends = np.cumsum(sizes)

    @classmethod
    def of(cls, inputs: list[TrainInputs]) -> "_Rows":
        return cls(inputs[0].labels, [np.flatnonzero(i.train_mask) for i in inputs],
                   [np.flatnonzero(i.test_mask) for i in inputs])

    def head(self, folds: int) -> "_Rows":
        return _Rows(self.labels, self.train[:folds], self.test[:folds])

    def check(self, classes: int, train: bool = False, test: bool = False) -> None:
        """Reject labels outside 0..classes-1 and, where asked, empty
        training or test masks."""
        labels = self.labels
        if labels.size and (labels.min() < 0 or labels.max() >= classes):
            raise ValueError(f"labels must lie in 0..{classes - 1} for num_classes={classes}, "
                             f"got {labels.min()}..{labels.max()}")
        if train and any(rows.size == 0 for rows in self.train):
            raise ValueError("empty training mask")
        if test and any(rows.size == 0 for rows in self.test):
            raise ValueError("empty test mask")

    def cross_entropy(self, probs: np.ndarray) -> list[float]:
        """Each fold's mean cross-entropy over its training rows."""
        picked = probs[self._fold, self._row, self._label]
        nll = -np.log(np.maximum(picked, 1e-300))
        return [float(nll[end - rows.size:end].mean()) for rows, end in zip(self.train, self._ends)]

    def output_grad(self, probs: np.ndarray) -> np.ndarray:
        """Gradient of each fold's cross-entropy w.r.t. its logits."""
        fold, row = self._fold, self._row
        dz = np.zeros_like(probs)
        dz[fold, row] = probs[fold, row]
        dz[fold, row, self._label] -= 1.0
        dz[fold, row] /= self._size
        return dz

    def accuracies(self, probs: np.ndarray) -> list[float]:
        pred = probs.argmax(axis=-1)
        return [float((pred[fold, rows] == self.labels[rows]).mean())
                for fold, rows in enumerate(self.test)]


# Stacks narrower than this take their G products one fold at a time.
_STACKED_MIN_WIDTH = 8


def _propagate(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``g @ h[i]`` for every fold i.  A stack at least _STACKED_MIN_WIDTH
    wide takes one product over the folds' side-by-side columns,
    ``g @ [h_1 ... h_k]``, and comes back as a (k, rows, width) view laid
    out like _empty_wide(); a narrower one takes one product per fold."""
    k, n, width = h.shape
    if width < _STACKED_MIN_WIDTH:
        return np.matmul(g, h)
    wide = h.transpose(1, 0, 2).reshape(n, k * width)
    return (g @ wide).reshape(g.shape[0], k, width).transpose(1, 0, 2)


def _propagates_output(kernel: np.ndarray) -> bool:
    """Whether a layer with this kernel computes G @ (H @ W), not
    (G @ H) @ W: its G product runs at the narrower of the kernel's in and
    out widths (an equal pair keeps (G @ H) @ W)."""
    return kernel.shape[-1] < kernel.shape[-2]


def _empty_wide(k: int, n: int, width: int, dtype=np.float64) -> np.ndarray:
    """An uninitialised (k, n, width) stack stored as the (n, k * width)
    block that _propagate() multiplies, so passing it there copies nothing
    (and elementwise work with its outputs runs over matching layouts)."""
    return np.empty((n, k, width), dtype=dtype).transpose(1, 0, 2)


def _dropout_masks(rngs: list[np.random.Generator], shape: tuple[int, ...],
                   p: float) -> np.ndarray:
    """Keep-masks for one hidden layer; fold i draws its (n, width) block
    from its own stream."""
    masks = _empty_wide(*shape, dtype=bool)
    draws = np.empty(shape[1:])
    for rng, mask in zip(rngs, masks):
        np.greater_equal(rng.random(out=draws), p, out=mask)
    return masks


def _forward(cfg: GcnConfig, params: dict[str, np.ndarray], shared: _Shared,
             training: bool = False,
             rngs: list[np.random.Generator] | None = None) -> tuple[np.ndarray, dict]:
    """forward() for a stack: probabilities (k, n, classes) and the cache
    _backward() replays: each layer's left operand of its kernel product
    ("prop": G @ H, or H where the layer propagates its output; None for
    t's first layer) and each hidden layer's gate, the float
    (ReLU active and dropout kept) / keep that scales it."""
    gm = shared.gm
    n_layers = len(cfg.layer_units) + 1
    dropout = training and cfg.dropout_p > 0.0
    if dropout and rngs is None:
        raise ValueError("training forward with dropout needs an rng")
    k = len(next(iter(params.values())))  # every parameter leads with the fold axis
    n = shared.x.shape[0]
    cache: dict = {"prop": [], "gate": []}
    h = None
    for layer in range(n_layers):
        hidden = layer < n_layers - 1
        if layer == 0 and cfg.variant == "t":
            # identity features: the first propagation collapses to G @ W0
            prop, z = None, _propagate(gm, params["W0"])
        elif layer == 0 and cfg.variant == "tlr":
            prop = _propagate(gm, params["Wa"])
            z = np.matmul(prop, params["Wb"])
        else:
            kernel = params[f"W{layer}"]
            if layer > 0 and gm is not None and _propagates_output(kernel):
                prop = h
                z = _propagate(gm, np.matmul(h, kernel))
            else:
                if layer == 0:
                    prop = shared.prop0 if not cfg.use_s else shared.prop0 * params["S"][:, None, :]
                else:
                    prop = h if gm is None else _propagate(gm, h)
                z = np.matmul(prop, kernel,
                              out=_empty_wide(k, n, kernel.shape[-1]) if hidden else None)
        cache["prop"].append(prop)
        if hidden:
            gate = np.greater(z, 0.0, out=np.empty_like(z))
            if dropout:
                gate *= _dropout_masks(rngs, z.shape, cfg.dropout_p)
                gate *= 1.0 / (1.0 - cfg.dropout_p)
            cache["gate"].append(gate)
            h = z
            h *= gate
    cache["logits"] = z
    cache["probs"] = softmax_rows(z)
    return cache["probs"], cache


def _cache_head(cache: dict, folds: int) -> dict:
    """The first ``folds`` folds of a cache; the shared first-layer input
    (G, X or G @ X) is 2-D, has no fold axis and stays whole."""

    def cut(a):
        return a if a is None or a.ndim == 2 else a[:folds]

    return {key: [cut(a) for a in value] if isinstance(value, list) else cut(value)
            for key, value in cache.items()}


def _losses(probs: np.ndarray, rows: _Rows, params: dict[str, np.ndarray],
            hidden: list[str], weight_decay: float) -> list[float]:
    """loss() of every fold of a stack."""
    squares = [(params[name] ** 2).sum(axis=tuple(range(1, params[name].ndim)))
               for name in hidden]
    return [ce + weight_decay * sum(float(sq[fold]) for sq in squares)
            for fold, ce in enumerate(rows.cross_entropy(probs))]


def _backward(cfg: GcnConfig, params: dict[str, np.ndarray], cache: dict, shared: _Shared,
              rows: _Rows) -> dict[str, np.ndarray]:
    """backward() for a stack: every fold's gradients, fold axis first."""
    gm = shared.gm
    n_layers = len(cfg.layer_units) + 1
    dz = rows.output_grad(cache["probs"])
    grads: dict[str, np.ndarray] = {}
    for layer in range(n_layers - 1, 0, -1):
        kernel = params[f"W{layer}"]
        propagates_output = gm is not None and _propagates_output(kernel)
        if propagates_output:
            dz = _propagate(gm.T, dz)  # now the gradient w.r.t. H @ W
        grads[f"W{layer}"] = np.matmul(np.swapaxes(cache["prop"][layer], -1, -2), dz)
        dh = np.matmul(dz, np.ascontiguousarray(np.swapaxes(kernel, 1, 2)),
                       out=_empty_wide(*dz.shape[:2], kernel.shape[1]))
        if gm is not None and not propagates_output:
            dh = _propagate(gm.T, dh)
        dh *= cache["gate"][layer - 1]
        dz = dh
    prop = cache["prop"][0]
    if cfg.variant == "t":
        grads["W0"] = _propagate(gm.T, dz)  # the first layer's propagated input is G
    elif cfg.variant == "tlr":
        grads["Wb"] = np.matmul(np.swapaxes(prop, 1, 2), dz)
        grads["Wa"] = _propagate(gm.T, np.matmul(dz, np.swapaxes(params["Wb"], 1, 2)))
    else:
        grads["W0"] = np.matmul(np.swapaxes(prop, -1, -2), dz)
        if cfg.use_s:
            dprop = np.matmul(dz, np.swapaxes(params["W0"], 1, 2))
            grads["S"] = (dprop * shared.prop0).sum(axis=1)

    wd = cfg.weight_decay
    if wd:
        for name in _hidden_kernel_names(cfg):
            grads[name] += 2.0 * wd * params[name]
    return grads


def _adam_step(stack: _Stack, grads: dict[str, np.ndarray]) -> None:
    """adam_step() for a stack, in place; overwrites ``grads``."""
    stack.step += 1
    t = stack.step
    lr = stack.config.learning_rate
    for name, p in stack.params.items():
        g, m, v = grads[name], stack.adam_m[name], stack.adam_v[name]
        g2 = g * g
        g2 *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += g2
        g *= 1.0 - ADAM_BETA1
        m *= ADAM_BETA1
        m += g
        np.divide(m, 1.0 - ADAM_BETA1 ** t, out=g)      # m_hat
        g *= lr
        np.divide(v, 1.0 - ADAM_BETA2 ** t, out=g2)     # v_hat
        np.sqrt(g2, out=g2)
        g2 += ADAM_EPS
        g /= g2
        p -= g


def _fit(stack: _Stack, shared: _Shared, rows: _Rows, rngs: list[np.random.Generator],
         epochs: int, on_epoch=None) -> TrainingDiverged | None:
    """Run ``epochs`` full-batch Adam steps on a stack, in place.

    Returns the divergence of the lowest-index fold whose loss went
    non-finite, or None.  That fold and every later one leave the stack at
    that epoch.  Earlier folds keep training: one of them may still diverge,
    and training the folds one by one in order would report it first.
    ``on_epoch(epoch, losses)`` runs after every step.
    """
    cfg = stack.config
    hidden = _hidden_kernel_names(cfg)
    failure = None
    for epoch in range(epochs):
        probs, cache = _forward(cfg, stack.params, shared, training=True, rngs=rngs)
        losses = _losses(probs, rows, stack.params, hidden, cfg.weight_decay)
        finite = np.isfinite(losses)
        if not finite.all():
            fold = int(np.argmin(finite))
            failure = TrainingDiverged(epoch, stack.norms(fold), fold=fold)
            if fold == 0:
                return failure
            stack.keep(fold)
            rows, rngs, losses = rows.head(fold), rngs[:fold], losses[:fold]
            cache = _cache_head(cache, fold)
        grads = _backward(cfg, stack.params, cache, shared, rows)
        del probs, cache  # never hold two epochs' activations
        _adam_step(stack, grads)
        if on_epoch is not None:
            on_epoch(epoch, losses)
    return failure


def train_folds(inputs: list[TrainInputs], cfgs: list[GcnConfig]) -> list[float]:
    """Train fold i on ``inputs[i]`` under ``cfgs[i]``, all folds at once,
    and return each fold's test accuracy after the last epoch.

    The folds must share the representative, the features, the labels and
    every config field but the seed.  Each fold keeps its own init and
    dropout streams, so the accuracies are those of train() followed by
    evaluate() on each fold alone.  Raises TrainingDiverged, with ``fold``
    set, for the lowest-index fold whose loss goes non-finite.
    """
    if not cfgs or len(inputs) != len(cfgs):
        raise ValueError("train_folds needs one config per fold and at least one fold")
    first, cfg = inputs[0], cfgs[0]
    for other in inputs[1:]:
        for a, b in ((first.g_matrix, other.g_matrix), (first.x, other.x),
                     (first.labels, other.labels)):
            if a is not b and not np.array_equal(a, b):
                raise ValueError("folds must share the representative, features and labels")
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValueError("fold configs may differ only in their seed")
    rows = _Rows.of(inputs)
    rows.check(cfg.num_classes, train=cfg.epochs > 0, test=True)
    n, f = first.x.shape
    stack = _Stack.init(cfgs, n, f)
    shared = _Shared(cfg, first)
    failure = _fit(stack, shared, rows, [derive_rng(c.seed, "dropout") for c in cfgs], cfg.epochs)
    if failure is not None:
        raise failure
    probs, _ = _forward(cfg, stack.params, shared)
    return rows.accuracies(probs)


# --- one model -------------------------------------------------------------------


def forward(
    model: GcnModel,
    inputs: TrainInputs,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Run the net; returns row-softmax class probabilities and the cache
    backward() replays (each layer's kernel input, each hidden layer's
    ReLU-and-dropout gate, logits), each per-model entry with a leading
    fold axis of length 1."""
    probs, cache = _forward(model.config, _fold_view(model), _Shared(model.config, inputs),
                            training, None if rng is None else [rng])
    return probs[0], cache


def loss(
    probs: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    model: GcnModel,
    weight_decay: float,
) -> float:
    """Masked mean cross-entropy plus L2 decay over hidden kernels."""
    rows = _Rows(labels, [np.flatnonzero(train_mask)])
    rows.check(probs.shape[-1], train=True)
    return _losses(probs[None], rows, _fold_view(model),
                   _hidden_kernel_names(model.config), weight_decay)[0]


def backward(model: GcnModel, cache: dict, inputs: TrainInputs) -> dict[str, np.ndarray]:
    """Exact gradients of loss() w.r.t. every parameter, replaying the
    forward cache (dropout masks included)."""
    grads = _backward(model.config, _fold_view(model), cache,
                      _Shared(model.config, inputs), _Rows.of([inputs]))
    return {name: g[0] for name, g in grads.items()}


def adam_step(model: GcnModel, grads: dict[str, np.ndarray]) -> GcnModel:
    """One Adam update (bias-corrected, canonical betas), in place."""
    stack = _Stack.of_model(model)
    _adam_step(stack, {name: np.array(g, dtype=np.float64)[None] for name, g in grads.items()})
    model.step = stack.step
    return model


def evaluate(model: GcnModel, inputs: TrainInputs) -> float:
    """Argmax accuracy over the test mask, dropout off."""
    rows = _Rows.of([inputs])
    rows.check(model.config.num_classes, test=True)
    probs, _ = _forward(model.config, _fold_view(model), _Shared(model.config, inputs))
    return rows.accuracies(probs)[0]


def train(inputs: TrainInputs, cfg: GcnConfig) -> tuple[GcnModel, list[dict]]:
    """Full-batch training loop; deterministic given cfg.seed.

    History holds one record per epoch: the training loss the step saw and
    the post-step test accuracy.  Scoring every epoch costs a forward pass
    per epoch; train_folds() trains without it.
    """
    model = init_model(cfg, n_nodes=inputs.x.shape[0], n_features=inputs.x.shape[1])
    stack = _Stack.of_model(model)
    rows = _Rows.of([inputs])
    rows.check(cfg.num_classes, train=cfg.epochs > 0)
    history = []

    def record(epoch: int, losses: list[float]) -> None:
        history.append({"epoch": epoch, "train_loss": losses[0],
                        "test_acc": evaluate(model, inputs)})

    failure = _fit(stack, _Shared(cfg, inputs), rows, [derive_rng(cfg.seed, "dropout")],
                   cfg.epochs, record)
    model.step = stack.step
    if failure is not None:
        raise failure
    return model, history


def save_history(history: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "test_acc"])
        for row in history:
            writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["test_acc"])])


_MAGIC = b"SOCM"


def save_model(model: GcnModel, path: str | Path) -> None:
    """Checkpoint: magic ``SOCM``, config echo as JSON, then named tensors
    with shape headers, all little-endian f64."""
    cfg_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(cfg_blob)))
        fh.write(cfg_blob)
        params = model.parameters()
        fh.write(struct.pack("<I", len(params)))
        for name, tensor in params.items():
            blob = name.encode()
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<B", tensor.ndim))
            for dim in tensor.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_model(path: str | Path) -> GcnModel:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        (cfg_len,) = struct.unpack("<I", fh.read(4))
        cfg = GcnConfig.from_dict(json.loads(fh.read(cfg_len).decode()))
        (count,) = struct.unpack("<I", fh.read(4))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", fh.read(4))
            name = fh.read(name_len).decode()
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = tuple(struct.unpack("<Q", fh.read(8))[0] for _ in range(ndim))
            size = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(8 * size), dtype="<f8").astype(np.float64)
            tensors[name] = data.reshape(shape)

    offset = 1 if cfg.variant == "tlr" else 0
    n_kernels = len(cfg.layer_units) + 1 - offset
    weights = [tensors[f"W{i + offset}"] for i in range(n_kernels)]
    model = GcnModel(
        config=cfg,
        weights=weights,
        s_vector=tensors.get("S"),
        lowrank_a=tensors.get("Wa"),
        lowrank_b=tensors.get("Wb"),
    )
    for name, p in model.parameters().items():
        model.adam_m[name] = np.zeros_like(p)
        model.adam_v[name] = np.zeros_like(p)
    return model
