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
Adam.  The softmax takes each row's max as a running maximum over the
class columns, the same value as a max over the row, as max is exact.

The net is a stack of k models that share a config, G and X and differ
only in their masks, init seed and dropout stream (the folds of one
cross-validation cell); one model is a k = 1 stack.  Every parameter, Adam
moment, activation and gate carries a leading fold axis, and the math is
written once, for the stack.  ``train_folds`` trains a stack from one
``TrainInputs`` with a (k, n) test mask, one config and one seed per
fold, each fold training on the complement of its row, without scoring it
every epoch; it is the one way to train.

One table, ``_steps()``, says what the net computes: a row per kernel
product, in forward order, with its layer, kernel, fans, where G multiplies
and whether a hidden layer's gate follows.  Each G product runs at the
narrower width: (G @ H) @ W where the kernel keeps or widens it, G @ (H @ W)
where it narrows it (the output layer, num_classes wide).  A topology
model's first step reads the identity, so its product is G @ W: t's W0, or
TLR's Wa, one column wide, which Wb widens with no G product.  A feature
model takes its first G @ X once per run; S scales its columns per fold,
since G (X diag s) = (G X) diag s.  The parameters, the workspace, both
passes and the decay read the table; neither pass tests the variant.

Batching leaves each fold's arithmetic unchanged: a G product is taken
for all folds at once, G @ [H_1 ... H_k], exactly where BLAS gives each
fold's columns the bits of G @ H_i, and one fold at a time (one
``np.matmul`` over the stack) elsewhere; ``_stacked()`` is the rule.  With
OpenBLAS 0.3.31 (x86-64), on its AVX-512 and its AVX2 (Haswell) kernels
alike, that holds when the width per fold is a multiple of 8, as the
default 32 is, or a multiple of 4 past 10^6, where the fold's own product
leaves the small-matrix kernel, n * n * width > 10^6 (so at n = 800 the
output layer's 4 columns stack).  Past 10^6 the AVX2 kernels break widths
2, 3, 5, 6 and 7 at some n, and a width-1 product, such as TLR's G @ Wa,
goes to gemv, so these stay per fold.  So each fold's bits are those of
training it alone at every width.  Hidden widths that are not a multiple
of 8, such as 12 and 20, thus stay per fold while n * n * width <= 10^6:
stacked there, they changed their last bits (no shipped plan uses such
widths).

A row rule goes with that column rule.  In the renormalized adjacency a
node with no neighbour has a lone row, whose only non-zero is its
diagonal, and friendship snapshots have many.  For a G with M' live rows,
where the width per fold is a multiple of 32 (every default hidden
layer, and t's W0) or a fold's own live product has left OpenBLAS's
small-matrix kernel, M' * n * width > 10^6 (so the 4-wide output layer
at n = 800, for lone shares up to about 0.6; ``_by_live_rows()`` is the
rule), the same kernels give G[live] @ [H_1 ... H_k], over all n
columns, the bits of those rows of the full product, and diag * h + 0.0
is what BLAS writes for a lone row.  So a G with at least
LONE_ROWS_TO_PAY lone rows keeps what its live rows' products read for a
run and multiplies only those (``_LiveRows``).  Its G.T products reuse it
where G equals its transpose bit for bit, as every adjacency and
binarized ("auto") G does; elsewhere, as for the weighted katz, RPR and
GG representatives, G.T keeps its own.  The rule reads G and the width
per fold, never k, so a fold trained alone takes the path its stack
takes.  It is a fact of the AVX-512 kernels: under OPENBLAS_CORETYPE=
Haswell the live rows differ from the full product at widths 32-320 at
some n.  So the path is taken only where OpenBLAS runs a kernel set on
which the rule was measured (``_ROW_RULE_KERNELS``); on any other, every
G product is taken whole.

A lone-column rule goes with the row rule.  Where G's live rows are zero
in every lone column, a product whose width per fold is a multiple of 32
skips the lone columns too: OpenBLAS 0.3.31's one-thread GEMM sums
each entry's n products in K panels (``_panels()``: GEMM_Q = 384 and
GEMM_UNROLL_M = 16 on its SkylakeX kernels), each panel's sum added to
those before it, and a lone column adds only zeros to its panel's sum.
So the sum over each panel P_p of G[live][:, live in P_p] @ h[live in
P_p], taken in panel order, gives the live rows the bits of the full
product (n = 60-1200, lone shares 0.1-0.8, both sides).  Up to n = 384
that is one product over the live columns.  It holds on one BLAS thread
only, as training runs: two threads split K another way, and change the
bits at n = 500 and 501.  Nor does it hold at a width per fold of 4 (3
folds at n = 800), so narrower products keep all n columns.  One copy of
G's live rows serves both: M' x M' where every product skips the lone
columns, else M' x n with each panel's live columns ahead of its lone
ones, whose column slices are the panels; a product over all n columns
reads h's rows in that order, which moves only zero terms within their
panel.  Parity holds for finite h.  A non-finite entry of a fold's h in
a lone row no longer reaches the live rows where the lone columns are
skipped; it still reaches every live row of its columns elsewhere,
through G[live]'s zero columns.

A training run allocates its arrays once, in a workspace that every epoch
reuses, and writes them with ``out=`` in the same arithmetic and order as
fresh arrays, so no result depends on it.  The forward pass names each
(k, n, width) stack it writes by role and step; an "in" step, which
caches G @ h and not h, writes its pre-activation over h where the
widths match.  The backward pass allocates no stack: it writes each
gradient into a forward stack of its width past that stack's last read
(dh_i into step i's cached left operand, an "in" step's G.T product into
its input h's buffer, an "out" step's into its H @ W stack, the output
gradient into the logits, S's into the scaled features).  Gradients,
Adam's temporaries and the transposed kernels are kept per parameter.

Dropout draws one stream per fold.  In each training forward pass, fold i
makes one ``random`` call on its stream that covers all its hidden layers
in layer order, each layer's (n, width) block row by row, and thresholds
the draws into its keep-masks at once.  As PCG64 turns each 64-bit output
into one double, these are the bits that one call per layer would draw.
A training gate is built on bools, (z > 0) and kept, and only then
written as floats: 1/keep where both hold, +0.0 elsewhere, the values of
multiplying the ReLU's 1.0/0.0 by the mask and by 1/keep.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from ._openblas import _one_blas_thread, blas_core, blas_threads
from .rng import derive_rng

VARIANTS = ("ftvanilla", "f", "t", "tlr")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the epoch, the parameter norms and the
    index of the fold that diverged."""

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

    def __post_init__(self):
        if not isinstance(self.variant, str) or self.variant.lower() not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "variant", self.variant.lower())
        if not isinstance(self.use_s, bool):
            raise ValueError(f"use_s must be true or false, got {self.use_s!r}")
        if not (isinstance(self.layer_units, (list, tuple)) and all(
                isinstance(u, numbers.Integral) and not isinstance(u, bool)
                for u in self.layer_units)):
            raise ValueError(f"layer_units must be a list of integers, got {self.layer_units!r}")
        object.__setattr__(self, "layer_units", tuple(int(u) for u in self.layer_units))
        if isinstance(self.num_classes, bool) or not isinstance(self.num_classes, numbers.Integral):
            raise ValueError(f"num_classes must be an integer, got {self.num_classes!r}")
        for name in ("learning_rate", "weight_decay", "dropout_p"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes!r}")
        if any(u < 1 for u in self.layer_units):
            raise ValueError(f"layer_units entries must be >= 1, got {self.layer_units!r}")
        if self.use_s and self.variant in ("t", "tlr"):
            raise ValueError("use_s weights features; topology-only variants have none")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")
        if (isinstance(self.epochs, bool) or not isinstance(self.epochs, numbers.Integral)
                or self.epochs < 0):
            raise ValueError(f"epochs must be an integer >= 0, got {self.epochs!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GcnConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a model config must be a JSON object, got {d!r}")
        try:
            return cls(**d)
        except TypeError as exc:  # unknown or missing keys
            raise ValueError(f"bad model config: {exc}") from exc


@dataclass(frozen=True, eq=False)
class TrainInputs:
    """Everything one training run consumes: the (n, n) representative G,
    the (n, f) features X, the (n,) labels and the (k, n) bool test mask of
    a stack of k >= 1 folds, one row per fold; each fold trains on the
    complement of its row.  All nodes stay visible to the propagation, the
    mask only gates the loss and the accuracy."""

    g_matrix: np.ndarray
    x: np.ndarray
    labels: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        if np.ndim(self.x) != 2:
            raise ValueError(f"x must be an (n, f) matrix, got shape {np.shape(self.x)}")
        n = self.x.shape[0]
        for name, shape in (("g_matrix", (n, n)), ("labels", (n,))):
            if np.shape(getattr(self, name)) != shape:
                raise ValueError(f"{name} must be {shape} for {n} nodes, "
                                 f"got {np.shape(getattr(self, name))}")
        mask = self.test_mask
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.ndim == 2
                and mask.shape[0] >= 1 and mask.shape[1] == n):
            raise ValueError(f"test_mask must be a bool array of shape (k, {n}) with k >= 1, "
                             f"got {getattr(mask, 'dtype', type(mask))} "
                             f"of shape {np.shape(mask)}")


@dataclass(eq=False)
class GcnModel:
    """A stack of k models that share a config, the folds of one cell.

    ``params`` names every trainable tensor: ``W<i>`` for layer i's kernel,
    ``Wa`` and ``Wb`` for tlr's factored first kernel (G @ Wa @ Wb), and
    ``S`` for the feature weights.  Every parameter and Adam moment leads
    with the fold axis; moments missing at construction start at zero,
    laid out like their parameter."""

    config: GcnConfig
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def __post_init__(self):
        for moments in (self.adam_m, self.adam_v):
            for name, p in self.params.items():
                moments.setdefault(name, np.zeros_like(p))


def _init_params(cfg: GcnConfig, seeds: list[int], n_nodes: int,
                 n_features: int) -> dict[str, np.ndarray]:
    """Fresh parameters for one model per seed, stacked on the fold axis:
    Glorot-uniform kernels drawn in layer order from each seed's own init
    stream, and all-ones feature weights (identity behaviour).  A kernel
    that reads the identity is propagated itself, and its gradient is a G
    product: it (and so its Adam moments) is kept in the _stack() layout."""
    k = len(seeds)
    identity = bool(_steps(cfg, 0)[0].g)  # a first step with a G product reads I, n x n
    steps = _steps(cfg, n_nodes if identity else n_features)
    params = {s.name: np.empty((k, *s.fans)) for s in steps}
    if identity:
        params[steps[0].name] = _stack(np.empty(k * math.prod(steps[0].fans)), k, *steps[0].fans)
    for fold, seed in enumerate(seeds):
        rng = derive_rng(seed, "init")
        for s in steps:
            limit = np.sqrt(6.0 / sum(s.fans))
            params[s.name][fold] = rng.uniform(-limit, limit, size=s.fans)
    if cfg.use_s:
        params["S"] = np.ones((k, n_features))
    return params


def _softmax(z: np.ndarray, out: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (class scores), written into ``out``;
    ``row`` holds each row's max, a running maximum over the class columns,
    then its sum."""
    np.copyto(row, z[..., :1])
    for c in range(1, z.shape[-1]):
        np.maximum(row, z[..., c:c + 1], out=row)
    np.subtract(z, row, out=out)
    np.exp(out, out=out)
    return np.divide(out, np.sum(out, axis=-1, keepdims=True, out=row), out=out)


class _Step(NamedTuple):
    """One kernel product H @ W: its ``layer``, the kernel's ``name`` and
    ``fans`` (fan_in, fan_out), where G multiplies, ``g`` ("in" for
    (G @ H) @ W, "out" for G @ (H @ W), "" for none), and whether it ends a
    hidden layer, so that layer's gate follows, ``hidden``.  A first step
    with a G product reads the identity: H = I."""

    layer: int
    name: str
    fans: tuple[int, int]
    g: str
    hidden: bool


def _steps(cfg: GcnConfig, in_dim: int) -> list[_Step]:
    """Every kernel product, in forward order, for a model whose first
    layer reads ``in_dim`` columns (nodes for t/tlr, else features):
    ``W<i>`` for layer i, with tlr's first layer as Wa (in_dim x 1), then
    Wb (1 x units).  G multiplies a narrowing kernel's output, else its
    input; never for f, nor for a feature model's first step, whose G @ X
    is taken once per run."""
    dims = [in_dim, *cfg.layer_units, cfg.num_classes]
    steps = []
    for layer, fans in enumerate(zip(dims, dims[1:])):
        if layer == 0:  # t's W0 (and tlr's Wa) reads the identity: G @ W
            g = "out" if cfg.variant in ("t", "tlr") else ""
        else:
            g = "" if cfg.variant == "f" else "out" if fans[1] < fans[0] else "in"
        steps.append(_Step(layer, f"W{layer}", fans, g, layer < len(cfg.layer_units)))
    if cfg.variant == "tlr":
        steps[:1] = [_Step(0, "Wa", (dims[0], 1), "out", False),
                     _Step(0, "Wb", (1, dims[1]), "", steps[0].hidden)]
    return steps


def _decayed_names(cfg: GcnConfig) -> list[str]:
    """The kernels L2 decay applies to: every layer's but the output's (so
    tlr's Wa and Wb only when it has a hidden layer), never S.  Names do not
    depend on the input width."""
    return [s.name for s in _steps(cfg, 0) if s.layer < len(cfg.layer_units)]


class _Rows:
    """The (k, n) test mask of the ``folds`` folds of ``inputs``, their
    training rows (each row's complement) and what the loss reads of them,
    built once: a one-hot pick of each fold's training rows' labels (k, n,
    classes), as bools and as the output gradient's float target, the fold
    of each pick, the rows each fold does not train on and each fold's
    training row count."""

    def __init__(self, inputs: TrainInputs, classes: int, folds: int = 1):
        labels, test = inputs.labels, inputs.test_mask
        if labels.size and (labels.min() < 0 or labels.max() >= classes):
            raise ValueError(f"labels must lie in 0..{classes - 1} for num_classes={classes}, "
                             f"got {labels.min()}..{labels.max()}")
        if len(test) != folds:
            raise ValueError(f"masks of {len(test)} folds for {folds} seed(s): a stack "
                             f"takes one seed per fold")
        self.labels, self.train, self.test = labels, ~test, test
        self._picks = self.train[:, :, None] & (labels[:, None] == np.arange(classes))
        self._target = self._picks.astype(np.float64)
        self._pick_fold = np.nonzero(self._picks)[0]
        self._untrained = test[:, :, None]
        self._sizes = self.train.sum(axis=1, dtype=np.float64)[:, None, None]

    def cross_entropy(self, probs: np.ndarray) -> np.ndarray:
        """Each fold's mean cross-entropy over its training rows, in one
        pass over all folds' picks; NaN where one of them is NaN."""
        logs = np.log(np.maximum(probs[self._picks], 1e-300))
        sums = np.bincount(self._pick_fold, logs, minlength=len(self.train))
        return sums / -self._sizes[:, 0, 0]

    def output_grad(self, probs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gradient of each fold's cross-entropy w.r.t. its logits, written
        into ``out``: (probs - one-hot label) / the fold's training rows on
        those rows, 0 on every other row."""
        np.subtract(probs, self._target, out=out)
        out /= self._sizes
        np.copyto(out, 0.0, where=self._untrained)
        return out

    def accuracies(self, probs: np.ndarray) -> list[float]:
        pred = probs.argmax(axis=-1)
        return [float((fold[rows] == self.labels[rows]).mean())
                for fold, rows in zip(pred, self.test)]


def _stacked(n: int, width: int) -> bool:
    """Whether G products over n nodes, ``width`` columns per fold, are
    taken for all folds at once: where OpenBLAS gives each fold's columns
    of G @ [H_1 ... H_k] the bits of G @ H_i on the AVX-512 and the AVX2
    kernels: a width per fold that is a multiple of 8, or a multiple of 4
    past 10^6 (the column rule; see the module docstring)."""
    return width % 8 == 0 or (width % 4 == 0 and n * n * width > 10**6)


def _by_live_rows(live: int, n: int, width: int) -> bool:
    """Whether a stacked G product over n nodes, ``width`` columns per
    fold, of a G with ``live`` live rows may take only those rows through
    BLAS (the row rule; see the module docstring): where OpenBLAS gives
    G[live] @ [H_1 ... H_k], over all n columns, the bits of those rows of
    G @ [H_1 ... H_k]: a width per fold that is a multiple of 32, or a
    fold's own live product past 10^6, live * n * width."""
    return width % 32 == 0 or live * n * width > 10**6


# Skipping G's lone rows saves lone rows x n x width of BLAS work and costs
# a pass over n x width and a scatter of the live rows, so the break-even
# count hardly moves with n or width: about 40 lone rows at n = 200 (10
# folds) and between 40 and 80 at n = 800 (3 folds), 32 columns per fold
# (tools/bench_g_products.py, BENCH_live_rows.json).  A G takes the
# live-row path from this many lone rows on.
LONE_ROWS_TO_PAY = 64

# The OpenBLAS kernel sets (``blas_core()``) on which the row rule was
# measured to hold: product widths 32-320, n = 40-1000, lone shares 0.1-0.8,
# and widths 4, 12 and 20 past live * n * width = 10^6, n = 520-1000, lone
# shares 0.1-0.7 (below it 65 of 420 such products changed bits).
# OpenBLAS's AVX2 (Haswell) kernels break it at widths 32-320 at n = 200,
# 201, 501, 800 and 801, so on any kernel set not named here G products are
# taken whole.
_ROW_RULE_KERNELS = frozenset({"SkylakeX"})

# OpenBLAS 0.3.31's one-thread level-3 GEMM sums a product's K products
# in panels of at most GEMM_Q, the last two halved and rounded up to
# GEMM_UNROLL_M; on its SkylakeX kernels dgemm's GEMM_Q is 384 and its
# GEMM_UNROLL_M 16.  Of 35 (Q, unroll) pairs, only these kept the bits of
# the lone-column rule in every case measured.  Two threads split K another way.
_GEMM_Q, _GEMM_UNROLL_M = 384, 16


def _panels(n: int) -> list[tuple[int, int]]:
    """The [start, stop) K panels in which OpenBLAS's one-thread GEMM
    sums a G product over n columns of G: 384 while at least 768 remain,
    then, past 384, half of the rest (rounded down) rounded up to 16, then
    the rest; so one panel up to n = 384, and [0, 384), [384, 592) and
    [592, 800) at n = 800."""
    panels, start = [], 0
    while start < n:
        rest = n - start
        if rest >= 2 * _GEMM_Q:
            rest = _GEMM_Q
        elif rest > _GEMM_Q:
            rest = -(-(rest // 2) // _GEMM_UNROLL_M) * _GEMM_UNROLL_M
        panels.append((start, start + rest))
        start += rest
    return panels


def _live_rows(g: np.ndarray) -> np.ndarray:
    """The indices of G's live rows, those with an off-diagonal non-zero."""
    return np.flatnonzero(np.count_nonzero(g, axis=1) - (np.diagonal(g) != 0))


def _bit_symmetric(g: np.ndarray) -> bool:
    """Whether G equals its transpose bit for bit (so -0.0 and +0.0 differ)."""
    bits = g.view(f"u{g.itemsize}") if g.dtype.kind == "f" else g
    return bool(np.array_equal(bits, bits.T))


class _LiveRows:
    """What G products that skip G's lone rows read: the live ``rows``, G's
    diagonal, one ``copy`` of G's live rows and the buffers their products
    write, for the k-fold products of ``widths`` columns per fold that take
    the live rows.  A width that skips the lone columns too (``columns``
    set and a multiple of 32) multiplies ``panels``: per K panel of
    _panels(n) that holds a live column, the slice of ``rows`` that are
    its live columns and the copy's columns for them, a view.  Where every
    width does, the copy is G[live][:, live] (M' x M').  Where one does
    not, it is M' x n, G[live] with its columns in ``order``: with
    ``columns`` set, each panel's live columns ahead of its lone ones, so
    the panels stay where they are and only zeros move (G's live rows are
    zero in every lone column); else G's own order, and ``order`` is None.
    One buffer takes the live rows' products, and one the panel products
    past the first, where there are two panels or more, each M' rows by
    the widest such product.  G may be a transpose: the copy then holds
    G.T's live rows, G's live columns."""

    def __init__(self, g: np.ndarray, rows: np.ndarray, k: int, widths: list[int],
                 columns: bool):
        n, m = len(g), len(rows)
        self.rows, self.diag, self.columns = rows, np.diagonal(g).copy(), columns
        by_columns = [w for w in widths if self.by_columns(w)]
        all_n = len(by_columns) < len(widths)  # some product takes all n columns
        starts = [start for start, _ in _panels(n)] + [n]
        self.order = None
        if not all_n:
            self.copy = g[np.ix_(rows, rows)]
        elif by_columns:  # each panel's live columns first, then its lone ones
            lone = np.ones(n, dtype=bool)
            lone[rows] = False
            panel = np.searchsorted(starts, np.arange(n), side="right")
            self.order = np.argsort(2 * panel + lone, kind="stable")
            self.copy = g[np.ix_(rows, self.order)]
        else:
            self.copy = g[rows]
        cuts = np.searchsorted(rows, starts)
        at = starts if all_n else cuts  # where each panel's live columns start in the copy
        self.panels = [(slice(a, b), self.copy[:, c:c + b - a])
                       for a, b, c in zip(cuts, cuts[1:], at) if by_columns and a < b]
        self._live = np.empty(m * k * max(widths))
        self._sums = np.empty(m * k * max(by_columns)) if len(self.panels) > 1 else None

    def by_columns(self, width: int) -> bool:
        """Whether products ``width`` columns per fold skip the lone
        columns too: with ``columns`` set, at a multiple of 32."""
        return self.columns and width % 32 == 0

    @classmethod
    def of(cls, g: np.ndarray, k: int, widths: list[int]) -> "_LiveRows | None":
        """G's live rows for the G products of a k-fold stack, ``widths``
        columns per fold, where OpenBLAS runs a kernel set in
        _ROW_RULE_KERNELS, G has at least LONE_ROWS_TO_PAY lone rows and
        one of those products, at least, is stacked and passes
        _by_live_rows(), with a copy and buffers for those products; else
        None.  They skip the lone columns too where BLAS runs one thread,
        whose K panels _panels() gives, and G's live rows are zero in every
        lone column."""
        if blas_core() not in _ROW_RULE_KERNELS:
            return None
        n, rows = len(g), _live_rows(g)
        taken = [w for w in widths if _stacked(n, w) and _by_live_rows(len(rows), n, w)]
        if n - len(rows) < LONE_ROWS_TO_PAY or not taken:
            return None
        columns = blas_threads() == 1 and bool(np.isin(_live_rows(g.T), rows).all())
        return cls(g, rows, k, taken, columns)

    def product(self, h: np.ndarray, out: np.ndarray, width: int) -> np.ndarray:
        """G @ h for an (n, k * width) ``h``, written into the C-contiguous
        ``out``: the live rows through BLAS into the live rows' buffer,
        reading h's rows through ``out`` where they are gathered, then each
        lone row as diag * h + 0.0 (the + 0.0 turns a -0.0 into the +0.0
        BLAS writes; einsum adds each product to a zeroed ``out``, in one
        pass), then the live rows.  Where the width skips the lone columns,
        h's live rows go to ``out``'s first M' rows and each panel's product
        of them is added to the sum of those before it, in panel order, as
        OpenBLAS adds its K panels; a non-finite entry of h then reaches
        only the rows whose G reads it.  Elsewhere the copy takes all n
        columns (h's rows in ``order``, where set), so a non-finite entry of
        a column of h reaches every live row of it, as in the full product.
        The gathers take mode="clip": mode="raise" buffers its ``out``."""
        m = len(self.rows)
        live = self._live[:m * h.shape[1]].reshape(m, -1)
        if self.by_columns(width):
            gathered = np.take(h, self.rows, axis=0, out=out[:m], mode="clip")
            for p, (cut, panel) in enumerate(self.panels):
                if p == 0:
                    np.matmul(panel, gathered[cut], out=live)
                else:
                    live += np.matmul(panel, gathered[cut],
                                      out=self._sums[:live.size].reshape(m, -1))
        elif self.order is not None:
            np.matmul(self.copy, np.take(h, self.order, axis=0, out=out, mode="clip"), out=live)
        else:
            np.matmul(self.copy, h, out=live)
        np.einsum("ij,i->ij", h, self.diag, out=out)
        out[self.rows] = live
        return out


def _stack(flat: np.ndarray, k: int, n: int, width: int, wide: bool = False) -> np.ndarray:
    """The first k * n * width entries of ``flat`` as a (k, n, width)
    stack.  Where _stacked() holds, or ``wide`` is set, it is stored as the
    (n, k * width) block that _propagate() multiplies, so passing it there
    copies nothing (and elementwise work with its outputs runs over
    matching layouts); elsewhere it is stored fold by fold."""
    flat = flat[:k * n * width]
    if not (wide or _stacked(n, width)):
        return flat.reshape(k, n, width)
    return flat.reshape(n, k, width).transpose(1, 0, 2)


def _propagate(g: np.ndarray, h: np.ndarray, out: np.ndarray,
               live: _LiveRows | None = None) -> np.ndarray:
    """``g @ h[i]`` for every fold i, written into ``out``, laid out as a
    _stack().  Where _stacked() holds it takes one product over the folds'
    side-by-side columns, ``g @ [h_1 ... h_k]`` (h is copied only when it
    is not laid out that way, while an ``out`` that is not raises); of
    that product only g's live rows go through BLAS, into ``live``'s own
    buffer, where ``live`` holds g's live rows (G.T's for g = G.T) and
    _by_live_rows() holds for them, and of those rows' columns only the
    live ones, panel by panel, where ``live.by_columns()`` holds for the
    width.  Elsewhere it takes one product per fold."""
    k, n, width = h.shape
    if not _stacked(n, width):
        return np.matmul(g, h, out=out)
    wide = h.transpose(1, 0, 2).reshape(n, k * width)
    wide_out = out.transpose(1, 0, 2)
    wide_out.shape = (n, k * width)  # a view or an error, never a copy left unwritten
    if live is not None and _by_live_rows(len(live.rows), n, width):
        live.product(wide, wide_out, width)
    else:
        np.matmul(g, wide, out=wide_out)
    return out


def _nan(shape: tuple[int, ...]) -> np.ndarray:
    return np.full(shape, np.nan)


class _Workspace:
    """Every array an epoch of one stack writes, allocated once per training
    run and reused every epoch.

    Each (k, n, width) stack is made by stack() on first use under a name
    such as ``"z0"`` or ``"prop1"``, by the forward pass only (see the
    module docstring); no two names share a buffer.

    Per parameter it also holds the gradient, a scratch array (the decay
    term's gradient, then Adam's squared gradient) and, for the kernel of
    every step past the first, its transpose.  Dropout reads one buffer of
    draws and writes a bool keep-mask per hidden layer, and the training
    gates build on a bool stack per hidden layer, ``on``.  Float buffers
    start as NaN, so a read before the first write shows up as a
    non-finite loss.

    It also holds what every fold reads: the model's steps and decayed
    kernels, G (``gm``, None for variant f) and the first step's input
    (``prop0``): None where it is the identity, else G @ X (X for f),
    computed once; S scales it per fold, into a stack laid out side by
    side at every n, since no G product reads it, where S's gradient then
    forms.  ``live`` holds G's live rows for the G products, where
    _LiveRows.of() takes G: enough lone rows, on kernels that keep the row
    rule, and a stacked G product whose width per fold passes
    _by_live_rows(), for which alone its copy and buffers are sized; else
    None.  ``live_t`` is the same object for the G.T products where G
    equals its transpose bit for bit, else _LiveRows.of() of G.T, with its
    own copy and buffers (a weighted katz, RPR or GG representative scales
    by (a * d_i) * d_j).  Each side's copy of its live rows is M' x M',
    their live columns alone, where all its products skip the lone columns
    (one BLAS thread, G's live rows zero in every lone column, widths that
    are a multiple of 32), else M' x n, for a narrow product that takes
    the live rows over all n columns; beside it, a buffer for the live
    rows' products, and one for the panel sums where G has two K panels or
    more."""

    def __init__(self, model: GcnModel, inputs: TrainInputs):
        cfg, params = model.config, model.params
        k, in_dim = next(iter(params.values())).shape[:2]  # the first kernel's folds, input width
        n = inputs.x.shape[0]
        self.steps, self.decayed = _steps(cfg, in_dim), _decayed_names(cfg)
        self.gm = None if cfg.variant == "f" else inputs.g_matrix
        x = inputs.x
        self.prop0 = None if self.steps[0].g else x if self.gm is None else self.gm @ x
        self.k, self.n = k, n
        # an "in" step multiplies G by its input width, an "out" step by its output's
        widths = [s.fans[s.g == "out"] for s in self.steps if s.g]
        self.live = self.live_t = None
        if self.gm is not None:
            self.live = _LiveRows.of(self.gm, k, widths)
            self.live_t = (self.live if _bit_symmetric(self.gm)
                           else _LiveRows.of(self.gm.T, k, widths))
        self._stacks: dict[str, np.ndarray] = {}
        # laid out like their parameters, so Adam's passes match layouts
        self.grads = {name: np.full_like(p, np.nan) for name, p in params.items()}
        self.scratch = {name: np.full_like(p, np.nan) for name, p in params.items()}
        self.transposed = {s.name: _nan((k, s.fans[1], s.fans[0])) for s in self.steps[1:]}
        self.row = _nan((k, n, 1))
        self._draws = _nan(n * sum(cfg.layer_units))
        ends = np.cumsum([0, *cfg.layer_units]) * n
        self._draw_blocks = [self._draws[a:b].reshape(n, -1) for a, b in zip(ends, ends[1:])]
        self._keep = [_stack(np.empty(k * n * width, dtype=bool), k, n, width)
                      for width in cfg.layer_units]
        self.on = [_stack(np.empty(k * n * width, dtype=bool), k, n, width)
                   for width in cfg.layer_units]

    def stack(self, key: str, width: int, wide: bool = False) -> np.ndarray:
        """The (k, n, width) _stack() named ``key``, made on first use.
        ``wide`` lays it out side by side at every n, for a stack no G
        product reads: a reduction over its nodes then runs 3-4x faster
        than fold by fold, with the same bits."""
        if key not in self._stacks:
            self._stacks[key] = _stack(_nan(self.k * self.n * width), self.k, self.n, width,
                                       wide)
        return self._stacks[key]

    def keep_masks(self, rngs: list[np.random.Generator], p: float) -> list[np.ndarray]:
        """Each hidden layer's bool keep-mask over the stack.  Fold i draws
        all its hidden units with one call on its own stream, layer after
        layer, each layer's (n, width) block row by row, and thresholds them
        while the draws are still in cache."""
        for fold, rng in enumerate(rngs):
            rng.random(out=self._draws)
            for keep, draws in zip(self._keep, self._draw_blocks):
                np.greater_equal(draws, p, out=keep[fold])
        return self._keep


def _forward(model: GcnModel, ws: _Workspace, training: bool = False,
             rngs: list[np.random.Generator] | None = None) -> tuple[np.ndarray, dict]:
    """Run the net on every fold of a stack, in the stacks of ``ws``
    (training with dropout drawn from ``rngs``, fold i from ``rngs[i]``):
    row-softmax probabilities (k, n, classes) and the cache _backward()
    replays and consumes: each step's left operand of its kernel product
    ("prop": G @ H, or H where G multiplies the output or not at all; None
    for the identity), the stack each step's output went to ("z"), each
    hidden layer's gate, the float (ReLU active and dropout kept) / keep
    that scales it, the logits and the probabilities."""
    cfg, params, gm = model.config, model.params, ws.gm
    keep = None
    if training and cfg.dropout_p > 0.0:
        if rngs is None:
            raise ValueError("training forward with dropout needs an rng")
        keep = ws.keep_masks(rngs, cfg.dropout_p)
    cache: dict = {"prop": [], "z": [], "gate": []}
    h = ws.prop0
    if cfg.use_s:
        h = np.multiply(h, params["S"][:, None, :],
                        out=ws.stack("prop0", h.shape[-1], wide=True))
    for i, step in enumerate(ws.steps):
        kernel, width = params[step.name], step.fans[1]
        prop = (_propagate(gm, h, ws.stack(f"prop{i}", h.shape[-1]), ws.live)
                if step.g == "in" else h)
        if step.g == "out":
            hw = kernel if h is None else np.matmul(h, kernel, out=ws.stack(f"hw{i}", width))
            z = _propagate(gm, hw, ws.stack(f"z{i}", width), ws.live)
        else:  # an "in" step caches G @ h, not h: z takes h's buffer where the widths match
            over_h = step.g == "in" and h.shape[-1] == width
            z = np.matmul(prop, kernel, out=h if over_h else ws.stack(f"z{i}", width))
        cache["prop"].append(prop)
        cache["z"].append(z)
        h = z
        if step.hidden:
            gate = ws.stack(f"gate{i}", width)
            if keep is None:
                np.greater(z, 0.0, out=gate)
            else:
                on = np.greater(z, 0.0, out=ws.on[step.layer])
                on &= keep[step.layer]
                np.multiply(on, 1.0 / (1.0 - cfg.dropout_p), out=gate)
            cache["gate"].append(gate)
            h *= gate
    cache["logits"] = z
    cache["probs"] = _softmax(z, ws.stack("probs", width), ws.row)
    return cache["probs"], cache


def _losses(probs: np.ndarray, rows: _Rows, params: dict[str, np.ndarray],
            decayed: list[str], weight_decay: float) -> list[float]:
    """Each fold's loss: its mean cross-entropy over its training rows
    plus ``weight_decay`` times the squared norms of its ``decayed``
    kernels, each a per-fold contraction that writes no squared copy."""
    decay = sum(np.einsum("kij,kij->k", params[name], params[name]) for name in decayed)
    return (rows.cross_entropy(probs) + weight_decay * decay).tolist()


def _backward(model: GcnModel, cache: dict, rows: _Rows, ws: _Workspace) -> dict[str, np.ndarray]:
    """Exact gradients of every fold's _losses() entry w.r.t. its own
    parameters, replaying the forward ``cache`` (dropout gates included):
    fold axis first, in ``ws.grads``.  It consumes ``cache``: each stack
    it writes is one of the cache's, of its width, past that stack's last
    read (see the module docstring), so it allocates none."""
    cfg, params, gm, grads, steps = model.config, model.params, ws.gm, ws.grads, ws.steps
    dz = rows.output_grad(cache["probs"], out=cache["logits"])
    for i in reversed(range(len(steps))):
        step, prop = steps[i], cache["prop"][i]
        grad = grads[step.name]
        if step.g == "out":  # w.r.t. H @ W, the kernel itself where H is the identity
            out = grad if prop is None else ws.stack(f"hw{i}", step.fans[1])
            dz = _propagate(gm.T, dz, out, ws.live_t)
        if prop is not None:
            np.matmul(np.swapaxes(prop, -1, -2), dz, out=grad)
        if i == 0:
            break
        kernel_t = ws.transposed[step.name]
        np.copyto(kernel_t, np.swapaxes(params[step.name], 1, 2))
        dh = np.matmul(dz, kernel_t, out=prop)
        if step.g == "in":
            dh = _propagate(gm.T, dh, cache["z"][i - 1], ws.live_t)
        if steps[i - 1].hidden:
            dh *= cache["gate"][steps[i - 1].layer]
        dz = dh
    if cfg.use_s:
        dprop = np.matmul(dz, np.swapaxes(params[steps[0].name], 1, 2), out=cache["prop"][0])
        dprop *= ws.prop0
        np.sum(dprop, axis=1, out=grads["S"])

    wd = cfg.weight_decay
    if wd:
        for name in ws.decayed:
            grads[name] += np.multiply(params[name], 2.0 * wd, out=ws.scratch[name])
    return grads


def _adam_step(model: GcnModel, grads: dict[str, np.ndarray],
               scratch: dict[str, np.ndarray]) -> None:
    """One Adam update (bias-corrected, canonical betas) of every fold of a
    stack, in place; overwrites ``grads`` and ``scratch``."""
    model.step += 1
    t = model.step
    lr = model.config.learning_rate
    for name, p in model.params.items():
        g, m, v = grads[name], model.adam_m[name], model.adam_v[name]
        g2 = np.multiply(g, g, out=scratch[name])
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


def _fit(model: GcnModel, rows: _Rows, rngs: list[np.random.Generator], ws: _Workspace,
         epochs: int) -> None:
    """Run ``epochs`` full-batch Adam steps on a stack, in place, every
    epoch on the one workspace ``ws``.

    Raises TrainingDiverged at the first epoch in which any fold's loss is
    non-finite, for the lowest-index such fold.
    """
    for epoch in range(epochs):
        probs, cache = _forward(model, ws, training=True, rngs=rngs)
        losses = _losses(probs, rows, model.params, ws.decayed, model.config.weight_decay)
        finite = np.isfinite(losses)
        if not finite.all():
            fold = int(np.argmin(finite))
            norms = {name: float(np.linalg.norm(p[fold])) for name, p in model.params.items()}
            raise TrainingDiverged(epoch, norms, fold=fold)
        _adam_step(model, _backward(model, cache, rows, ws), ws.scratch)


def train_folds(inputs: TrainInputs, cfg: GcnConfig, seeds: list[int]) -> list[float]:
    """Train fold i on the complement of row i of the (k, n) test mask of
    ``inputs``, from ``seeds[i]``, all folds at once under ``cfg``, and
    return each fold's accuracy on row i after the last epoch.

    Each fold draws its init and dropout streams from its own seed, and its
    G products are stacked only at widths where _stacked() keeps each
    fold's bits (a multiple of 8, or a multiple of 4 past 10^6), so the
    accuracies are those of each fold trained alone, as a k = 1 stack with
    its (1, n) row and ``[seeds[i]]``.  Raises TrainingDiverged, with
    ``fold`` set, at the first epoch in which any fold's loss goes
    non-finite, for the lowest-index such fold.  BLAS runs on one thread,
    whose count changes some G products' bits; the caller's comes back after.
    """
    rows = _Rows(inputs, cfg.num_classes, len(seeds))
    if cfg.epochs > 0 and not rows.train.any(axis=1).all():
        raise ValueError("empty training mask")
    if not rows.test.any(axis=1).all():
        raise ValueError("empty test mask")
    with _one_blas_thread():
        model = GcnModel(cfg, _init_params(cfg, seeds, *inputs.x.shape))
        ws = _Workspace(model, inputs)
        _fit(model, rows, [derive_rng(seed, "dropout") for seed in seeds], ws, cfg.epochs)
        return rows.accuracies(_forward(model, ws)[0])
