"""Representative builds written as plain array expressions.

This is the reference the buffer-reusing builds in ``socsim.similarity``
are tested against byte for byte (``test_similarity.py``), and the "before"
side of ``tools/bench_representatives.py``; no pipeline path calls it.
Every function allocates its temporaries afresh and never writes an
argument.
"""

import numpy as np

from socsim.graph import SocialGraph, dense_adjacency, shortest_path_matrix
from socsim.similarity import SimilaritySpec


def katz_matrix(g: SocialGraph, beta: float, max_power: int) -> np.ndarray:
    """beta^x A^x summed for x = 1..max_power; even powers as half @ half.T."""
    a = dense_adjacency(g)
    total = np.zeros_like(a)
    halves = {}
    power = a
    for x in range(1, max_power + 1):
        if x % 2 == 0:
            half = halves.pop(x // 2)
            power = half @ half.T
        elif x > 1:
            power = power @ a
        if 2 * x <= max_power:
            halves[x] = power
        total += (beta ** x) * power
    return total


def finite_katz(g: SocialGraph, spec: SimilaritySpec) -> np.ndarray:
    """katz_matrix() for ``spec``; ValueError naming katz_beta where the sum
    or a row's squared L2 norm overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            walks = katz_matrix(g, spec.katz_beta, spec.katz_max_power)
            finite = np.isfinite(np.square(walks).sum(axis=1)).all()
        except OverflowError:
            finite = False
    if not finite:
        raise ValueError(f"katz_beta={spec.katz_beta!r} with katz_max_power="
                         f"{spec.katz_max_power} overflows the Katz sum or its row norms")
    return walks


def rpr_matrix(g: SocialGraph, alpha: float) -> np.ndarray:
    """alpha (I - (1-alpha) T)^-1, T the row-stochastic walk matrix with
    isolated nodes self-transitioning."""
    a = dense_adjacency(g)
    deg = a.sum(axis=1)
    trans = np.where(deg[:, None] > 0, a / np.maximum(deg, 1.0)[:, None], 0.0)
    trans[deg == 0] = np.eye(g.n)[deg == 0]
    return alpha * np.linalg.inv(np.eye(g.n) - (1.0 - alpha) * trans)


def raw_gravity_scores(g: SocialGraph) -> np.ndarray:
    """deg_i deg_j / sp_ij^2 on unconnected reachable pairs, 0 elsewhere."""
    sp = shortest_path_matrix(g)
    deg = g.degrees.astype(np.float64)
    scorable = np.isfinite(sp) & (dense_adjacency(g) == 0)
    np.fill_diagonal(scorable, False)
    raw = np.zeros((g.n, g.n))
    raw[scorable] = (deg[:, None] * deg[None, :])[scorable] / sp[scorable] ** 2
    return raw


def gg_matrix(g: SocialGraph) -> np.ndarray:
    """Min-max normalized gravity scores added onto the adjacency matrix."""
    raw = raw_gravity_scores(g)
    scorable = raw > 0
    out = dense_adjacency(g)
    if scorable.any():
        lo, hi = raw[scorable].min(), raw[scorable].max()
        if hi > lo:
            out[scorable] = (raw[scorable] - lo) / (hi - lo)
        else:
            out[scorable] = 1.0
    return out


def l2_row_normalize(matrix: np.ndarray) -> np.ndarray:
    norms = np.sqrt((matrix ** 2).sum(axis=1, keepdims=True))
    return matrix / np.where(norms > 0, norms, 1.0)


def auto_binarize(matrix: np.ndarray) -> np.ndarray:
    """Entries above the mean of the positive entries become 1, everything
    else 0: the rule ``socsim.similarity._binarize_at_mean`` applies in
    place."""
    nz = matrix[matrix > 0]
    mean = nz.mean() if nz.size else 0.0
    return np.where(matrix > mean, 1.0, 0.0)


def augment(matrix: np.ndarray, spec: SimilaritySpec) -> np.ndarray:
    """L2 row normalization, thresholds, (m + m.T) / 2, re-binarize entries
    clamped in both orientations."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.min() < 0:
        raise ValueError("augment expects a non-negative matrix")
    m = l2_row_normalize(matrix)
    if spec.auto_threshold:
        clamped = np.ones(m.shape, dtype=bool)
        m = auto_binarize(m)
    else:
        lo, hi = float(spec.threshold_lo), float(spec.threshold_hi)
        clamped = (m <= lo) | (m > hi)
        m = np.where(m <= lo, 0.0, np.where(m > hi, 1.0, m))
    sym = (m + m.T) / 2.0
    both = clamped & clamped.T
    sym[both] = (sym[both] > 0).astype(np.float64)
    return sym


def build_matrix(g: SocialGraph, spec: SimilaritySpec) -> np.ndarray:
    """The representative matrix: D^{-1/2} (A_hat + I) D^{-1/2}."""
    if spec.kind == "adjacency":
        a_hat = dense_adjacency(g)
    elif spec.kind == "katz":
        a_hat = augment(finite_katz(g, spec), spec)
    elif spec.kind == "rpr":
        a_hat = augment(rpr_matrix(g, spec.rpr_alpha), spec)
    else:
        a_hat = augment(gg_matrix(g), spec)
    a_tilde = a_hat + np.eye(g.n)
    dinv = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * dinv[:, None] * dinv[None, :]
