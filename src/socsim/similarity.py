"""Graph representatives: the matrix fed into every convolution layer.

The plain representative is the renormalized adjacency operator
D^{-1/2} (A + I) D^{-1/2}.  The similarity-based ones swap A for a
node-similarity matrix first (truncated Katz, rooted PageRank, or a
gravity-style degree/distance score), run it through an augmentation step
(L2 row normalization plus two clamping thresholds), and only then add
self-loops and renormalize.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import SocialGraph, shortest_path_matrix

AUTO = "auto"

_KINDS = ("adjacency", "katz", "rpr", "gg")


@dataclass(frozen=True)
class SimilaritySpec:
    """Recipe for building one representative.

    thresholds: after L2 row normalization, entries <= threshold_lo drop to
    zero and entries > threshold_hi clamp to one; values in between pass
    through.  The string ``"auto"`` replaces both with a single binarization
    threshold at the mean of the matrix's non-zero entries.
    """

    kind: str = "adjacency"
    katz_beta: float = 0.005
    katz_max_power: int = 5
    rpr_alpha: float = 0.85
    threshold_lo: float | str = 0.0
    threshold_hi: float | str = 1.0

    def __post_init__(self):
        kind = self.kind.lower()
        if kind not in _KINDS:
            raise ValueError(f"unknown similarity kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if not self.katz_beta > 0.0:
            raise ValueError(f"katz_beta must be > 0, got {self.katz_beta!r}")
        if self.katz_max_power < 1:
            raise ValueError("katz_max_power must be >= 1")
        if not (0.0 < self.rpr_alpha < 1.0):
            raise ValueError("rpr_alpha must lie in (0, 1)")
        lo, hi = self.threshold_lo, self.threshold_hi
        if (lo == AUTO) != (hi == AUTO):
            raise ValueError("auto thresholding applies to both thresholds")
        if lo != AUTO and (np.isnan(float(lo)) or np.isnan(float(hi))):
            raise ValueError(f"thresholds must be numbers or 'auto', got {lo!r} and {hi!r}")
        if lo != AUTO and float(lo) > float(hi):
            raise ValueError("threshold_lo must not exceed threshold_hi")

    @property
    def auto_threshold(self) -> bool:
        return self.threshold_lo == AUTO


@dataclass(frozen=True, eq=False)
class GraphRepresentative:
    matrix: np.ndarray
    spec: SimilaritySpec
    provenance: str = ""


def katz_matrix(g: SocialGraph, beta: float, max_power: int) -> np.ndarray:
    """Damped walk-count sum: beta^x A^x for x = 1..max_power.

    An even power is the product of the half power with its transpose
    (A^2 = A A^T, A^4 = A^2 (A^2)^T, which numpy computes as a symmetric
    product at half cost), an odd one is the previous power times A.  Entry
    (i, j) of A^x counts walks and is at most (max degree)^x; while that
    stays below 2^53 every partial sum of every product is an exact integer
    in float64, so the powers, and hence the sum, do not depend on the order
    of the products.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    a = g.adjacency
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


def rpr_matrix(g: SocialGraph, alpha: float) -> np.ndarray:
    """Rooted-PageRank similarity: row i is the stationary distribution of a
    walk that restarts at i with probability alpha and otherwise moves to a
    uniform neighbour.  Isolated nodes self-transition, so every row is a
    proper distribution."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    a = g.adjacency
    deg = a.sum(axis=1)
    trans = np.where(deg[:, None] > 0, a / np.maximum(deg, 1.0)[:, None], 0.0)
    trans[deg == 0] = np.eye(g.n)[deg == 0]
    # stationary rows solve R (I - (1-alpha) T) = alpha I
    return alpha * np.linalg.inv(np.eye(g.n) - (1.0 - alpha) * trans)


def raw_gravity_scores(g: SocialGraph) -> np.ndarray:
    """Pre-normalization gravity scores: degree product over squared
    shortest-path length for every unconnected reachable pair, 0 elsewhere.
    Exposed for verification against the per-pair formula."""
    sp = shortest_path_matrix(g)
    deg = g.degrees.astype(np.float64)
    scorable = np.isfinite(sp) & (g.adjacency == 0)
    np.fill_diagonal(scorable, False)
    raw = np.zeros((g.n, g.n))
    raw[scorable] = (deg[:, None] * deg[None, :])[scorable] / sp[scorable] ** 2
    return raw


def gg_matrix(g: SocialGraph) -> np.ndarray:
    """Gravity scores (:func:`raw_gravity_scores`) min-max normalized to
    [0, 1] and added onto the adjacency matrix.  Existing edges therefore sit
    at exactly 1; unreachable pairs and the diagonal stay 0."""
    raw = raw_gravity_scores(g)
    scorable = raw > 0  # a reachable non-adjacent pair has both degrees >= 1
    out = g.adjacency.copy()
    if scorable.any():
        lo, hi = raw[scorable].min(), raw[scorable].max()
        if hi > lo:
            out[scorable] = (raw[scorable] - lo) / (hi - lo)
        else:
            # single distinct score: treat it as the maximum
            out[scorable] = 1.0
    return out


def l2_row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Divide each row by its L2 norm; zero rows pass."""
    norms = np.sqrt((matrix ** 2).sum(axis=1, keepdims=True))
    return matrix / np.where(norms > 0, norms, 1.0)


def auto_binarize(matrix: np.ndarray) -> np.ndarray:
    """Binarize at the mean of the non-zero entries: entries above the mean
    become 1, everything else 0.  Expects an already-normalized matrix."""
    nz = matrix[matrix > 0]
    mean = nz.mean() if nz.size else 0.0
    return np.where(matrix > mean, 1.0, 0.0)


def augment(matrix: np.ndarray, spec: SimilaritySpec) -> np.ndarray:
    """L2-normalize rows, clamp through the spec's thresholds, re-symmetrize.

    Auto mode binarizes at the mean of the normalized matrix's non-zero
    entries.  Row normalization breaks symmetry, so the result is averaged
    with its transpose; entries whose both orientations were clamped to
    {0, 1} are re-binarized (either side at 1 wins) so threshold output
    stays binary.
    """
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


def build_representative(
    g: SocialGraph, spec: SimilaritySpec, provenance: str = ""
) -> GraphRepresentative:
    """Similarity pipeline, self-loops, symmetric degree normalization."""
    if spec.kind == "adjacency":
        a_hat = g.adjacency
    elif spec.kind == "katz":
        a_hat = augment(katz_matrix(g, spec.katz_beta, spec.katz_max_power), spec)
    elif spec.kind == "rpr":
        a_hat = augment(rpr_matrix(g, spec.rpr_alpha), spec)
    else:
        a_hat = augment(gg_matrix(g), spec)
    a_tilde = a_hat + np.eye(g.n)
    dinv = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    matrix = a_tilde * dinv[:, None] * dinv[None, :]
    return GraphRepresentative(matrix=matrix, spec=spec, provenance=provenance)


_MAGIC = b"SOCG"


def save_representative(rep: GraphRepresentative, path: str | Path) -> None:
    """Binary dump: magic ``SOCG``, u32 n, then n*n little-endian f64 row-major."""
    m = np.ascontiguousarray(rep.matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", m.shape[0]))
        fh.write(m.tobytes())


def load_representative_matrix(path: str | Path) -> np.ndarray:
    """Read a save_representative() file.  A file of the wrong magic or
    length, or whose matrix has a non-finite or negative entry or is not
    symmetric within rtol 1e-12, atol 1e-15 (a built one is to about an
    ulp), raises ValueError; low mantissa bit flips pass unseen."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a representative file (bad magic {data[:4]!r})")
    n = struct.unpack("<I", data[4:8])[0] if len(data) >= 8 else 0
    if len(data) != 8 + 8 * n * n:
        raise ValueError(f"{path}: representative file for n={n} must be {8 + 8 * n * n} "
                         f"bytes, got {len(data)}")
    m = np.frombuffer(data, dtype="<f8", offset=8).reshape(n, n).astype(np.float64)
    if not np.all(np.isfinite(m) & (m >= 0)):
        raise ValueError(f"{path}: representative has non-finite or negative entries")
    if not np.allclose(m, m.T, rtol=1e-12, atol=1e-15):
        raise ValueError(f"{path}: representative is not symmetric")
    return m


def save_representative_csv(rep: GraphRepresentative, path: str | Path) -> None:
    np.savetxt(path, rep.matrix, fmt="%.17g", delimiter=",")
