"""Graph representatives: the matrix fed into every convolution layer.

The plain representative is the renormalized adjacency operator
D^{-1/2} (A + I) D^{-1/2}.  The similarity-based ones swap A for a
node-similarity matrix first (truncated Katz, rooted PageRank, or a
gravity-style degree/distance score), run it through an augmentation step
(L2 row normalization plus two clamping thresholds), and only then add
self-loops and renormalize.

A build holds a few n x n buffers and writes them in place (``out=``,
augmented assignment), in the same arithmetic order as the plain array
expressions in ``tests/reference_representatives.py``, so each output has
the same bytes.  No build reads a dense adjacency cached on the graph:
each scatters the edges into the matrix it needs (the adjacency, Katz's
A, RPR's walk matrix, GG's +1 at the edges) and frees it when done.  A
public function writes only arrays it allocated itself, never an
argument; ``build_representative`` renormalizes in place the array
``augment`` returned, or the adjacency it built.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import SocialGraph, dense_adjacency, shortest_path_matrix

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
        if not (isinstance(self.kind, str) and self.kind.lower() in _KINDS):
            raise ValueError(f"unknown similarity kind {self.kind!r}")
        object.__setattr__(self, "kind", self.kind.lower())
        beta, power, alpha = self.katz_beta, self.katz_max_power, self.rpr_alpha
        if isinstance(beta, bool) or not (isinstance(beta, numbers.Real) and beta > 0.0
                                          and math.isfinite(beta)):
            raise ValueError(f"katz_beta must be > 0 and finite, got {beta!r}")
        if isinstance(power, bool) or not isinstance(power, numbers.Integral) or power < 1:
            raise ValueError(f"katz_max_power must be an integer >= 1, got {power!r}")
        if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
            raise ValueError(f"rpr_alpha must lie in (0, 1), got {alpha!r}")
        lo, hi = self.threshold_lo, self.threshold_hi
        if (lo == AUTO) != (hi == AUTO):
            raise ValueError("auto thresholding applies to both thresholds")
        if lo != AUTO and not all(isinstance(t, numbers.Real) and not isinstance(t, bool)
                                  and not math.isnan(t) for t in (lo, hi)):
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

    It scatters its own A and runs in the sum and, for max_power = 5, two
    power buffers: x = 1 goes straight into the sum (into A itself where no
    product reads A), a power that no later product reads is scaled in
    place, and one that a later product reads is scaled into a power buffer
    that no pending product reads.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    a = dense_adjacency(g)
    # the powers a later product reads: the halves of the even powers, and
    # the even powers below an odd one
    read = {x for x in range(1, max_power) if 2 * x <= max_power or x % 2 == 0}
    total = np.multiply(a, beta, out=None if 1 in read else a)
    buffers: list[np.ndarray] = []

    def free(*live: np.ndarray) -> np.ndarray:
        """A power buffer that none of ``live`` is, made when each one is."""
        out = next((b for b in buffers if all(b is not v for v in live)), None)
        if out is None:
            out = np.empty_like(a)
            buffers.append(out)
        return out

    halves = {1: a} if max_power >= 2 else {}
    power = a
    for x in range(2, max_power + 1):
        left = halves.pop(x // 2) if x % 2 == 0 else power
        right = left.T if x % 2 == 0 else a
        power = np.matmul(left, right, out=free(left, *halves.values()))
        if 2 * x <= max_power:
            halves[x] = power
        if x in read:
            total += np.multiply(power, beta ** x, out=free(power, *halves.values()))
        else:
            power *= beta ** x
            total += power
    return total


# float64's largest value over two: while n * (largest entry)^2 stays below
# it, no row's squared L2 norm can overflow
_HALF_MAX = np.finfo(np.float64).max / 2


def _finite_katz(g: SocialGraph, spec: SimilaritySpec) -> np.ndarray:
    """katz_matrix() for ``spec``.  Raises ValueError naming katz_beta where
    the damped sum or a row's squared L2 norm overflows float64: augment()
    would normalize such a row to zeros, a silent identity representative.
    The largest entry bounds every row norm, so the squared row sums are
    computed only when that bound comes within a factor two of overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            walks = katz_matrix(g, spec.katz_beta, spec.katz_max_power)
            peak = walks.max(initial=0.0)
            finite = (peak * peak * g.n < _HALF_MAX
                      or np.isfinite(np.square(walks).sum(axis=1)).all())
        except OverflowError:  # beta ** x beyond float64
            finite = False
    if not finite:
        raise ValueError(f"katz_beta={spec.katz_beta!r} with katz_max_power="
                         f"{spec.katz_max_power} overflows the Katz sum or its row norms")
    return walks


def rpr_matrix(g: SocialGraph, alpha: float) -> np.ndarray:
    """Rooted-PageRank similarity: row i is the stationary distribution of a
    walk that restarts at i with probability alpha and otherwise moves to a
    uniform neighbour.  Isolated nodes self-transition, so every row is a
    proper distribution.

    The stationary rows solve R (I - (1-alpha) T) = alpha I.  I - (1-alpha) T
    is built in one buffer: T is 1 / deg(i) scattered at both orientations
    of every edge, and its off-diagonal entries become 0.0 - (1-alpha) t,
    so a zero stays +0.0 as in the subtraction from an identity matrix.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    deg = g.degrees
    step = 1.0 / np.maximum(deg, 1.0)
    i, j = g.edges.T
    system = np.zeros((g.n, g.n))
    system[i, j] = step[i]
    system[j, i] = step[j]
    diagonal = system.reshape(-1)[:: g.n + 1]
    diagonal[deg == 0] = 1.0
    system *= 1.0 - alpha
    np.subtract(0.0, system, out=system)
    diagonal += 1.0
    walks = np.linalg.inv(system)
    walks *= alpha
    return walks


def raw_gravity_scores(g: SocialGraph) -> np.ndarray:
    """Pre-normalization gravity scores: degree product over squared
    shortest-path length for every unconnected reachable pair, 0 elsewhere.
    Exposed for verification against the per-pair formula.

    The diagonal (hop count 0) and the edges (1) are set to an infinite
    distance, like the unreachable pairs, so one dense division scores every
    pair: a degree product over infinity is +0.0."""
    sp = shortest_path_matrix(g)
    sp[sp <= 1.0] = np.inf
    np.square(sp, out=sp)
    deg = g.degrees.astype(np.float64)
    raw = np.multiply.outer(deg, deg)
    raw /= sp
    return raw


def gg_matrix(g: SocialGraph) -> np.ndarray:
    """Gravity scores (:func:`raw_gravity_scores`) min-max normalized to
    [0, 1] and added onto the adjacency matrix (1.0 added at both
    orientations of every edge, where the scores are 0).  Existing edges
    therefore sit at exactly 1; unreachable pairs and the diagonal stay 0."""
    out = raw_gravity_scores(g)
    scorable = out > 0  # a reachable non-adjacent pair has both degrees >= 1
    if scorable.any():
        lo, hi = out.min(where=scorable, initial=np.inf), out.max()
        if hi > lo:
            np.subtract(out, lo, out=out, where=scorable)
            np.divide(out, hi - lo, out=out, where=scorable)
        else:
            # single distinct score: treat it as the maximum
            out[scorable] = 1.0
    i, j = g.edges.T
    out[i, j] += 1.0
    out[j, i] += 1.0
    return out


def l2_row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Divide each row by its L2 norm; zero rows pass.  Returns a new float64
    array."""
    matrix = np.asarray(matrix, dtype=np.float64)
    out = np.square(matrix)
    norms = out.sum(axis=1, keepdims=True)
    np.sqrt(norms, out=norms)
    norms[~(norms > 0)] = 1.0
    return np.divide(matrix, norms, out=out)


def _binarize_at_mean(m: np.ndarray, mask: np.ndarray) -> None:
    """In place: entries of ``m`` above the mean of its positive entries
    become 1, everything else 0.  ``mask`` is a bool scratch of m's shape."""
    np.greater(m, 0.0, out=mask)
    nz = m[mask]
    mean = nz.mean() if nz.size else 0.0
    np.greater(m, mean, out=mask)
    np.copyto(m, mask)


# 64 x 64 float64 tiles are 32 KB: small enough to come from the heap
_TILE = 64


def _symmetrize(m: np.ndarray) -> None:
    """In place: m <- (m + m.T) / 2.0, one tile and its mirror at a time.
    IEEE addition commutes, so both entries of a pair get the bits of the
    out-of-place expression."""
    n = len(m)
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            tile = m[i:i + _TILE, j:j + _TILE] + m[j:j + _TILE, i:i + _TILE].T
            tile /= 2.0
            m[i:i + _TILE, j:j + _TILE] = tile
            m[j:j + _TILE, i:i + _TILE] = tile.T


def augment(matrix: np.ndarray, spec: SimilaritySpec) -> np.ndarray:
    """L2-normalize rows, clamp through the spec's thresholds, re-symmetrize.

    Auto mode binarizes at the mean of the normalized matrix's non-zero
    entries.  Row normalization breaks symmetry, so the result is averaged
    with its transpose; entries whose both orientations were clamped to
    {0, 1} are re-binarized (either side at 1 wins) so threshold output
    stays binary.  Every step after the normalization writes its one float
    output in place, with two bool masks beside it.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.min() < 0:
        raise ValueError("augment expects a non-negative matrix")
    m = l2_row_normalize(matrix)
    clamped = np.empty(m.shape, dtype=bool)
    if spec.auto_threshold:
        # every entry is clamped in both orientations
        _binarize_at_mean(m, clamped)
        _symmetrize(m)
        np.greater(m, 0.0, out=clamped)
        np.copyto(m, clamped)
        return m
    lo, hi = float(spec.threshold_lo), float(spec.threshold_hi)
    high = np.greater(m, hi)
    np.less_equal(m, lo, out=clamped)
    np.copyto(m, 1.0, where=high)
    np.copyto(m, 0.0, where=clamped)
    clamped |= high
    _symmetrize(m)
    both = np.logical_and(clamped, clamped.T, out=high)
    np.greater(m, 0.0, out=clamped)
    np.copyto(m, clamped, where=both)
    return m


def build_representative(
    g: SocialGraph, spec: SimilaritySpec, provenance: str = ""
) -> GraphRepresentative:
    """Similarity pipeline, self-loops, symmetric degree normalization, the
    last two in place on the pipeline's output."""
    if spec.kind == "adjacency":
        a_tilde = dense_adjacency(g)
    elif spec.kind == "katz":
        a_tilde = augment(_finite_katz(g, spec), spec)
    elif spec.kind == "rpr":
        a_tilde = augment(rpr_matrix(g, spec.rpr_alpha), spec)
    else:
        a_tilde = augment(gg_matrix(g), spec)
    if not spec.auto_threshold and spec.threshold_lo < 0:
        # a -0.0 passes augment only below a negative threshold; adding the
        # identity matrix made it +0.0
        a_tilde += 0.0
    a_tilde.reshape(-1)[:: g.n + 1] += 1.0
    dinv = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    a_tilde *= dinv[:, None]
    a_tilde *= dinv
    return GraphRepresentative(matrix=a_tilde, spec=spec, provenance=provenance)


_MAGIC = b"SOCG"


def save_representative(rep: GraphRepresentative, path: str | Path) -> None:
    """Binary dump: magic ``SOCG``, u32 n, then n*n little-endian f64 row-major."""
    m = np.ascontiguousarray(rep.matrix, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", m.shape[0]))
        fh.write(m.data)


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
