"""Graph representatives: the matrix fed into every convolution layer.

The plain representative is the renormalized adjacency operator
D^{-1/2} (A + I) D^{-1/2}.  The similarity-based ones swap A for a
node-similarity matrix first (truncated Katz, rooted PageRank, or a
gravity-style degree/distance score), run it through an augmentation step
(L2 row normalization plus two clamping thresholds), and only then add
self-loops and renormalize.

A build holds at most two n x n float64 arrays at once, plus row blocks
and bool masks, and writes them in place (``out=``, augmented assignment),
in the same arithmetic order as the plain array expressions in
``tests/reference_representatives.py``, so each output has the same bytes.
Katz keeps A^2 and the sum and fills the sum by row blocks; RPR keeps its
system and the right-hand side of numpy's own LAPACK solve; GG keeps the
hop counts and the scores; the augmentation works in place on the one array
the build returns.  No build reads a dense adjacency cached on the graph:
each scatters the edges into the matrix (or rows) it needs and frees it
when done.  A public function writes only arrays it allocated itself, never
an argument; ``build_representative`` augments and renormalizes in place
the array the similarity build returned, or the adjacency it built.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _openblas
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


# rows per block of the Katz sum and of the row norms: 128 rows of an
# n = 800 matrix are 0.8 MB
_ROWS = 128


def _adjacency_rows(g: SocialGraph, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the dense adjacency, scattered from the edges."""
    block = np.zeros((stop - start, g.n))
    for i, j in (g.edges.T, g.edges.T[::-1]):
        mine = (i >= start) & (i < stop)
        block[i[mine] - start, j[mine]] = 1.0
    return block


def katz_matrix(g: SocialGraph, beta: float, max_power: int) -> np.ndarray:
    """Damped walk-count sum: beta^x A^x for x = 1..max_power.

    A^2 = A A^T is one symmetric product (numpy computes it at half cost),
    and A is freed after it.  The sum is then filled one block of _ROWS
    rows at a time: the block's rows of A are scattered from the edges, and
    its rows of every higher power follow from the power two below,
    P_x[b] = P_{x-2}[b] @ A^2.  The last two powers, which no later product
    reads, are taken only on and right of the block's diagonal block; the
    block's part left of it is mirrored from the rows already summed, as
    every power, and so the sum, is symmetric.  Each term is added in x
    order, so entry (i, j) is the same float sum as beta A + beta^2 A^2 +
    ... computed whole.

    Entry (i, j) of A^x counts walks and is at most (max degree)^x; while
    that stays below 2^53 every partial sum of every product is an exact
    integer in float64, so the powers do not depend on the order or the
    grouping of the products, and the mirrored entries are the computed
    ones bit for bit.

    The build holds two n x n arrays, A^2 and the sum (A and A^2 while the
    square is taken), plus a few row blocks.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    a = dense_adjacency(g)
    if max_power == 1:
        return np.multiply(a, beta, out=a)
    square = np.matmul(a, a.T)
    del a
    total = np.empty_like(square)
    scratch = np.empty((min(_ROWS, g.n), g.n))
    for start in range(0, g.n, _ROWS):
        rows = slice(start, start + _ROWS)
        powers = {1: _adjacency_rows(g, start, min(start + _ROWS, g.n)), 2: square[rows]}
        out = total[rows, start:]
        np.multiply(powers[1][:, start:], beta, out=out)
        out += np.multiply(powers[2][:, start:], beta ** 2, out=scratch[:len(out), :out.shape[1]])
        for x in range(3, max_power + 1):
            left = powers.pop(x - 2)
            if x <= max_power - 2:
                powers[x] = np.matmul(left, square)
                term = np.multiply(powers[x][:, start:], beta ** x,
                                   out=scratch[:len(out), :out.shape[1]])
            else:
                term = np.matmul(left, square[:, start:])
                term *= beta ** x
            out += term
            del left, term
        total[rows, :start] = total[:start, rows].T
    return total


# float64's largest value over two: while n * (largest entry)^2 stays below
# it, no row's squared L2 norm can overflow
_HALF_MAX = np.finfo(np.float64).max / 2


def _finite_katz(g: SocialGraph, spec: SimilaritySpec) -> np.ndarray:
    """katz_matrix() for ``spec``.  Raises ValueError naming katz_beta where
    the damped sum or a row's squared L2 norm overflows float64: augment()
    would normalize such a row to zeros, a silent identity representative.
    The largest entry bounds every row norm, so the row norms are computed
    only when that bound comes within a factor two of overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            walks = katz_matrix(g, spec.katz_beta, spec.katz_max_power)
            peak = walks.max(initial=0.0)
            finite = peak * peak * g.n < _HALF_MAX or np.isfinite(_row_norms(walks)).all()
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

    The inverse is numpy's own: the buffer is filled in Fortran layout and
    handed, with an identity right-hand side, to the LAPACK ``dgesv`` that
    ``np.linalg.inv`` calls, which factors it in place.  The solution is
    copied back in C order into the dead factors and scaled by alpha, so
    the build holds two n x n arrays where ``inv`` holds four.  Where
    numpy's libraries hold no such routine, ``np.linalg.inv`` runs instead;
    both give the same bits.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    solve = _openblas.dgesv()
    deg = g.degrees
    step = 1.0 / np.maximum(deg, 1.0)
    i, j = g.edges.T
    walks = np.zeros((g.n, g.n))
    # LAPACK reads the system column by column: fill walks with its transpose
    system = walks if solve is None else walks.T
    system[i, j] = step[i]
    system[j, i] = step[j]
    diagonal = walks.reshape(-1)[:: g.n + 1]
    diagonal[deg == 0] = 1.0
    walks *= 1.0 - alpha
    np.subtract(0.0, walks, out=walks)
    diagonal += 1.0
    if solve is None:
        walks = np.linalg.inv(walks)
    else:
        solution = np.eye(g.n, order="F")
        solve(system, solution)
        np.copyto(walks, solution)
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


def _row_norms(m: np.ndarray) -> np.ndarray:
    """(n, 1) L2 norm of every row of ``m``, its squares taken one block of
    _ROWS rows at a time; each row's sum is the one ``np.square(m).sum(axis=1)``
    computes."""
    norms = np.empty((len(m), 1))
    for start in range(0, len(m), _ROWS):
        rows = slice(start, start + _ROWS)
        np.square(m[rows]).sum(axis=1, keepdims=True, out=norms[rows])
    return np.sqrt(norms, out=norms)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    """In place: divide each row of float64 ``m`` by its L2 norm; zero rows
    pass."""
    norms = _row_norms(m)
    norms[~(norms > 0)] = 1.0
    m /= norms
    return m


def l2_row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Divide each row by its L2 norm; zero rows pass.  Returns a new float64
    array."""
    return _normalize_rows(np.array(matrix, dtype=np.float64))


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


def _augment(m: np.ndarray, spec: SimilaritySpec) -> np.ndarray:
    """:func:`augment` in place on float64 ``m``, which it returns."""
    if m.min() < 0:
        raise ValueError("augment expects a non-negative matrix")
    _normalize_rows(m)
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


def augment(matrix: np.ndarray, spec: SimilaritySpec) -> np.ndarray:
    """L2-normalize rows, clamp through the spec's thresholds, re-symmetrize.

    Auto mode binarizes at the mean of the normalized matrix's non-zero
    entries.  Row normalization breaks symmetry, so the result is averaged
    with its transpose; entries whose both orientations were clamped to
    {0, 1} are re-binarized (either side at 1 wins) so threshold output
    stays binary.  Returns a new float64 array; every step writes that one
    array in place, with two bool masks beside it.
    """
    return _augment(np.array(matrix, dtype=np.float64), spec)


def build_representative(
    g: SocialGraph, spec: SimilaritySpec, provenance: str = ""
) -> GraphRepresentative:
    """Similarity pipeline, self-loops, symmetric degree normalization: the
    augmentation and the last two in place on the array the build made."""
    if spec.kind == "adjacency":
        a_tilde = dense_adjacency(g)
    elif spec.kind == "katz":
        a_tilde = _augment(_finite_katz(g, spec), spec)
    elif spec.kind == "rpr":
        a_tilde = _augment(rpr_matrix(g, spec.rpr_alpha), spec)
    else:
        a_tilde = _augment(gg_matrix(g), spec)
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
