"""Undirected simple graph with per-node features and preference labels.

The graph value is immutable once built: the simulator produces successive
snapshots as new instances, and everything downstream (scoring, similarity
matrices, training) only reads.  Edges are stored once, as a canonical
read-only ``(m, 2)`` int64 array (rows ``i < j``, unique, lexicographically
sorted), and the degrees are a cached read-only array derived from it.
The graph keeps no n x n matrix: every build scatters the edges into the
dense one it needs itself (:func:`dense_adjacency`).

The simulator carries the still-unconnected pairs as one sorted int64
array of codes ``i * n + j`` (:func:`unconnected_codes`): ascending code
order is lexicographic pair order, a pair costs 8 bytes, and a round's new
edges leave it by binary search (:func:`drop_pairs`).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an array, as ``np.unique`` returns
    them, from a sort and an adjacent-difference mask.  (``np.unique``
    imports ``numpy.ma`` on its first call, about 13 ms per process.)"""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def normalize_edges(edges, n: int) -> np.ndarray:
    """Canonicalize an (m, 2) array or iterable of node pairs to a read-only
    (m, 2) int64 array of unique rows i < j in lexicographic order.  Raises
    ``ValueError`` on a self-loop or a node id outside 0..n-1."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be node pairs, got an array of shape {arr.shape}")
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        raise ValueError(f"self-loop on node {arr[loops][0, 0]}")
    outside = (arr < 0) | (arr >= n)
    if outside.any():
        i, j = arr[outside.any(axis=1)][0]
        raise ValueError(f"edge ({i},{j}) out of range for n={n}")
    lo, hi = arr.min(axis=1), arr.max(axis=1)
    keys = sorted_unique(lo * n + hi)
    out = np.column_stack([keys // n, keys % n])
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SocialGraph:
    """Snapshot of a simulated social network.

    n               number of nodes (ids 0..n-1)
    edges           canonical (m, 2) int64 edge array (see normalize_edges);
                    built from any array or iterable of node pairs
    features        (n, f) real feature matrix, one row per node
    sdna_of         (n,) id of the preference record each node subscribes to;
                    doubles as the node's class label
    """

    n: int
    edges: np.ndarray
    features: np.ndarray
    sdna_of: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", normalize_edges(self.edges, self.n))
        features = np.asarray(self.features, dtype=np.float64)
        sdna_of = np.asarray(self.sdna_of, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] != self.n:
            raise ValueError(f"features must be ({self.n}, f), got {features.shape}")
        if sdna_of.shape != (self.n,):
            raise ValueError(f"sdna_of must have length {self.n}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "sdna_of", sdna_of)

    def __reduce__(self):
        # rebuilt through __init__: a pickled graph carries its fields, not
        # its cached views, and comes back with read-only edges
        return SocialGraph, (self.n, self.edges, self.features, self.sdna_of)

    @cached_property
    def degrees(self) -> np.ndarray:
        """(n,) integer degree of every node, read-only."""
        deg = np.bincount(self.edges.ravel(), minlength=self.n)
        deg.flags.writeable = False
        return deg

    def with_edges(self, new_edges) -> "SocialGraph":
        """Copy of this graph with extra edges (features and labels shared)."""
        extra = normalize_edges(new_edges, self.n)
        return replace(self, edges=np.concatenate([self.edges, extra]))


def dense_adjacency(g: SocialGraph, dtype=np.float64) -> np.ndarray:
    """A fresh, writable (n, n) symmetric adjacency matrix of ``dtype``:
    one (True for bool) at both orientations of every edge, zero elsewhere."""
    a = np.zeros((g.n, g.n), dtype=dtype)
    i, j = g.edges.T
    a[i, j] = 1
    a[j, i] = 1
    return a


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """(n, n) boolean matrix as (n, w) uint64 bit rows: the ``np.packbits``
    bytes of each row, zero-padded to whole 64-bit words."""
    n = matrix.shape[0]
    rows = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)
    rows[:, : -(-n // 8)] = np.packbits(matrix, axis=1)
    return rows.view(np.uint64)


def _unpack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_pack_rows`: the (n, n) boolean matrix."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=n).view(bool)


def _neighbour_lists(g: SocialGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR view of the canonical edges: every node's neighbours back to back
    in node order, and the offset of each node's run among them."""
    src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    return dst[np.argsort(src, kind="stable")], np.cumsum(g.degrees) - g.degrees


def _neighbour_or(rows: np.ndarray, neighbours: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Boolean product A @ R on bit rows: row i of the result is the bitwise
    OR of ``rows[k]`` over the neighbours k of i (see :func:`_neighbour_lists`).

    A step costs O(m * n / 64) word operations instead of a dense n^3
    product; a node with no neighbour gets a zero row.
    """
    out = np.zeros_like(rows)
    has = np.diff(starts, append=len(neighbours)) > 0
    out[has] = np.bitwise_or.reduceat(rows[neighbours], starts[has], axis=0)
    return out


def walk_bit_rows(g: SocialGraph, max_length: int) -> list[np.ndarray]:
    """Packed walk-existence rows for lengths 2..max_length, one (n, w)
    uint8 array per length: bit ``7 - (j & 7)`` of byte ``j >> 3`` of row i
    is set iff some walk of length exactly x joins i and j.

    Each power is the x-th boolean-semiring power of the adjacency matrix,
    and the next one ORs the rows of each node's neighbours
    (A^x = A @ A^(x-1)); no walk is counted, so nothing can overflow.
    """
    if max_length < 2:
        return []
    lists = _neighbour_lists(g)
    power = _pack_rows(dense_adjacency(g, bool))
    out = []
    for _ in range(2, max_length + 1):
        power = _neighbour_or(power, *lists)
        out.append(power.view(np.uint8))
    return out


def shortest_path_matrix(g: SocialGraph) -> np.ndarray:
    """All-pairs hop counts via breadth-first search, np.inf where unreachable.

    The search runs level-synchronously from every source at once: the
    frontier of each BFS is a packed bit row, and one neighbour-OR step
    advances all of them a level (the nodes one hop beyond source s's
    frontier are those some neighbour of s has at that depth, because hop
    counts are symmetric).
    """
    n = g.n
    sp = np.full((n, n), np.inf)
    np.fill_diagonal(sp, 0.0)
    lists = _neighbour_lists(g)
    reached = _pack_rows(np.eye(n, dtype=bool))
    frontier = reached
    dist = 0
    while True:
        dist += 1
        frontier = _neighbour_or(frontier, *lists) & ~reached
        if not frontier.any():
            break
        sp[_unpack_rows(frontier, n)] = dist
        reached |= frontier
    return sp


def unconnected_codes(g: SocialGraph) -> np.ndarray:
    """Sorted (m,) int64 codes ``i * n + j`` of every pair i < j that is not
    an edge: the flat indices of the open entries of an (n, n) bool
    upper-triangle mask, from which the edges are scattered out."""
    closed = np.tri(g.n, dtype=bool)  # i >= j: the diagonal and below
    closed[g.edges[:, 0], g.edges[:, 1]] = True
    return np.flatnonzero(np.logical_not(closed, out=closed))


def decode_pairs(codes: np.ndarray, n: int) -> np.ndarray:
    """(m, 2) int64 node pairs of codes ``i * n + j``, in the codes' order."""
    return np.column_stack(np.divmod(codes, n))


def drop_pairs(codes: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """``codes`` without the codes in ``drop``, order kept.  ``codes`` is
    sorted and holds every code of ``drop``, so a binary search finds each
    one.  (On a 1-d array a boolean index copies the kept codes in half
    the time and memory of ``np.compress``, which first lists their
    indices.)"""
    keep = np.ones(len(codes), dtype=bool)
    keep[np.searchsorted(codes, drop)] = False
    return codes[keep]


def _write_rows(path: Path, rows: np.ndarray, fmt: str, delimiter: str,
                newline: str = "\n") -> None:
    """The bytes ``np.savetxt(path, rows, fmt, delimiter, newline)`` writes
    for a 2-d array, formatted by one ``%`` over the whole array rather than
    one per row."""
    line = delimiter.join([fmt] * rows.shape[1]) + newline
    path.write_bytes((line * len(rows) % tuple(rows.ravel().tolist())).encode())


def save_graph_dir(g: SocialGraph, path: str | Path) -> None:
    """Write edges.tsv / features.csv / labels.csv under ``path``.

    edges.tsv holds one ``i<TAB>j`` per line with i < j; features.csv is a
    headerless CSV with one row per node; labels.csv holds ``node,sdna_id``
    rows ending in CRLF.  All indices 0-based.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    _write_rows(path / "edges.tsv", g.edges, "%d", "\t")
    # %.17g round-trips float64 exactly
    _write_rows(path / "features.csv", g.features, "%.17g", ",")
    labels = np.column_stack([np.arange(g.n), g.sdna_of])
    _write_rows(path / "labels.csv", labels, "%d", ",", newline="\r\n")


def _read_int_pairs(path: Path, delimiter: str, what: str) -> np.ndarray:
    """(rows, 2) int64 array from a headerless two-column integer file."""
    text = path.read_text()
    if not text.strip():
        return np.zeros((0, 2), dtype=np.int64)
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, delimiter=delimiter, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: every row must be {what}: {exc}") from exc
    if rows.shape[1] != 2:
        raise ValueError(f"{path}: every row must be {what}, got {rows.shape[1]} columns")
    return rows


def load_graph_dir(path: str | Path) -> SocialGraph:
    """Read a graph directory written by :func:`save_graph_dir`; raises
    ``ValueError`` naming the file unless features.csv holds at least one
    row, each the same count of numbers, labels.csv names every node
    0..n-1 exactly once with an sdna id >= 0, and every edges.tsv row is
    two tab-separated node ids, no self-loop and none outside 0..n-1."""
    path = Path(path)
    text = (path / "features.csv").read_text()
    if not text.strip():
        raise ValueError(f"{path / 'features.csv'}: no feature rows")
    try:
        features = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path / 'features.csv'}: {exc}") from exc
    n = features.shape[0]
    labels = _read_int_pairs(path / "labels.csv", ",", "two comma-separated integers")
    nodes = labels[:, 0]
    counts = np.bincount(nodes[(nodes >= 0) & (nodes < n)], minlength=n)
    if len(nodes) != n or np.any(counts != 1):
        raise ValueError(
            f"{path / 'labels.csv'}: must name every node 0..{n - 1} exactly once, got "
            f"{len(nodes)} rows; unlabelled nodes {np.flatnonzero(counts == 0)[:5].tolist()}"
        )
    if np.any(labels[:, 1] < 0):
        raise ValueError(f"{path / 'labels.csv'}: sdna ids must be >= 0")
    sdna_of = np.empty(n, dtype=np.int64)
    sdna_of[nodes] = labels[:, 1]
    edges_file = path / "edges.tsv"
    edges = (_read_int_pairs(edges_file, "\t", "two tab-separated integers")
             if edges_file.exists() else [])
    try:
        return SocialGraph(n=n, edges=edges, features=features, sdna_of=sdna_of)
    except ValueError as exc:  # features and labels fit n by now: an edge is bad
        raise ValueError(f"{edges_file}: {exc}") from exc
