"""Undirected simple graph with per-node features and preference labels.

The graph value is immutable once built: the simulator produces successive
snapshots as new instances, and everything downstream (scoring, similarity
matrices, training) only reads.  Edges are stored once, as a canonical
read-only ``(m, 2)`` int64 array (rows ``i < j``, unique, lexicographically
sorted); the dense adjacency matrix the similarity and convolution code
consume is a cached view derived from it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np


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
    keys = np.unique(lo * n + hi)
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
        # the cached n x n adjacency, and comes back with read-only edges
        return SocialGraph, (self.n, self.edges, self.features, self.sdna_of)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix, float64."""
        a = np.zeros((self.n, self.n), dtype=np.float64)
        i, j = self.edges.T
        a[i, j] = 1.0
        a[j, i] = 1.0
        return a

    @cached_property
    def degrees(self) -> np.ndarray:
        """(n,) integer degree of every node."""
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def with_edges(self, new_edges) -> "SocialGraph":
        """Copy of this graph with extra edges (features and labels shared)."""
        extra = normalize_edges(new_edges, self.n)
        return replace(self, edges=np.concatenate([self.edges, extra]))


def degree(g: SocialGraph, i: int) -> int:
    """Number of edges incident to node ``i``."""
    if not (0 <= i < g.n):
        raise ValueError(f"node {i} out of range for n={g.n}")
    return int(g.degrees[i])


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


def walk_indicators(g: SocialGraph, max_length: int) -> list[np.ndarray]:
    """Boolean walk-existence matrices for lengths 2..max_length.

    Entry [x-2][i, j] is True iff some walk of length exactly x joins i and j,
    i.e. the x-th boolean-semiring power of the adjacency matrix is nonzero
    there.  Each power stays as packed bit rows, and the next one ORs the
    rows of each node's neighbours (A^x = A @ A^(x-1)); no walk is counted,
    so nothing can overflow.
    """
    if max_length < 2:
        return []
    lists = _neighbour_lists(g)
    power = _pack_rows(g.adjacency > 0)
    out = []
    for _ in range(2, max_length + 1):
        power = _neighbour_or(power, *lists)
        out.append(_unpack_rows(power, g.n))
    return out


def path_exists(g: SocialGraph, i: int, j: int, length: int) -> bool:
    """True iff a walk of exactly ``length`` steps joins i and j."""
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise ValueError("node index out of range")
    if i == j:
        raise ValueError("i and j must differ")
    if length < 1:
        raise ValueError("length must be >= 1")
    if length == 1:
        return bool(g.adjacency[i, j])
    return bool(walk_indicators(g, length)[length - 2][i, j])


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


def unconnected_pairs(g: SocialGraph) -> np.ndarray:
    """(m, 2) int64 array of every (i, j), i < j, that is not an edge, in
    lexicographic order."""
    iu, ju = np.triu_indices(g.n, k=1)
    open_ = g.adjacency[iu, ju] == 0
    return np.column_stack([iu[open_], ju[open_]]).astype(np.int64, copy=False)


def save_graph_dir(g: SocialGraph, path: str | Path) -> None:
    """Write edges.tsv / features.csv / labels.csv under ``path``.

    edges.tsv holds one ``i<TAB>j`` per line with i < j; features.csv is a
    headerless CSV with one row per node; labels.csv holds ``node,sdna_id``
    rows.  All indices 0-based.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    np.savetxt(path / "edges.tsv", g.edges, fmt="%d", delimiter="\t")
    # %.17g round-trips float64 exactly
    np.savetxt(path / "features.csv", g.features, fmt="%.17g", delimiter=",")
    labels = np.column_stack([np.arange(g.n), g.sdna_of])
    np.savetxt(path / "labels.csv", labels, fmt="%d", delimiter=",", newline="\r\n")


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
    ``ValueError`` unless features.csv holds at least one row, labels.csv
    names every node 0..n-1 exactly once with an sdna id >= 0, and every
    edges.tsv row is two tab-separated integers."""
    path = Path(path)
    text = (path / "features.csv").read_text()
    if not text.strip():
        raise ValueError(f"{path / 'features.csv'}: no feature rows")
    features = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
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
    return SocialGraph(n=n, edges=edges, features=features, sdna_of=sdna_of)
