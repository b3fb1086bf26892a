"""Graph kernels written as dense float64 matrix products.

This is the reference the packed boolean kernels in ``socsim.graph`` are
tested against (``test_graph.py``), and the "before" side of
``tools/bench_graph_kernels.py``; no pipeline path calls it.
"""

import numpy as np


def dense_walk_indicators(adj, max_length):
    """Boolean walk powers for lengths 2..max_length, as float matrix products."""
    a = adj > 0
    power, out = a, []
    for _ in range(2, max_length + 1):
        power = (power.astype(np.float64) @ a.astype(np.float64)) > 0
        out.append(power)
    return out


def dense_bfs(adj):
    """All-pairs hop counts (inf where unreachable) by level-synchronous BFS
    from every source, one dense frontier @ adjacency product per level."""
    n = adj.shape[0]
    a = adj > 0
    sp = np.full((n, n), np.inf)
    np.fill_diagonal(sp, 0.0)
    reached = np.eye(n, dtype=bool)
    frontier, dist = reached, 0
    while True:
        dist += 1
        frontier = ((frontier.astype(np.float64) @ a.astype(np.float64)) > 0) & ~reached
        if not frontier.any():
            return sp
        sp[frontier] = dist
        reached |= frontier
