"""Peak-memory guards for the simulator rounds and the Katz build.

tracemalloc sees numpy's array allocations, so its peak counts every
n x n buffer and every per-pair array a call holds at once.  The bounds
carry headroom over the measured peaks (numpy 2.4):

  two iter_snapshots rounds at n = 400   28.6 bytes per open pair
                                         (66 while the open pairs were an
                                         (m, 2) array beside a cached
                                         dense adjacency)
  a Katz build at n = 300, max_power 5   4.0 n x n float64 arrays (5.0
                                         with the cached adjacency and a
                                         separate scaled-term buffer)
"""

import tracemalloc
from dataclasses import replace

import pytest

from socsim.graph import SocialGraph
from socsim.harness import desk_sim_config
from socsim.sdna import iter_snapshots
from socsim.similarity import SimilaritySpec, build_representative

ROUND_BYTES_PER_OPEN_PAIR = 40
KATZ_NN_ARRAYS = 4.5


def grown_config(n, seed):
    """The desk profile at n nodes, t scaled so a round adds the desk mean
    degree (as perfbench's sim_build does at n = 800)."""
    desk = desk_sim_config(seed)
    return replace(desk, n=n, t=desk.t * (desk.n - 1) / (n - 1))


def traced_peak(fn) -> int:
    """Peak traced bytes of ``fn()``, after one small simulation and build
    have run, so that lazy imports and first-call caches are not counted."""
    list(iter_snapshots(grown_config(12, 0), 2))
    build_representative(next(iter_snapshots(grown_config(12, 0), 1))[0],
                         SimilaritySpec(kind="katz"))
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("seed", [1, 2])
def test_two_simulator_rounds_stay_under_the_per_pair_bound(seed):
    cfg = grown_config(400, seed)
    rounds = iter_snapshots(cfg, 2)
    peak = traced_peak(lambda: [next(rounds) for _ in range(2)])
    open_pairs = cfg.n * (cfg.n - 1) // 2
    assert peak / open_pairs <= ROUND_BYTES_PER_OPEN_PAIR, f"{peak / open_pairs:.1f} B/pair"


def test_katz_build_stays_under_the_array_bound():
    *_, (g, _) = iter_snapshots(grown_config(300, 3), 3)
    fresh = SocialGraph(n=g.n, edges=g.edges, features=g.features, sdna_of=g.sdna_of)
    peak = traced_peak(lambda: build_representative(fresh, SimilaritySpec(kind="katz")))
    arrays = peak / (g.n * g.n * 8)
    assert arrays <= KATZ_NN_ARRAYS, f"{arrays:.2f} n x n arrays"
    assert "adjacency" not in vars(fresh)
