"""Peak-memory guards for the simulator rounds, the representative builds
and training.

tracemalloc sees numpy's array allocations, so its peak counts every
n x n buffer and every per-pair array a call holds at once (not the
workspace LAPACK mallocs inside ``np.linalg.inv``).  The bounds carry
headroom over the measured peaks (numpy 2.4):

  two iter_snapshots rounds at n = 400   28.6 bytes per open pair
                                         (66 while the open pairs were an
                                         (m, 2) array beside a cached
                                         dense adjacency)
  a katz, rpr and gg build on            2.52, 2.00 and 2.03 n x n float64
  hub_snapshot (n = 800, defaults)       arrays (4.00, 2.28 and 2.28 while
                                         Katz held A, the sum and two
                                         power buffers, RPR called
                                         np.linalg.inv and augment
                                         normalized into a second array)
  a 10-fold desk fit at n = 200          FTvanilla 10.5, T 14.9 stacks of
                                         (k, n, 32) float64 (17.7 and 22.2
                                         while every backward stack had
                                         its own buffer)
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from socsim.gcn import (GcnConfig, GcnModel, TrainInputs, train_folds, _Rows, _Workspace,
                        _backward, _forward, _init_params)
from socsim.graph import SocialGraph
from socsim.harness import desk_sim_config, make_folds
from socsim.sdna import iter_snapshots
from socsim.similarity import SimilaritySpec, build_representative

ROUND_BYTES_PER_OPEN_PAIR = 40
BUILD_NN_ARRAYS = 3.0
FIT_STACKS = {"ftvanilla": 12.0, "t": 16.5}


def grown_config(n, seed):
    """The desk profile at n nodes, t scaled so a round adds the desk mean
    degree (as perfbench's sim_build does at n = 800)."""
    desk = desk_sim_config(seed)
    return replace(desk, n=n, t=desk.t * (desk.n - 1) / (n - 1))


def traced_peak(fn) -> int:
    """Peak traced bytes of ``fn()``, after one small simulation and build
    have run, so that lazy imports and first-call caches are not counted."""
    list(iter_snapshots(grown_config(12, 0), 2))
    small = next(iter_snapshots(grown_config(12, 0), 1))[0]
    for kind in ("katz", "rpr", "gg"):
        build_representative(small, SimilaritySpec(kind=kind))
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


@pytest.mark.parametrize("kind", ["katz", "rpr", "gg"])
def test_a_build_stays_under_the_array_bound(hub_snapshot, kind):
    g = hub_snapshot
    fresh = SocialGraph(n=g.n, edges=g.edges, features=g.features, sdna_of=g.sdna_of)
    peak = traced_peak(lambda: build_representative(fresh, SimilaritySpec(kind=kind)))
    arrays = peak / (g.n * g.n * 8)
    assert arrays <= BUILD_NN_ARRAYS, f"{arrays:.2f} n x n arrays"
    assert "adjacency" not in vars(fresh)


@pytest.fixture(scope="module")
def desk_folds():
    """One desk snapshot (n = 200) over adjacency G, in 10 stratified folds."""
    (graph, _), = iter_snapshots(desk_sim_config(5), 1)
    test = make_folds(graph.sdna_of, 10, seed=5)
    return TrainInputs(g_matrix=build_representative(graph, SimilaritySpec()).matrix,
                       x=graph.features, labels=graph.sdna_of, train_mask=~test, test_mask=test)


@pytest.mark.parametrize("variant", sorted(FIT_STACKS))
def test_a_desk_fit_stays_under_the_stack_bound(desk_folds, variant):
    cfg = GcnConfig(variant=variant, epochs=2)
    k, n = desk_folds.train_mask.shape
    fit = lambda: train_folds(desk_folds, cfg, list(range(k)))  # noqa: E731
    fit()
    stacks = traced_peak(fit) / (k * n * 32 * 8)
    assert stacks <= FIT_STACKS[variant], f"{stacks:.2f} (k, n, 32) stacks"


# the default net, a narrowing one, one whose widths change at every layer
# and one with no hidden layer
@pytest.mark.parametrize("layer_units", [(32, 32, 32), (16, 8, 3), (12, 20), ()])
@pytest.mark.parametrize("variant,use_s", [("ftvanilla", False), ("ftvanilla", True),
                                           ("f", True), ("t", False), ("tlr", False)])
def test_backward_adds_no_stack_to_the_workspace(desk_folds, variant, use_s, layer_units):
    cfg = GcnConfig(variant=variant, use_s=use_s, layer_units=layer_units)
    inputs = replace(desk_folds, train_mask=desk_folds.train_mask[:3],
                     test_mask=desk_folds.test_mask[:3])
    model = GcnModel(cfg, _init_params(cfg, [1, 2, 3], *inputs.x.shape))
    ws = _Workspace(model, inputs)
    _, cache = _forward(model, ws, training=True,
                        rngs=[np.random.default_rng(s) for s in (1, 2, 3)])
    stacks = {key: id(stack) for key, stack in ws._stacks.items()}
    _backward(model, cache, _Rows.of(inputs, cfg.num_classes, 3), ws)
    assert {key: id(stack) for key, stack in ws._stacks.items()} == stacks
