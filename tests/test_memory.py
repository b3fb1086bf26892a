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
  a 10-fold desk fit at n = 200          FTvanilla 11.3, T 15.8 stacks of
                                         (k, n, 32) float64 (17.7 and 22.2
                                         while every backward stack had
                                         its own buffer; 10.5 and 14.9
                                         before G's 105 live rows were
                                         copied, 0.33 stack, beside a
                                         buffer for their widest product,
                                         0.53 stack)
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from socsim._openblas import blas_core
from socsim.gcn import (LONE_ROWS_TO_PAY, GcnConfig, GcnModel, TrainInputs, train_folds, _Rows,
                        _ROW_RULE_KERNELS, _Workspace, _backward, _forward, _init_params,
                        _propagate)
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
                       x=graph.features, labels=graph.sdna_of, test_mask=test)


@pytest.mark.parametrize("variant", sorted(FIT_STACKS))
def test_a_desk_fit_stays_under_the_stack_bound(desk_folds, variant):
    cfg = GcnConfig(variant=variant, epochs=2)
    k, n = desk_folds.test_mask.shape
    fit = lambda: train_folds(desk_folds, cfg, list(range(k)))  # noqa: E731
    fit()
    stacks = traced_peak(fit) / (k * n * 32 * 8)
    assert stacks <= FIT_STACKS[variant], f"{stacks:.2f} (k, n, 32) stacks"


def held_arrays(*objects) -> list[np.ndarray]:
    """Every array the attributes of ``objects`` hold, through dicts, lists
    and tuples, once each."""
    seen, arrays, todo = set(), [], [vars(o) for o in objects]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, dict):
            todo += item.values()
        elif isinstance(item, (list, tuple)):
            todo += item
    return arrays


def test_a_fit_on_a_bit_symmetric_g_holds_one_copy_of_its_live_rows(desk_folds):
    # an adjacency G equals its transpose bit for bit, so its G.T products
    # reuse the copy of its live rows: no other array holds G's rows, and
    # a product allocates no array, writing its live rows into the buffer
    # the copy came with and its lone rows in place
    cfg = GcnConfig()
    k, n = desk_folds.test_mask.shape
    ws = _Workspace(GcnModel(cfg, _init_params(cfg, list(range(k)), *desk_folds.x.shape)),
                    desk_folds)
    live = ws.live
    if blas_core() not in _ROW_RULE_KERNELS:  # G products are taken whole there
        assert live is None and ws.live_t is None
        return
    assert live.symmetric and ws.live_t is live
    assert n - len(live.rows) >= LONE_ROWS_TO_PAY and live.g.shape == (len(live.rows), n)
    copies = [a.shape for a in held_arrays(ws, live) if a.ndim == 2 and a.shape[1] == n
              and not np.shares_memory(a, desk_folds.g_matrix)]
    assert copies == [live.g.shape]
    h, out = ws.stack("prop1", 32), ws.stack("z1", 32)
    h[...] = 1.0
    for g, g_live in ((ws.gm, ws.live), (ws.gm.T, ws.live_t)):
        _propagate(g, h, out, g_live)
        assert traced_peak(lambda: _propagate(g, h, out, g_live)) < 4096


# the default net, a narrowing one, one whose widths change at every layer
# and one with no hidden layer
@pytest.mark.parametrize("layer_units", [(32, 32, 32), (16, 8, 3), (12, 20), ()])
@pytest.mark.parametrize("variant,use_s", [("ftvanilla", False), ("ftvanilla", True),
                                           ("f", True), ("t", False), ("tlr", False)])
def test_backward_adds_no_stack_to_the_workspace(desk_folds, variant, use_s, layer_units):
    cfg = GcnConfig(variant=variant, use_s=use_s, layer_units=layer_units)
    inputs = replace(desk_folds, test_mask=desk_folds.test_mask[:3])
    model = GcnModel(cfg, _init_params(cfg, [1, 2, 3], *inputs.x.shape))
    ws = _Workspace(model, inputs)
    _, cache = _forward(model, ws, training=True,
                        rngs=[np.random.default_rng(s) for s in (1, 2, 3)])
    stacks = {key: id(stack) for key, stack in ws._stacks.items()}
    _backward(model, cache, _Rows(inputs, cfg.num_classes, 3), ws)
    assert {key: id(stack) for key, stack in ws._stacks.items()} == stacks
