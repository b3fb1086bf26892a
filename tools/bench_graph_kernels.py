"""Per-call times of the boolean graph kernels against their dense forms.

Times four kernels on three sets of graphs and prints one JSON object (or
writes it with ``--out``):

    walk_bit_rows         packed boolean walk powers for lengths 2..4
    shortest_path_matrix  all-pairs hop counts
    katz_matrix           beta = 0.005, powers 1..5
    round_head            the floor(t * |open pairs|) pairs a snapshot round
                          connects, taken from the pairs one round scores

"before" is the dense formula each kernel used to run: float64 n x n
products for the walk powers (packed here by ``np.packbits``) and the BFS
levels, both from ``tests/reference_graph.py``, the tests' own reference;
left-to-right A^x = A^(x-1) A for Katz; and the head of a stable descending
argsort for the round.  "after" is the code the pipeline runs:
``walk_bit_rows`` (its rows cut to the ``np.packbits`` bytes),
``shortest_path_matrix``, ``katz_matrix`` and ``sdna._top_pairs``.  Every
pair of outputs is compared byte for byte and the result is recorded as
``identical``.

The graph sets:

    sim_build  snapshots 0-5 of the desk profile grown to n=800, t scaled by
               199/799 (perfbench's sim_build workload, cycle 0 of --seed 7)
    desk       snapshots 0-8 of ``desk_sim_config`` (n=200)
    dense      n=800 graphs holding 30%, 50% and 70% of all pairs, around
               the density where the dense products start to win

BLAS is pinned to one thread before numpy is imported, as in perfbench, and
``socsim._openblas.machine_facts()`` is recorded as the ``machine`` block.
Each time is the median of ``--repeat`` calls, in milliseconds.

    PYTHONPATH=src python3 tools/bench_graph_kernels.py --out BENCH_graph_kernels.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from socsim._openblas import machine_facts  # noqa: E402
from socsim.graph import (  # noqa: E402
    decode_pairs,
    dense_adjacency,
    shortest_path_matrix,
    unconnected_codes,
    walk_bit_rows,
)
from socsim.harness import desk_sim_config  # noqa: E402
from socsim.rng import derive_rng  # noqa: E402
from socsim.sdna import (  # noqa: E402
    _scored_selection,
    _top_pairs,
    generate_population,
    iter_snapshots,
)
from socsim.similarity import katz_matrix  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_graph import dense_bfs, dense_walk_indicators  # noqa: E402

WALK_LENGTH = 4
KATZ_BETA, KATZ_POWER = 0.005, 5


def left_to_right_katz(adjacency, beta, max_power):
    total = np.zeros_like(adjacency)
    power = np.eye(adjacency.shape[0])
    for x in range(1, max_power + 1):
        power = power @ adjacency
        total = total + (beta ** x) * power
    return total


def _median_ms(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 3), out


def _same(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def bench_graph(graph, sdnas, cfg, round_seed, repeat) -> dict:
    adjacency = dense_adjacency(graph)
    n, m = graph.n, len(graph.edges)
    row = {"n": n, "edges": m, "density": round(2 * m / (n * (n - 1)), 4),
           "max_degree": int(graph.degrees.max())}
    open_codes = unconnected_codes(graph)
    selected, scores = _scored_selection(graph, sdnas, cfg, open_codes,
                                         derive_rng(cfg.seed, "bench", round_seed))
    head = math.floor(cfg.t * len(open_codes))
    row["scored_pairs"] = len(scores)
    row_bytes = -(-n // 8)  # walk_bit_rows pads each row to whole 64-bit words
    kernels = {
        "walk_bit_rows": (lambda: [np.packbits(power, axis=1)
                                   for power in dense_walk_indicators(adjacency, WALK_LENGTH)],
                          lambda: [r[:, :row_bytes] for r in walk_bit_rows(graph, WALK_LENGTH)]),
        "shortest_path_matrix": (lambda: dense_bfs(adjacency),
                                 lambda: shortest_path_matrix(graph)),
        "katz_matrix": (lambda: left_to_right_katz(adjacency, KATZ_BETA, KATZ_POWER),
                        lambda: katz_matrix(graph, KATZ_BETA, KATZ_POWER)),
        "round_head": (lambda: selected[np.sort(np.argsort(-scores, kind="stable")[:head])],
                       lambda: _top_pairs(selected, scores, head)),
    }
    for name, (before, after) in kernels.items():
        before_ms, want = _median_ms(before, repeat)
        after_ms, got = _median_ms(after, repeat)
        row[name] = {"before_ms": before_ms, "after_ms": after_ms, "identical": _same(want, got)}
    return row


def graph_sets(seed: int):
    desk = desk_sim_config(1000 * seed)
    wide = replace(desk, n=800, t=desk.t * (desk.n - 1) / 799)
    yield "sim_build", wide, iter_snapshots(wide, 6)
    yield "desk", desk_sim_config(seed), iter_snapshots(desk_sim_config(seed), 9)
    population, sdnas = generate_population(wide)
    universe = unconnected_codes(population)
    draws = derive_rng(seed, "dense").random(len(universe))
    yield "dense", wide, [(population.with_edges(decode_pairs(universe[draws < share], wide.n)),
                           sdnas)
                          for share in (0.3, 0.5, 0.7)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)

    sets = {}
    for name, cfg, snapshots in graph_sets(args.seed):
        rows = [bench_graph(graph, sdnas, cfg, idx, args.repeat)
                for idx, (graph, sdnas) in enumerate(snapshots)]
        totals = {kernel: {side: round(sum(r[kernel][side] for r in rows), 3)
                           for side in ("before_ms", "after_ms")}
                  for kernel in ("walk_bit_rows", "shortest_path_matrix", "katz_matrix",
                                 "round_head")}
        sets[name] = {"graphs": rows, "totals": totals}
    doc = {"topic": "graph_kernels", "machine": machine_facts(), "seed": args.seed,
           "repeat": args.repeat, "walk_length": WALK_LENGTH,
           "katz": {"beta": KATZ_BETA, "max_power": KATZ_POWER}, "sets": sets}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
