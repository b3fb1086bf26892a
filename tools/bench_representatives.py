"""Per-build time, minor page faults and peak memory of the representative
builds.

Builds every distinct spec of the default model grid (13: one adjacency and
four thresholds each of katz, rpr and gg) on each graph of two sets and
prints one JSON object (or writes it with ``--out``):

    sim_build  snapshot 5 of the desk profile grown to n=800, t scaled by
               199/799: the graph perfbench's sim_build workload builds its
               representatives on (cycle 0 of --seed 7)
    desk       snapshots 0-2 of ``desk_sim_config`` (n=200)

"before" is ``tests/reference_representatives.py``, the same formulas
written as plain array expressions that allocate every temporary afresh;
"after" is ``socsim.similarity.build_representative``.  The two sides
alternate build by build, each time is the median of ``--repeat`` builds in
milliseconds, and ``minflt`` is the median ``ru_minflt`` a build adds.
``peak_mb`` is the tracemalloc peak of one more build of each side, on a
fresh copy of the graph (so a dense adjacency a side caches on the graph
counts), traced apart from the timed builds.  The two matrices are
compared byte for byte and the result is recorded as ``identical``.

tracemalloc does not see what numpy's C code mallocs itself (the system
copy and identity that ``np.linalg.inv`` hands to LAPACK), so the
sim_build graph is also built once per (side, kind), with the kind's first
grid spec, in a fresh spawned process, which records ``rss_growth_mb``: its
peak RSS after the build (VmHWM) less its RSS just before it.  The
child loads the graph from a saved directory and runs every build once on
a 12-node graph first, so that neither the simulator nor a first call's
imports set its peak; ``hwm_slack_mb`` is how far the peak before the build
already stood above the RSS (a growth below it is not resolved).

A process's minor faults per build depend on what it ran before (glibc
moves its mmap threshold as blocks are freed), so ``--phase K`` also runs K
sim_build-shaped cycles in this process through ``socsim.cli.main``
(simulate 6 snapshots at n=800, ``representative`` for the 13 specs on the
last one, events 7) and records the ``ru_minflt`` of each cycle's
representative calls.  That part uses only the CLI, so it can be pointed at
another checkout's ``src`` through PYTHONPATH.

BLAS is pinned to one thread before numpy is imported, as in perfbench, and
the thread count OpenBLAS then reports is recorded.

    PYTHONPATH=src python3 tools/bench_representatives.py --phase 8 --out rep_bench.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from bench_graph_kernels import machine  # noqa: E402
from socsim.cli import main as socsim_main  # noqa: E402
from socsim.graph import SocialGraph, load_graph_dir, save_graph_dir  # noqa: E402
from socsim.harness import default_model_grid, desk_sim_config, parse_cell  # noqa: E402
from socsim.sdna import iter_snapshots  # noqa: E402
from socsim.similarity import build_representative  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import reference_representatives  # noqa: E402

KINDS = ("adjacency", "katz", "rpr", "gg")


SPECS = tuple(dict.fromkeys(parse_cell(cell)[1] for cell in default_model_grid()))


BUILDS = {"before": reference_representatives.build_matrix,
          "after": lambda g, spec: build_representative(g, spec).matrix}


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _measure(fn) -> tuple[float, int, np.ndarray]:
    faults = _minflt()
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, _minflt() - faults, out


def _peak_mb(build, graph) -> float:
    """tracemalloc peak of ``build(fresh)`` on a fresh copy of ``graph``."""
    fresh = SocialGraph(n=graph.n, edges=graph.edges, features=graph.features,
                        sdna_of=graph.sdna_of)
    tracemalloc.start()
    try:
        build(fresh)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bench_spec(graph, spec, repeat) -> dict:
    builds = {side: (lambda g, build=build: build(g, spec)) for side, build in BUILDS.items()}
    times = {side: [] for side in builds}
    faults = {side: [] for side in builds}
    outputs = {}
    for _ in range(repeat):
        for side, build in builds.items():
            seconds, minflt, outputs[side] = _measure(lambda: build(graph))
            times[side].append(seconds)
            faults[side].append(minflt)
    row = {"kind": spec.kind, "thresholds": [spec.threshold_lo, spec.threshold_hi]}
    for side in builds:
        row[side] = {"ms": round(statistics.median(times[side]) * 1e3, 3),
                     "minflt": statistics.median(faults[side]),
                     "peak_mb": round(_peak_mb(builds[side], graph), 3)}
    row["identical"] = outputs["before"].tobytes() == outputs["after"].tobytes()
    return row


def _rss_mb() -> tuple[float, float]:
    """This process's RSS and its peak (VmRSS, VmHWM) in MB.  Unlike
    ``ru_maxrss``, VmHWM does not carry over the RSS of the process that
    forked this one before it exec'd."""
    with open("/proc/self/status") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return tuple(int(fields[key].split()[0]) * 1024 / 1e6 for key in ("VmRSS", "VmHWM"))


def _rss_child(graph_dir: str, side: str, kind: str) -> dict:
    """In a fresh process: RSS growth of one ``side`` build of ``kind``."""
    small = next(iter_snapshots(replace(desk_sim_config(0), n=12), 1))[0]
    for warm in SPECS:
        BUILDS[side](small, warm)
    graph = load_graph_dir(graph_dir)
    spec = next(spec for spec in SPECS if spec.kind == kind)
    before, hwm = _rss_mb()
    BUILDS[side](graph, spec)
    return {"rss_growth_mb": round(_rss_mb()[1] - before, 2),
            "hwm_slack_mb": round(hwm - before, 2)}


def rss_growth(graph) -> dict:
    """{kind: {side: _rss_child(...)}} for ``graph``, one spawned process
    per (side, kind)."""
    out = {kind: {} for kind in KINDS}
    with tempfile.TemporaryDirectory() as tmp:
        save_graph_dir(graph, tmp)
        for kind in KINDS:
            for side in BUILDS:
                with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
                    out[kind][side] = pool.submit(_rss_child, tmp, side, kind).result()
    return out


def graph_sets(seed: int):
    desk = desk_sim_config(1000 * seed)
    wide = replace(desk, n=800, t=desk.t * (desk.n - 1) / 799)
    *_, (last, _) = iter_snapshots(wide, 6)
    yield "sim_build", [last]
    yield "desk", [graph for graph, _ in iter_snapshots(desk_sim_config(seed), 3)]


def per_kind(rows: list[dict]) -> dict:
    """Median over a kind's builds of each side's ms, minflt and peak_mb."""
    out = {}
    for kind in KINDS:
        mine = [r for r in rows if r["kind"] == kind]
        out[kind] = {side: {key: round(statistics.median(r[side][key] for r in mine), 4)
                            for key in ("ms", "minflt", "peak_mb")}
                     for side in ("before", "after")}
        out[kind]["identical"] = all(r["identical"] for r in mine)
    return out


def _spec_argv(spec) -> list[str]:
    thresholds = (["auto"] if spec.auto_threshold
                  else [repr(float(spec.threshold_lo)), repr(float(spec.threshold_hi))])
    return ["--kind", spec.kind, "--beta", repr(spec.katz_beta),
            "--max-power", str(spec.katz_max_power), "--alpha", repr(spec.rpr_alpha),
            "--thresholds", *thresholds]


def representative_phases(seed: int, cycles: int) -> list[dict]:
    """ru_minflt and seconds of the representative calls of ``cycles``
    sim_build-shaped cycles run through the CLI in this process."""
    phases = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        for cycle in range(cycles):
            desk = desk_sim_config(1000 * seed + cycle)
            cfg = replace(desk, n=800, t=desk.t * (desk.n - 1) / 799)
            config = root / f"sim-{cycle}.json"
            config.write_text(cfg.to_json())
            out = root / f"out-{cycle}"
            socsim_main(["simulate", "--config", str(config), "--out", str(out / "sim"),
                         "--snapshots", "6"])
            faults, seconds = 0, 0.0
            for idx, spec in enumerate(SPECS):
                argv = ["representative", "--graph", str(out / "sim" / "snap-005"),
                        *_spec_argv(spec), "--out", str(out / f"{idx:02d}.bin")]
                spent, minflt, code = _measure(lambda: socsim_main(argv))
                if code != 0:
                    raise RuntimeError(f"{' '.join(argv)} exited {code}")
                faults += minflt
                seconds += spent
            socsim_main(["events", "--config", str(config), "--out", str(out / "events.tsv"),
                         "--events", "7"])
            phases.append({"cycle": cycle, "minflt": faults, "seconds": round(seconds, 4)})
    return phases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--phase", type=int, default=0, metavar="K",
                        help="also count faults over K sim_build-shaped cycles")
    parser.add_argument("--phase-only", action="store_true",
                        help="skip the before/after builds (for --phase on another checkout)")
    parser.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)

    doc = {"topic": "representative_builds", "machine": machine(), "seed": args.seed,
           "repeat": args.repeat}
    if not args.phase_only:
        sets = {}
        for name, graphs in graph_sets(args.seed):
            rows = [dict(graph=idx, n=graph.n, edges=len(graph.edges),
                         **bench_spec(graph, spec, args.repeat))
                    for idx, graph in enumerate(graphs) for spec in SPECS]
            sets[name] = {"per_kind": per_kind(rows), "builds": rows}
            if name == "sim_build":
                sets[name]["rss_growth"] = rss_growth(graphs[0])
        doc["sets"] = sets
    if args.phase:
        doc["representative_phases"] = representative_phases(args.seed, args.phase)
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
