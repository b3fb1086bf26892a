"""socsim benchmark driver.

    python3 perfbench/run.py --workload desk_grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (tracing off); with ``--trace 1`` they
are the per-layer ones from a traced pass, plus the tracing overhead.  Lines
before it are for people: machine facts, one line per cycle with the
report.json sha256, and every end-to-end metric by name and unit.

The run environment is pinned here, before numpy is imported: one BLAS
thread, and ``SOCSIM_WORKERS`` unset so each plan's ``workers`` decides.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

_GCN_FUNCS = ("train", "forward", "backward", "loss", "adam_step", "evaluate", "init_model")
_SDNA_FUNCS = ("socialise", "mutate", "generate_population", "simulate_snapshots",
               "emit_event_stream")
_GRAPH_FUNCS = ("unconnected_pairs", "walk_indicators", "shortest_path_matrix",
                "normalize_edges", "with_edges", "save_graph_dir", "load_graph_dir")
CLI_COMMANDS = ("simulate", "representative", "events", "experiment")
SIM_KINDS = ("adjacency", "katz", "rpr", "gg")


def _calls_and_self(layer: str, funcs) -> list[tuple[str, str]]:
    return [item for f in funcs
            for item in ((f"{layer}.{f}.calls", "count"), (f"{layer}.{f}.self_s", "s"))]


PER_LAYER = (
    _calls_and_self("gcn", _GCN_FUNCS)
    + [("gcn.prop_flops", "flop"), ("gcn.gflops_per_s", "GFLOP/s"), ("gcn.self_share", "ratio")]
    + [("similarity.build_representative.calls", "count")]
    + [(f"similarity.build.{kind}_s", "s") for kind in SIM_KINDS]
    + [("similarity.augment.self_s", "s"), ("similarity.save_representative.s", "s"),
       ("similarity.distinct_share", "ratio")]
    + _calls_and_self("sdna", _SDNA_FUNCS)
    + [("sdna.socialise.pairs_scored", "count"), ("sdna.socialise.edges_added", "count"),
       ("sdna.socialise.edge_yield", "ratio")]
    + _calls_and_self("graph", _GRAPH_FUNCS)
    + [(f"harness.{f}.self_s", "s") for f in ("run_experiment", "make_folds", "emit_report")]
    + [("harness.cells", "count"), ("harness.cells_failed", "count"),
       ("harness.duplicate_cells", "count"), ("harness.fold_fits", "count"),
       ("harness.pools_created", "count"), ("harness.pool_s", "s")]
    + [(f"cli.main.{cmd}.self_s", "s") for cmd in CLI_COMMANDS]
    + _calls_and_self("rng", ("derive_rng", "derive_seed"))
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.coverage", "ratio")]
)


def pin_environment() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SOCSIM_WORKERS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | str:
    """OpenBLAS's own thread count when its getter is reachable, else the
    pinned environment value."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return f"env {os.environ.get('OPENBLAS_NUM_THREADS')}"


def measure_setup(workload_name: str, scale: str, seed: int, run_dir: Path, probe) -> float:
    """Median wall time, at reference speed, of fresh interpreters that
    import socsim and write the workload's generated input files: process
    start to the point where the first timed call could begin."""
    code = ("import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
            "import workloads; "
            "workloads.WORKLOADS[sys.argv[3]](workloads.SCALES[sys.argv[4]])"
            ".prepare(Path(sys.argv[5]), int(sys.argv[6]))")
    times = []
    for rep in range(SETUP_REPEATS):
        target = run_dir / f"setup-{rep}"
        mark = probe.mark()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH_DIR), workload_name,
                        scale, str(target), str(seed)], check=True)
        times.append((time.perf_counter() - start) * probe.scale_since(mark))
        shutil.rmtree(target)
    return statistics.median(times)


@contextlib.contextmanager
def one_cpu(active: bool):
    """Keep this process, its threads and its children on one CPU while
    active, so the speed probe samples the CPU that serial work runs on."""
    cpus = os.sched_getaffinity(0)
    if active:
        os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and the largest peak among its waited-for
    children, in MB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)


def run_cycles(workload, run_dir: Path, seconds: float, probe, log) -> list:
    """Closed loop: whole cycles, one at a time, while another cycle as long
    as the longest so far still fits in ``seconds``."""
    from workloads import MAX_CYCLES, clean

    cycles = []
    start = time.perf_counter()
    while len(cycles) < MAX_CYCLES:
        idx = len(cycles)
        mark = probe.mark()
        result = workload.execute(run_dir, idx, "run")
        result.speed = probe.scale_since(mark)
        workload.check(run_dir, idx, "run", result)
        clean(run_dir, idx, "run")
        cycles.append(result)
        log(f"cycle {idx}: wall {result.wall_s:.3f} s (x{result.speed:.3f} to reference speed), "
            "phases "
            + ", ".join(f"{k} {v:.3f} s" for k, v in result.phase_s.items())
            + "".join(f", report.json sha256 {d}" for d in result.digests)
            + "".join(f"\n  FAILED: {f}" for f in result.failures))
        elapsed = time.perf_counter() - start
        if elapsed + max(c.wall_s for c in cycles) > seconds:
            break
    return cycles


def end_to_end(cycles: list, setup_s: float, peak_mb: tuple[float, float]) -> tuple[dict, dict]:
    """Gated metrics, and the informational ones printed beside them."""
    walls = [c.wall_s for c in cycles]
    metrics = {"setup_s": setup_s,
               "wall_s": statistics.median(c.wall_s * c.speed for c in cycles),
               "peak_rss_mb": sum(peak_mb)}

    def total(key: str) -> float:
        return sum(c.counts.get(key, 0) for c in cycles)

    info = {"fail_share": (sum(c.failed for c in cycles), sum(c.attempted for c in cycles)),
            "cycles": len(cycles), "wall_raw_s": statistics.median(walls),
            "peak_self_mb": peak_mb[0], "peak_children_mb": peak_mb[1]}
    if total("fold_fits"):
        info["fold_fits_per_s"] = total("fold_fits") / sum(walls)
    for key, command in (("snapshots", "simulate"), ("reps", "representative"),
                         ("events", "events")):
        if total(key):
            info[f"{key}_per_s"] = total(key) / sum(c.phase_s[command] for c in cycles)
    return metrics, info


def traced_metrics(workload, run_dir: Path, log) -> tuple[dict, list]:
    """Per-layer metrics from one traced cycle.

    Pass A runs the workload as configured with only the pool counter
    installed; the traced pass runs serially so every span is recorded in
    this process; for a pooled workload an untraced serial pass gives the
    baseline for the overhead.  All passes use cycle 0's inputs, so their
    per-snapshot results must match exactly.
    """
    from tracing import Tracer, counting_pools
    from workloads import clean

    pool_counters: dict = {}
    with counting_pools(pool_counters):
        pooled = workload.execute(run_dir, 0, "pooled")
    passes = [("pooled", pooled)]
    if workload.workers > 1:
        untraced = workload.execute(run_dir, 0, "serial", serial=True)
        passes.append(("serial", untraced))
    else:
        untraced = pooled
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.execute(run_dir, 0, "traced", serial=True)
    finally:
        tracer.uninstall()
    passes.append(("traced", traced))
    for tag, result in passes:
        workload.check(run_dir, 0, tag, result)
        clean(run_dir, 0, tag)
        log(f"{tag} pass: wall {result.wall_s:.3f} s"
            + "".join(f", report.json sha256 {d}" for d in result.digests)
            + "".join(f"\n  FAILED: {f}" for f in result.failures))
    if len({tuple(r.results) for _, r in passes}) != 1:
        traced.failures.append("reports differ between the pooled, serial and traced passes")
        traced.failed += 1
    tracer.write(run_dir / "spans.jsonl.gz")

    summary = tracer.summary()
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]
    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".calls"):
            metrics[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
    metrics["similarity.save_representative.s"] = total_s.get("similarity.save_representative", 0.0)
    for kind in SIM_KINDS:
        key = f"similarity.build.{kind}_s"
        metrics[key] = tracer.counters.get(key, 0.0)
    flops = tracer.counters.get("gcn.prop_flops", 0.0)
    prop_time = self_s.get("gcn.forward", 0.0) + self_s.get("gcn.backward", 0.0)
    metrics["gcn.prop_flops"] = flops
    metrics["gcn.gflops_per_s"] = flops / prop_time / 1e9 if prop_time else 0.0
    gcn_self = sum(v for k, v in self_s.items() if k.startswith("gcn."))
    metrics["gcn.self_share"] = gcn_self / traced.wall_s
    pairs = tracer.counters.get("sdna.socialise.pairs_scored", 0)
    edges = tracer.counters.get("sdna.socialise.edges_added", 0)
    metrics["sdna.socialise.pairs_scored"] = pairs
    metrics["sdna.socialise.edges_added"] = edges
    metrics["sdna.socialise.edge_yield"] = edges / pairs if pairs else 0.0
    metrics["similarity.distinct_share"] = _distinct_share(tracer.digests)
    metrics["harness.duplicate_cells"] = _duplicate_cells(
        workload.cycle_plans(run_dir, 0), tracer.digests)
    metrics["harness.cells"] = traced.counts.get("cells", 0)
    metrics["harness.cells_failed"] = traced.counts.get("cells_failed", 0)
    metrics["harness.fold_fits"] = traced.counts.get("fold_fits", 0)
    metrics["harness.pools_created"] = pool_counters.get("harness.pools_created", 0)
    metrics["harness.pool_s"] = pool_counters.get("harness.pool_s", 0.0)
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    metrics["trace.coverage"] = summary["top_level_s"] / traced.wall_s
    if metrics["trace.coverage"] < 0.95:
        traced.failures.append(f"top-level spans cover {metrics['trace.coverage']:.3f} of traced wall")
        traced.failed += 1
    return metrics, [r for _, r in passes]


def _distinct_share(digests: dict) -> float:
    """Distinct matrix digests over builds, averaged over snapshots."""
    by_snapshot: dict[str, list[str]] = {}
    for (provenance, _), digest in digests.items():
        by_snapshot.setdefault(provenance, []).append(digest)
    if not by_snapshot:
        return 0.0
    return statistics.mean(len(set(d)) / len(d) for d in by_snapshot.values())


def _duplicate_cells(plans: list[dict], digests: dict) -> int:
    """Cells that train the same model shape on the same matrix as an
    earlier cell of the same snapshot."""
    from socsim.gcn import GcnConfig
    from socsim.harness import parse_cell

    duplicates = 0
    for plan in plans:
        base = GcnConfig.from_dict(plan["gcn"])
        for net in range(plan["networks"]):
            for snap in range(plan["snapshots"]):
                seen = set()
                for cell in plan["cells"]:
                    cfg, spec = parse_cell(cell, base)
                    key = (cfg.variant, cfg.use_s, digests.get((f"{net}-{snap}", spec)))
                    duplicates += key in seen
                    seen.add(key)
    return duplicates


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        log=print) -> dict:
    """One benchmark run; returns the result object printed last."""
    from workloads import SCALES, WORKLOADS

    facts = machine_facts()
    log("machine: " + json.dumps(facts, sort_keys=True))
    workload = WORKLOADS[workload_name](SCALES[scale])
    if workload.workers > facts["nproc"]:
        raise SystemExit(f"{workload_name} needs {workload.workers} workers, nproc is {facts['nproc']}")
    run_dir = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workload.prepare(run_dir, seed)

    if trace:
        with one_cpu(workload.workers == 1):
            metrics, cycles = traced_metrics(workload, run_dir, log)
        info = {}
    else:
        from probe import SpeedProbe

        with one_cpu(workload.workers == 1), SpeedProbe() as speed:
            cycles = run_cycles(workload, run_dir, seconds, speed, log)
        peak = peak_rss_mb()  # before the set-up interpreters become children too
        with one_cpu(True), SpeedProbe() as speed:
            setup_s = measure_setup(workload_name, scale, seed, run_dir, speed)
        metrics, info = end_to_end(cycles, setup_s, peak)
    units = dict(PER_LAYER if trace else END_TO_END)
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    correct = failed == 0 and not any(c.failures for c in cycles)
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {units[name]}")
    for name, value in info.items():
        if name == "fail_share":
            log(f"fail_share = {value[0]}/{value[1]} = {value[0] / max(value[1], 1):.6g}")
        else:
            unit = {"cycles": "", "wall_raw_s": " s", "peak_self_mb": " MB",
                    "peak_children_mb": " MB"}.get(name, " 1/s")
            log(f"{name} = {value:.6g}{unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"workload": workload_name, "seed": seed, "trace": int(trace), "machine": facts,
              "info": info,
              "failures": [f for c in cycles for f in c.failures], **result}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk_grid", "wide_pool", "sim_build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "socsim" / "__init__.py").is_file():
        print(f"error: no socsim sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
