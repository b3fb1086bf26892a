"""Experiment orchestration: simulate, build representatives, cross-validate.

The unit of work is a cell: one named (model variant, representative recipe)
pair, e.g. ``FTvanilla``, ``SFTkatz0.0-0.5`` or ``FTRPRauto``.  A leading
``S`` turns on the learnable feature-weight vector; ``F``/``T``/``TLR`` are
the ablation variants; ``FT<kind><thresholds>`` picks a similarity-based
representative.  Every cell of a snapshot shares the same stratified folds,
and all randomness is derived from (plan seed, network, snapshot, cell,
fold) so reports are byte-reproducible regardless of scheduling.

:func:`run_cell` is the one unit of work, serial or pooled: it builds the
cell's representative inside the cell's fault boundary, so a failed build
fails only its cell, and no n x n matrix crosses the process pool.
:func:`run_experiment` streams every (snapshot, cell) task of a run through
one code path: into a fork pool whose workers run BLAS on one thread each,
one worker per available core by default, or straight through in-process,
BLAS on one thread there too, when there is one worker or one task.  A
snapshot's tasks are submitted as soon as it is simulated, and its results
are collected only after the next snapshot's tasks are queued, so the
workers never wait on the simulator.  A worker that dies breaks the pool:
the cells it had not finished fail, and the run completes.  The first pool
imports the pool code, in the parent before it forks; a process that starts
no pool never does.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import os
from collections.abc import Iterator
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field, replace, asdict
from pathlib import Path

import numpy as np

from ._openblas import _blas_thread_setter, _one_blas_thread
from .gcn import GcnConfig, TrainInputs, TrainingDiverged, train_folds
from .graph import SocialGraph, sorted_unique
from .rng import derive_rng, derive_seed
from .sdna import SimConfig, check_integer, iter_snapshots
from .similarity import AUTO, SimilaritySpec, build_representative

HYPOTHESIS_CELLS = ("FTvanilla", "F", "T", "TLR")

log = logging.getLogger(__name__)

_KIND_TOKENS = {"vanilla": "adjacency", "katz": "katz", "rpr": "rpr", "gg": "gg"}


def parse_cell(name: str, base: GcnConfig | None = None) -> tuple[GcnConfig, SimilaritySpec]:
    """Resolve a cell name into a model config and a representative spec."""
    base = base or GcnConfig()
    use_s = name.startswith("S")
    core = name[1:] if use_s else name
    if core in ("F", "T", "TLR"):
        cfg = replace(base, variant=core.lower(), use_s=use_s)
        return cfg, SimilaritySpec(kind="adjacency")
    if not core.startswith("FT"):
        raise ValueError(f"unparseable cell name {name!r}")
    rest = core[2:]
    for token, kind in _KIND_TOKENS.items():
        if rest.lower().startswith(token):
            thr = rest[len(token):]
            break
    else:
        raise ValueError(f"unknown representative in cell name {name!r}")
    cfg = replace(base, variant="ftvanilla", use_s=use_s)
    if kind == "adjacency":
        if thr:
            raise ValueError(f"vanilla cell takes no thresholds: {name!r}")
        return cfg, SimilaritySpec(kind="adjacency")
    if not thr:
        raise ValueError(f"similarity cell needs thresholds or 'auto': {name!r}")
    if thr.lower() == "auto":
        return cfg, SimilaritySpec(kind=kind, threshold_lo=AUTO, threshold_hi=AUTO)
    parts = thr.split("-")
    if len(parts) != 2:
        raise ValueError(f"bad threshold pair in cell name {name!r}")
    return cfg, SimilaritySpec(
        kind=kind, threshold_lo=float(parts[0]), threshold_hi=float(parts[1])
    )


DEFAULT_THRESHOLDS = ("0.0-0.5", "0.0-1.0", "0.1-1.0", "auto")
SIMILARITY_TOKENS = ("katz", "RPR", "GG")


def default_model_grid(include_s: bool = True) -> tuple[str, ...]:
    """The full named grid: baseline variants plus every similarity kind
    crossed with the default threshold set (and S-variants of the feature
    models when ``include_s``)."""
    cells = ["FTvanilla", "F", "T", "TLR"]
    if include_s:
        cells.insert(1, "SFTvanilla")
    for kind in SIMILARITY_TOKENS:
        for thr in DEFAULT_THRESHOLDS:
            cells.append(f"FT{kind}{thr}")
            if include_s:
                cells.append(f"SFT{kind}{thr}")
    return tuple(cells)


@dataclass(frozen=True)
class ExperimentPlan:
    """One batch: simulate ``networks`` populations, take ``snapshots``
    snapshots of each, and cross-validate every cell on every snapshot.
    ``gcn`` carries the shared hyperparameters.  Each cell's name sets its
    variant and use_s, so a ``gcn`` that sets either is rejected, and each
    fold's seed derives from ``seed``.  ``workers`` schedules the run and is
    left out of its report."""

    sim: SimConfig = field(default_factory=SimConfig)
    networks: int = 3
    snapshots: int = 3
    cells: tuple[str, ...] = field(default_factory=lambda: default_model_grid(include_s=False))
    folds: int = 10
    seed: int = 0
    gcn: GcnConfig = field(default_factory=GcnConfig)
    workers: int = 0  # 0, like any count above it, means every core this process may run on

    def __post_init__(self):
        if not (isinstance(self.cells, (list, tuple))
                and all(isinstance(cell, str) for cell in self.cells)):
            raise ValueError(f"cells must be a list of cell names, got {self.cells!r}")
        if not self.cells:
            raise ValueError("cells must name at least one cell")
        object.__setattr__(self, "cells", tuple(self.cells))
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("cell names must be unique")
        for name, low in (("seed", None), ("folds", 2), ("networks", 1), ("snapshots", 1),
                          ("workers", 0)):
            check_integer(name, getattr(self, name), low)
        default = GcnConfig()
        for name in ("variant", "use_s"):
            if getattr(self.gcn, name) != getattr(default, name):
                raise ValueError(f"gcn.{name} is set by each cell's name, so a plan may not "
                                 f"set it, got {getattr(self.gcn, name)!r}")
        if self.gcn.num_classes < self.sim.y:
            raise ValueError(f"gcn.num_classes ({self.gcn.num_classes}) is below sim.y "
                             f"({self.sim.y}), the number of sDNA labels")
        if self.folds > self.sim.n // self.sim.y:
            raise ValueError(f"folds ({self.folds}) exceed sim.n // sim.y, the smallest class")
        for cell in self.cells:
            parse_cell(cell, self.gcn)

    def to_dict(self) -> dict:
        # JSON-canonical: tuples become lists so emitted plans compare equal
        # after a round trip
        d = asdict(self)
        d["sim"] = asdict(self.sim) | {"c": list(self.sim.c)}
        d["gcn"] = self.gcn.to_dict() | {"layer_units": list(self.gcn.layer_units)}
        d["cells"] = list(self.cells)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentPlan":
        if not isinstance(d, dict):
            raise ValueError(f"an experiment plan must be a JSON object, got {d!r}")
        try:
            return cls(**d | {"sim": SimConfig.from_dict(d.get("sim", {})),
                              "gcn": GcnConfig.from_dict(d.get("gcn", {}))})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad experiment plan: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


def desk_sim_config(seed: int = 0) -> SimConfig:
    """Desk-scale simulation profile: small enough that the full grid runs in
    minutes, dense and selective enough that preferences leave a readable
    imprint on the topology."""
    return SimConfig(n=200, f=20, y=4, q=3, p=0.3, t=0.0125, r=0.25,
                     c=(1.0, 0.5), z=0.3, seed=seed)


def desk_plan(seed: int = 0, networks: int = 3, snapshots: int = 3,
              include_s: bool = True) -> ExperimentPlan:
    """Desk-scale experiment over the default grid."""
    return ExperimentPlan(
        sim=desk_sim_config(seed),
        networks=networks,
        snapshots=snapshots,
        cells=default_model_grid(include_s=include_s),
        folds=10,
        seed=seed,
        gcn=GcnConfig(num_classes=4),
    )


@dataclass(frozen=True)
class CellResult:
    accuracies: tuple[float, ...]
    mean: float | None
    std: float | None
    failed: bool = False
    error: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> "CellResult":
        result = cls(**d | {"accuracies": tuple(d["accuracies"])})
        # a JSON number loads as an int or a float; a bool is not one
        if not all(type(v) in (int, float) for v in result.accuracies):
            raise ValueError(f"accuracies must be a list of numbers, got {d['accuracies']!r}")
        if not all(v is None or type(v) in (int, float) for v in (result.mean, result.std)):
            raise ValueError(f"mean and std must be numbers or null, got {d!r}")
        if not (isinstance(result.failed, bool) and isinstance(result.error, str)):
            raise ValueError(f"failed must be true or false and error a string, got {d!r}")
        return result


@dataclass(frozen=True)
class SnapshotReport:
    name: str                      # "<network>-<snapshot>"
    cells: dict[str, CellResult]
    best_cell: str
    hypothesis: bool | None

    @classmethod
    def from_dict(cls, d: dict) -> "SnapshotReport":
        snap = cls(**d | {"cells": {k: CellResult.from_dict(v) for k, v in d["cells"].items()}})
        for name in ("name", "best_cell"):
            if not isinstance(getattr(snap, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(snap, name)!r}")
        if not (snap.hypothesis is None or isinstance(snap.hypothesis, bool)):
            raise ValueError(f"hypothesis must be true, false or null, got {snap.hypothesis!r}")
        return snap


@dataclass(frozen=True)
class ExperimentReport:
    plan: dict
    snapshots: tuple[SnapshotReport, ...]

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        # the echo must be a valid plan; an echo written before GcnConfig
        # lost its unread seed carries gcn.seed, checked without it and kept
        plan = d["plan"]
        ExperimentPlan.from_dict(
            plan | {"gcn": {k: v for k, v in plan.get("gcn", {}).items() if k != "seed"}})
        return cls(**d | {"snapshots": tuple(SnapshotReport.from_dict(s) for s in d["snapshots"])})

    @property
    def any_failed(self) -> bool:
        return any(c.failed for s in self.snapshots for c in s.cells.values())


def make_folds(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Stratified k-fold test masks, a (folds, n) bool array: every class is
    shuffled and dealt round-robin into ``folds`` groups; fold k tests on
    group k, row k, and trains on the rest, its complement ``~row``."""
    check_integer("folds", folds, 2)
    labels = np.asarray(labels)
    rng = derive_rng(seed, "folds")
    n = labels.size
    groups = np.zeros(n, dtype=np.int64)
    for cls in sorted_unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < folds:
            raise ValueError(
                f"class {cls} has {members.size} members, fewer than {folds} folds"
            )
        groups[members[rng.permutation(members.size)]] = np.arange(members.size) % folds
    return groups == np.arange(folds)[:, None]


def run_cell(
    graph: SocialGraph,
    cell: str,
    test_masks: np.ndarray,
    base: GcnConfig | None = None,
    plan_seed: int = 0,
    network: int = 0,
    snapshot: int = 0,
) -> CellResult:
    """Cross-validate one cell on one snapshot: parse the cell, build its
    representative, give each fold its derived training seed and train the
    folds as one stack.  ``test_masks`` is a (k, n) bool array, one fold a
    row (see :func:`make_folds`); each fold trains on the complement.

    All of it runs inside the cell's fault boundary, so any exception,
    a failed build included, fails only this cell.  Building here means a
    pool task ships the graph and the fold masks, not an n x n matrix, and
    the workers build in parallel.
    """
    try:
        cfg, spec = parse_cell(cell, base)
        g_matrix = build_representative(graph, spec, provenance=f"{network}-{snapshot}").matrix
        inputs = TrainInputs(g_matrix=g_matrix, x=graph.features, labels=graph.sdna_of,
                             test_mask=test_masks)
        seeds = [derive_seed(plan_seed, "train", network, snapshot, cell, fold)
                 for fold in range(len(test_masks))]
        accs = train_folds(inputs, cfg, seeds)
    except TrainingDiverged as exc:
        return CellResult((), None, None, failed=True, error=f"fold {exc.fold}: {exc}")
    except Exception as exc:  # one bad cell must not end the batch
        log.exception("cell %s failed", cell)
        return CellResult((), None, None, failed=True, error=f"{type(exc).__name__}: {exc}")
    return CellResult(
        tuple(accs), mean=float(np.mean(accs)), std=float(np.std(accs))
    )


def _snapshot_hypothesis(cells: dict[str, CellResult]) -> bool | None:
    """Integration predicate: the feature+topology model beats features-only
    and beats at least one of the topology-only models (strictly)."""
    means = {}
    for name in HYPOTHESIS_CELLS:
        result = cells.get(name)
        if result is None or result.failed or result.mean is None:
            return None
        means[name] = result.mean
    ft = means["FTvanilla"]
    return ft > means["F"] and (ft > means["T"] or ft > means["TLR"])


def _best_cell(cells: dict[str, CellResult]) -> str:
    ranked = [
        (result.mean, name)
        for name, result in cells.items()
        if not result.failed and result.mean is not None
    ]
    if not ranked:
        return ""
    # ties break toward the lexicographically first name, for determinism
    return min(ranked, key=lambda pair: (-pair[0], pair[1]))[1]


def __getattr__(name: str):
    # PEP 562: the pool class is a patchable module attribute, imported on use
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` forked processes, each of which sets BLAS to one
    thread as it starts: the products are too small to gain from threads,
    and w workers that each keep OpenBLAS's default of one thread per core
    oversubscribe the cores.  Fork starts a worker in milliseconds, with
    numpy and socsim already imported; spawn and forkserver take a third of
    a second or more per pool.  A fork pool forks all its workers at its
    first submit, before it starts its own threads.  Here, in the parent,
    the setter is looked up (a missing one is logged once) and the first
    pool imports the pool code, before it forks; the class is whatever this
    module's ``ProcessPoolExecutor`` is, patched or not."""
    import multiprocessing
    executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
    return executor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                    initializer=_blas_thread_setter(), initargs=(1,))


def _run_now(fn, *args) -> Future:
    """``pool.submit`` without a pool: run ``fn`` here and now."""
    future: Future = Future()
    future.set_result(fn(*args))
    return future


def _refused(exc: BrokenExecutor) -> Future:
    """A future that raises ``exc``, the error of a pool that a lost worker
    broke, as the cells it was running do."""
    future: Future = Future()
    future.set_exception(exc)
    return future


def _submit_cells(submit, fn, cells: tuple[str, ...]) -> tuple[list[Future], BrokenExecutor | None]:
    """``submit(fn, cell)`` for each cell, and the error of the first submit
    that met a broken pool, or None: that cell and every later one get a
    future that raises it."""
    futures = []
    for cell in cells:
        try:
            futures.append(submit(fn, cell))
        except BrokenExecutor as exc:
            return futures + [_refused(exc)] * (len(cells) - len(futures)), exc
    return futures, None


def _cell_result(future: Future) -> CellResult:
    """The future's result, or a failed cell naming the broken pool when a
    lost worker broke it before the cell finished."""
    try:
        return future.result()
    except BrokenExecutor as exc:
        return CellResult((), None, None, failed=True, error=f"{type(exc).__name__}: {exc}")


def _snapshot_names(plan: ExperimentPlan) -> list[str]:
    """Every snapshot's name, ``"<network>-<snapshot>"``, in plan order."""
    return [f"{net}-{snap}" for net in range(plan.networks) for snap in range(plan.snapshots)]


def _snapshot_tasks(plan: ExperimentPlan) -> Iterator[tuple[str, functools.partial]]:
    """Per snapshot, in plan order, its name and :func:`run_cell` bound to
    its graph and folds.  Lazy: a snapshot is simulated and its folds drawn
    when it is asked for."""
    names = iter(_snapshot_names(plan))
    for net in range(plan.networks):
        sim_cfg = replace(plan.sim, seed=derive_seed(plan.seed, "network", net))
        for snap_idx, (graph, _) in enumerate(iter_snapshots(sim_cfg, plan.snapshots)):
            test_masks = make_folds(
                graph.sdna_of, plan.folds, derive_seed(plan.seed, "folds", net, snap_idx)
            )
            yield next(names), functools.partial(
                run_cell, graph, test_masks=test_masks, base=plan.gcn,
                plan_seed=plan.seed, network=net, snapshot=snap_idx,
            )


def _snapshot_report(cells: tuple[str, ...], name: str, futures: list[Future]) -> SnapshotReport:
    results = {cell: _cell_result(future) for cell, future in zip(cells, futures)}
    return SnapshotReport(name=name, cells=results, best_cell=_best_cell(results),
                          hypothesis=_snapshot_hypothesis(results))


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Full batch: per network, simulate snapshots; per snapshot, run
    :func:`run_cell` on every cell over shared folds.

    Each cell builds its own representative inside its fault boundary, so a
    cell whose build or training raises is recorded and the run completes.
    A pool worker that dies (a crash, a kill) breaks the pool: the results
    already returned are kept, every cell not yet finished is recorded as
    failed with the pool's error, and the run completes.  From the first
    submit that meets the broken pool no further snapshot is simulated:
    every cell of every later snapshot fails with that error.
    Every (snapshot, cell) task goes through one stream.  With more than one
    worker (``plan.workers``, capped at one per core this process may run
    on, 0 meaning that many) and more than one task, one fork pool (BLAS
    pinned to one thread per worker) serves the whole run; otherwise the
    tasks run in-process as they are submitted, with BLAS pinned to one
    thread too and the caller's count given back on return.  A snapshot's
    tasks are submitted as soon as it is simulated and its folds drawn, and
    its results are collected only once the next snapshot, across networks
    too, has been submitted: the workers always have queued work, the next
    simulation overlaps training, and at most two snapshots' graphs are held
    here.  Output is schedule-independent because results keep the plan's
    cell order and every random draw comes from a derived stream, and the
    plan echo leaves out ``workers``: a serial and a pooled run of one plan
    give reports equal byte for byte.
    """
    cores = len(os.sched_getaffinity(0))
    workers = min(plan.workers or cores, cores, plan.networks * plan.snapshots * len(plan.cells))
    snapshots: list[SnapshotReport] = []
    with _pool(workers) if workers > 1 else _one_blas_thread() as pool:
        submit = pool.submit if pool is not None else _run_now
        previous = broken = None
        for name, cell_on_snapshot in _snapshot_tasks(plan):
            futures, broken = _submit_cells(submit, cell_on_snapshot, plan.cells)
            if previous is not None:
                snapshots.append(_snapshot_report(plan.cells, *previous))
            previous = name, futures
            if broken is not None:  # a pool that takes no task: simulate nothing more
                break
        snapshots.append(_snapshot_report(plan.cells, *previous))
    if broken is not None:  # every later snapshot's cells fail with the pool's error
        refused = [_refused(broken)] * len(plan.cells)
        snapshots += [_snapshot_report(plan.cells, name, refused)
                      for name in _snapshot_names(plan)[len(snapshots):]]
    echo = {key: value for key, value in plan.to_dict().items() if key != "workers"}
    return ExperimentReport(plan=echo, snapshots=tuple(snapshots))


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"


def emit_report(report: ExperimentReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.json (full structure), summary.csv (snapshot x cell mean
    and std) and best.csv (baseline vs best cell per snapshot).  Bytes are a
    pure function of the report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(asdict(report), sort_keys=True, indent=2) + "\n")
    return {"report": path, **_emit_csvs(report, out_dir)}


def _emit_csvs(report: ExperimentReport, out_dir: Path) -> dict[str, Path]:
    """Write emit_report()'s summary.csv and best.csv into the existing
    directory ``out_dir``; ``socsim report`` writes these alone."""
    paths = {"summary": out_dir / "summary.csv", "best": out_dir / "best.csv"}
    cell_names = list(report.plan.get("cells", []))
    if not cell_names and report.snapshots:
        cell_names = list(report.snapshots[0].cells)
    with open(paths["summary"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snapshot", *cell_names])
        for snap in report.snapshots:
            row = [snap.name]
            for cell in cell_names:
                result = snap.cells.get(cell)
                if result is None or result.failed:
                    row.append("failed" if result is not None else "")
                else:
                    row.append(f"{_fmt(result.mean)}±{_fmt(result.std)}")
            writer.writerow(row)

    with open(paths["best"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snapshot", "FTvanilla acc (sd)", "max acc (sd)", "max cell"])
        for snap in report.snapshots:
            base = snap.cells.get("FTvanilla")
            base_txt = (
                f"{_fmt(base.mean)} ({_fmt(base.std)})"
                if base is not None and not base.failed
                else ""
            )
            best = snap.cells.get(snap.best_cell) if snap.best_cell else None
            best_txt = (
                f"{_fmt(best.mean)} ({_fmt(best.std)})" if best is not None else ""
            )
            writer.writerow([snap.name, base_txt, best_txt, snap.best_cell])
    return paths


def load_report(path: str | Path) -> ExperimentReport:
    """Read a report.json written by :func:`emit_report`; a file that is not
    JSON or not a report raises ``ValueError`` naming ``path``."""
    try:
        return ExperimentReport.from_dict(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: not a socsim report: {type(exc).__name__}: {exc}") from exc
