"""Experiment orchestration: simulate, build representatives, cross-validate.

The unit of work is a cell: one named (model variant, representative recipe)
pair, e.g. ``FTvanilla``, ``SFTkatz0.0-0.5`` or ``FTRPRauto``.  A leading
``S`` turns on the learnable feature-weight vector; ``F``/``T``/``TLR`` are
the ablation variants; ``FT<kind><thresholds>`` picks a similarity-based
representative.  Every cell of a snapshot shares the same stratified folds,
and all randomness is derived from (plan seed, network, snapshot, cell,
fold) so reports are byte-reproducible regardless of scheduling.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace, asdict
from pathlib import Path

import numpy as np

from .gcn import GcnConfig, TrainInputs, TrainingDiverged, train_folds
from .graph import SocialGraph
from .rng import derive_rng, derive_seed
from .sdna import SimConfig, simulate_snapshots
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
    ``gcn`` carries the shared hyperparameters; its variant/use_s/seed are
    overridden per cell and fold."""

    sim: SimConfig = field(default_factory=SimConfig)
    networks: int = 3
    snapshots: int = 3
    cells: tuple[str, ...] = field(default_factory=lambda: default_model_grid(include_s=False))
    folds: int = 10
    seed: int = 0
    gcn: GcnConfig = field(default_factory=GcnConfig)
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("cell names must be unique")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.gcn.num_classes < self.sim.y:
            raise ValueError(f"gcn.num_classes ({self.gcn.num_classes}) is below sim.y "
                             f"({self.sim.y}), the number of sDNA labels")
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
        d = dict(d)
        try:
            d["sim"] = SimConfig(**d.get("sim", {}))
            d["gcn"] = GcnConfig.from_dict(d.get("gcn", {}))
            d["cells"] = tuple(d.get("cells", default_model_grid(include_s=False)))
            return cls(**d)
        except TypeError as exc:
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

    def to_dict(self) -> dict:
        return asdict(self) | {"accuracies": list(self.accuracies)}

    @classmethod
    def from_dict(cls, d: dict) -> "CellResult":
        d = dict(d)
        d["accuracies"] = tuple(d["accuracies"])
        return cls(**d)


@dataclass(frozen=True)
class SnapshotReport:
    name: str                      # "<network>-<snapshot>"
    cells: dict[str, CellResult]
    best_cell: str
    hypothesis: bool | None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cells": {k: v.to_dict() for k, v in self.cells.items()},
            "best_cell": self.best_cell,
            "hypothesis": self.hypothesis,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SnapshotReport":
        return cls(
            name=d["name"],
            cells={k: CellResult.from_dict(v) for k, v in d["cells"].items()},
            best_cell=d["best_cell"],
            hypothesis=d["hypothesis"],
        )


@dataclass(frozen=True)
class ExperimentReport:
    plan: dict
    snapshots: tuple[SnapshotReport, ...]

    def to_dict(self) -> dict:
        return {"plan": self.plan, "snapshots": [s.to_dict() for s in self.snapshots]}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        return cls(
            plan=d["plan"],
            snapshots=tuple(SnapshotReport.from_dict(s) for s in d["snapshots"]),
        )

    def snapshot(self, name: str) -> SnapshotReport:
        for snap in self.snapshots:
            if snap.name == name:
                return snap
        raise KeyError(name)

    @property
    def any_failed(self) -> bool:
        return any(c.failed for s in self.snapshots for c in s.cells.values())


def make_folds(
    labels: np.ndarray, folds: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold masks: every class is shuffled and dealt round-robin
    into ``folds`` groups; fold k tests on group k and trains on the rest."""
    labels = np.asarray(labels)
    rng = derive_rng(seed, "folds")
    n = labels.size
    groups = np.zeros(n, dtype=np.int64)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < folds:
            raise ValueError(
                f"class {cls} has {members.size} members, fewer than {folds} folds"
            )
        groups[members[rng.permutation(members.size)]] = np.arange(members.size) % folds
    out = []
    for k in range(folds):
        test = groups == k
        out.append((~test, test))
    return out


def _fold_configs(
    cfg: GcnConfig, cell: str, plan_seed: int, network: int, snapshot: int, folds: int
) -> list[GcnConfig]:
    """The cell's config (as parse_cell() returns it) once per fold, each
    with the fold's derived training seed."""
    return [
        replace(cfg, seed=derive_seed(plan_seed, "train", network, snapshot, cell, fold))
        for fold in range(folds)
    ]


def _run_cell_folds(
    cell: str,
    g_matrix: np.ndarray,
    x: np.ndarray,
    labels: np.ndarray,
    fold_masks: list[tuple[np.ndarray, np.ndarray]],
    fold_cfgs: list[GcnConfig],
) -> CellResult:
    try:
        inputs = [
            TrainInputs(g_matrix=g_matrix, x=x, labels=labels, train_mask=train_mask,
                        test_mask=test_mask)
            for train_mask, test_mask in fold_masks
        ]
        accs = train_folds(inputs, fold_cfgs)
    except TrainingDiverged as exc:
        return CellResult((), None, None, failed=True, error=f"fold {exc.fold}: {exc}")
    except Exception as exc:  # one bad cell must not end the batch
        log.exception("cell %s failed", cell)
        return CellResult((), None, None, failed=True, error=f"{type(exc).__name__}: {exc}")
    return CellResult(
        tuple(accs), mean=float(np.mean(accs)), std=float(np.std(accs))
    )


def run_cell(
    graph: SocialGraph,
    cell: str,
    fold_masks: list[tuple[np.ndarray, np.ndarray]],
    base: GcnConfig | None = None,
    plan_seed: int = 0,
    network: int = 0,
    snapshot: int = 0,
) -> CellResult:
    """Cross-validate one cell on one snapshot (representative built once)."""
    cfg, spec = parse_cell(cell, base)
    rep = build_representative(graph, spec, provenance=f"{network}-{snapshot}")
    cfgs = _fold_configs(cfg, cell, plan_seed, network, snapshot, len(fold_masks))
    return _run_cell_folds(cell, rep.matrix, graph.features, graph.sdna_of, fold_masks, cfgs)


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


def check_hypothesis(report: ExperimentReport, snapshot: str) -> bool | None:
    """Evaluate the integration predicate for one snapshot of a report; None
    when a required cell is missing or failed."""
    return _snapshot_hypothesis(report.snapshot(snapshot).cells)


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


def _worker_budget(plan: ExperimentPlan) -> int:
    env = os.environ.get("SOCSIM_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"SOCSIM_WORKERS must be a positive integer, got {env!r}")
        return workers
    return max(1, plan.workers)


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Full batch: per network, simulate snapshots; per snapshot, build each
    cell's representative once, cross-validate every cell on shared folds.

    Cell failures are recorded and the run completes.  Independent cells are
    scheduled onto one process pool for the whole run when the worker budget
    exceeds one, a snapshot at a time, so only one snapshot's matrices are
    in flight; output is schedule-independent because every result is keyed
    and every random draw comes from a derived stream.
    """
    workers = _worker_budget(plan)
    pooled = workers > 1 and len(plan.cells) > 1
    snapshots: list[SnapshotReport] = []
    with (ProcessPoolExecutor(max_workers=workers) if pooled
          else contextlib.nullcontext()) as pool:
        for net in range(plan.networks):
            sim_cfg = replace(plan.sim, seed=derive_seed(plan.seed, "network", net))
            for snap_idx, (graph, _) in enumerate(simulate_snapshots(sim_cfg, plan.snapshots)):
                labels = graph.sdna_of
                fold_masks = make_folds(
                    labels, plan.folds, derive_seed(plan.seed, "folds", net, snap_idx)
                )
                matrices: dict[SimilaritySpec, np.ndarray] = {}
                jobs = []
                for cell in plan.cells:
                    cfg, spec = parse_cell(cell, plan.gcn)
                    if spec not in matrices:
                        matrices[spec] = build_representative(
                            graph, spec, provenance=f"{net}-{snap_idx}"
                        ).matrix
                    cfgs = _fold_configs(cfg, cell, plan.seed, net, snap_idx, plan.folds)
                    jobs.append((cell, matrices[spec], graph.features, labels, fold_masks, cfgs))

                if pool is not None:
                    futures = {job[0]: pool.submit(_run_cell_folds, *job) for job in jobs}
                    results = {cell: future.result() for cell, future in futures.items()}
                else:
                    results = {job[0]: _run_cell_folds(*job) for job in jobs}

                snapshots.append(
                    SnapshotReport(
                        name=f"{net}-{snap_idx}",
                        cells=results,
                        best_cell=_best_cell(results),
                        hypothesis=_snapshot_hypothesis(results),
                    )
                )
    return ExperimentReport(plan=plan.to_dict(), snapshots=tuple(snapshots))


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"


def emit_report(report: ExperimentReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.json (full structure), summary.csv (snapshot x cell mean
    and std) and best.csv (baseline vs best cell per snapshot).  Bytes are a
    pure function of the report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out_dir / "report.json",
        "summary": out_dir / "summary.csv",
        "best": out_dir / "best.csv",
    }
    paths["report"].write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    )

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
    return ExperimentReport.from_dict(json.loads(Path(path).read_text()))
