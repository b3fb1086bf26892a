"""The benchmark's workloads: generated inputs, one timed cycle, output checks.

Every workload is a closed loop with one client: the driver runs one cycle
at a time, each cycle is a fixed list of ``socsim`` command-line calls made
in-process through ``socsim.cli.main``, and the next call starts only after
the previous one returned.  The run seed fixes every input; cycle ``c`` of a
run uses its own derived seed, so repeated cycles do fresh work.

    desk_grid   ``socsim experiment`` on one desk-scale snapshot (n=200),
                workers=1, 10 folds x 200 epochs, 8 cells per cycle
    wide_pool   ``socsim experiment`` at n=800 over 2 snapshots through the
                harness process pool (workers=2)
    sim_build   ``socsim simulate`` / ``representative`` / ``events`` at
                n=800; no training

Checks read the written files directly (not through socsim's own readers),
so a bug in a reader cannot hide a bug in a writer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import struct
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import socsim.cli
from socsim.gcn import GcnConfig
from socsim.harness import ExperimentPlan, default_model_grid, desk_sim_config, parse_cell

# Upper bound on cycles in one run; plans for all of them are written at set-up.
MAX_CYCLES = 16

BASELINE_CELLS = ("FTvanilla", "F", "T", "TLR")

# The 24 similarity cells of the default grid (S and non-S, every kind and
# threshold), split into six groups of two FT and two SFT cells covering all
# three kinds.  Cycle c of desk_grid runs the baselines plus group c % 6, so
# every cycle trains the same mix of model shapes.  Group 0 holds
# FTkatz0.0-0.5 and FTkatz0.0-1.0, which build the same matrix at desk scale
# (Katz row norms stay far below both upper thresholds), so a change that
# drops duplicate cells shows on the first cycle.
SIM_GROUPS = (
    ("FTkatz0.0-0.5", "FTkatz0.0-1.0", "SFTRPR0.1-1.0", "SFTGGauto"),
    ("SFTkatz0.0-0.5", "SFTkatz0.0-1.0", "FTRPR0.1-1.0", "FTGGauto"),
    ("FTRPR0.0-0.5", "FTGG0.0-1.0", "SFTkatz0.1-1.0", "SFTRPRauto"),
    ("SFTRPR0.0-0.5", "SFTGG0.0-1.0", "FTkatz0.1-1.0", "FTRPRauto"),
    ("FTRPR0.0-1.0", "FTGG0.0-0.5", "SFTkatzauto", "SFTGG0.1-1.0"),
    ("SFTRPR0.0-1.0", "SFTGG0.0-0.5", "FTkatzauto", "FTGG0.1-1.0"),
)

WIDE_CELLS = ("FTvanilla", "SFTvanilla", "T", "TLR",
              "FTkatz0.0-0.5", "FTRPRauto", "FTGG0.1-1.0")

SNAPSHOT_FILES = ("edges.tsv", "features.csv", "labels.csv", "sdna.json", "meta.json")


@dataclass(frozen=True)
class Scale:
    """Problem sizes.  ``full`` is what the benchmark measures; ``tiny``
    (n=40, 2 folds, 5 epochs) is for the smoke test."""

    desk_n: int = 200
    wide_n: int = 800
    folds: int = 10
    epochs: int = 200
    wide_folds: int = 3
    wide_epochs: int = 20
    wide_snapshots: int = 2
    sim_snapshots: int = 6
    sim_events: int = 7


SCALES = {
    "full": Scale(),
    "tiny": Scale(desk_n=40, wide_n=40, folds=2, epochs=5, wide_folds=2,
                  wide_epochs=5, wide_snapshots=2, sim_snapshots=2, sim_events=2),
}


def sim_config(n: int, seed: int):
    """Desk-profile simulation at ``n`` nodes, with the connect fraction t
    scaled so one socialise round adds the same mean degree as at n=200."""
    desk = desk_sim_config(seed)
    return replace(desk, n=n, t=desk.t * (desk.n - 1) / (n - 1))


def cycle_seed(seed: int, cycle: int) -> int:
    return seed * 1000 + cycle


@dataclass
class Cycle:
    """One cycle's timings and check results.

    wall_s    summed duration of the cycle's CLI calls (checks excluded)
    phase_s   the same split by command
    attempted operations tried: cells for experiments; CLI calls and phase
              checks for sim_build
    failed    operations among them that failed
    failures  one line per problem found
    counts    work done: fold_fits, cells, snapshots, reps, events
    digests   sha256 of every report.json written
    results   sha256 of each report's per-snapshot results alone (the plan
              echo left out, so runs that differ only in ``workers`` compare)
    speed     factor to reference host speed over the cycle's calls (probe.py)
    """

    wall_s: float = 0.0
    phase_s: dict[str, float] = field(default_factory=dict)
    exit_codes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)
    results: list[str] = field(default_factory=list)
    speed: float = 1.0

    def call(self, phase: str, argv: list[str]) -> None:
        """Run one ``socsim`` command in-process and time it."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                code = socsim.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing command is a failed operation, not a crashed run
                code = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        self.wall_s += elapsed
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + elapsed
        self.exit_codes.append((argv[0], code))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_experiment(out_dir: Path, plan: dict, exit_code, cycle: Cycle) -> None:
    """Exit 0, report.json holds every snapshot x cell with ``folds``
    accuracies in [0, 1], and the CSV views exist.  One operation per cell."""
    names = [f"{net}-{snap}" for net in range(plan["networks"])
             for snap in range(plan["snapshots"])]
    cells = plan["cells"]
    total = len(names) * len(cells)
    cycle.attempted += total
    cycle.counts["cells"] = cycle.counts.get("cells", 0) + total
    problems_before = len(cycle.failures)
    if exit_code != 0:
        cycle.failures.append(f"experiment exit code {exit_code!r}")
    report_path = out_dir / "report.json"
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        cycle.failures.append(f"unreadable report.json: {exc}")
        cycle.counts["cells_failed"] = cycle.counts.get("cells_failed", 0) + total
        cycle.failed += total
        return
    cycle.digests.append(_sha256(report_path))
    cycle.results.append(hashlib.sha256(
        json.dumps(report.get("snapshots"), sort_keys=True).encode()).hexdigest())
    for name in ("summary.csv", "best.csv"):
        if not (out_dir / name).is_file():
            cycle.failures.append(f"missing {name}")
    snaps = {s.get("name"): s for s in report.get("snapshots", [])}
    failed = 0
    for name in names:
        snap_cells = snaps.get(name, {}).get("cells", {})
        for cell in cells:
            result = snap_cells.get(cell)
            accs = None if result is None else result.get("accuracies")
            if result is None or result.get("failed") or not isinstance(accs, list):
                cycle.failures.append(f"{name}/{cell}: missing or failed")
                failed += 1
            elif len(accs) != plan["folds"] or not all(0.0 <= a <= 1.0 for a in accs):
                cycle.failures.append(f"{name}/{cell}: bad accuracies {accs}")
                failed += 1
            else:
                cycle.counts["fold_fits"] = cycle.counts.get("fold_fits", 0) + len(accs)
    cycle.counts["cells_failed"] = cycle.counts.get("cells_failed", 0) + failed
    # a problem outside any one cell (exit code, CSV views) still fails an operation
    cycle.failed += max(failed, int(len(cycle.failures) > problems_before))


def check_snapshots(sim_dir: Path, count: int, n: int) -> list[str]:
    """Every snapshot directory has all its files and edge counts grow."""
    problems = []
    edges_before = -1
    for idx in range(count):
        snap = sim_dir / f"snap-{idx:03d}"
        missing = [name for name in SNAPSHOT_FILES if not (snap / name).is_file()]
        if missing:
            problems.append(f"{snap.name}: missing {missing}")
            continue
        lines = (snap / "edges.tsv").read_text().split()
        edges = len(lines) // 2
        nodes = np.array(lines, dtype=np.int64)
        if len(lines) % 2 or (nodes.size and not (0 <= nodes.min() and nodes.max() < n)):
            problems.append(f"{snap.name}: malformed edges.tsv")
        if edges <= edges_before:
            problems.append(f"{snap.name}: {edges} edges, not more than {edges_before}")
        edges_before = edges
    return problems


def check_representative(path: Path, n: int) -> list[str]:
    """SOCG file of an n x n, symmetric, finite matrix."""
    try:
        blob = path.read_bytes()
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if blob[:4] != b"SOCG" or len(blob) < 8:
        return [f"{path.name}: bad header"]
    (size,) = struct.unpack("<I", blob[4:8])
    if size != n or len(blob) != 8 + 8 * n * n:
        return [f"{path.name}: size {size}, {len(blob)} bytes, expected {n}x{n}"]
    m = np.frombuffer(blob, dtype="<f8", offset=8).reshape(n, n)
    if not np.all(np.isfinite(m)):
        return [f"{path.name}: non-finite entries"]
    if not np.allclose(m, m.T, rtol=1e-12, atol=1e-15):
        return [f"{path.name}: not symmetric"]
    return []


def check_events(path: Path, count: int, n: int) -> list[str]:
    """``count`` rows ``ts i j`` with ts = 0..count-1 and distinct pairs i < j."""
    try:
        rows = [line.split("\t") for line in path.read_text().splitlines() if line]
        parsed = [(int(ts), int(i), int(j)) for ts, i, j in rows]
    except (OSError, ValueError) as exc:
        return [f"events: unreadable: {exc}"]
    problems = []
    if [ts for ts, _, _ in parsed] != list(range(count)):
        problems.append(f"events: {len(parsed)} rows, expected timestamps 0..{count - 1}")
    pairs = {(i, j) for _, i, j in parsed}
    if len(pairs) != len(parsed) or not all(0 <= i < j < n for i, j in pairs):
        problems.append("events: repeated or malformed pairs")
    return problems


class ExperimentWorkload:
    """``socsim experiment`` once per cycle on a generated plan."""

    def __init__(self, scale: Scale):
        self.scale = scale

    def plan(self, seed: int, cycle: int, serial: bool = False) -> dict:
        raise NotImplementedError

    @property
    def workers(self) -> int:
        return self.plan(0, 0)["workers"]

    def _plan_path(self, root: Path, cycle: int, serial: bool) -> Path:
        return root / "inputs" / f"plan-{cycle:02d}{'-serial' if serial else ''}.json"

    def prepare(self, root: Path, seed: int) -> None:
        """Write the plan files of every cycle (and serial twins when pooled)."""
        (root / "inputs").mkdir(parents=True, exist_ok=True)
        variants = (False, True) if self.workers > 1 else (False,)
        for cycle in range(MAX_CYCLES):
            for serial in variants:
                plan = self.plan(seed, cycle, serial)
                self._plan_path(root, cycle, serial).write_text(json.dumps(plan))

    def execute(self, root: Path, cycle: int, tag: str, serial: bool = False) -> Cycle:
        result = Cycle()
        serial = serial and self.workers > 1
        out = root / f"out-{tag}-{cycle:02d}"
        result.call("experiment", ["experiment", "--plan", str(self._plan_path(root, cycle, serial)),
                                   "--out", str(out)])
        return result

    def check(self, root: Path, cycle: int, tag: str, result: Cycle) -> None:
        plan = json.loads(self._plan_path(root, cycle, False).read_text())
        check_experiment(root / f"out-{tag}-{cycle:02d}", plan, result.exit_codes[0][1], result)

    def cycle_plans(self, root: Path, cycle: int) -> list[dict]:
        return [json.loads(self._plan_path(root, cycle, False).read_text())]

    def _experiment(self, sim, cells, seed, folds, epochs, snapshots, workers) -> dict:
        return ExperimentPlan(
            sim=sim, networks=1, snapshots=snapshots, cells=cells, folds=folds,
            seed=seed, gcn=GcnConfig(num_classes=sim.y, epochs=epochs), workers=workers,
        ).to_dict()


class DeskGrid(ExperimentWorkload):
    name = "desk_grid"

    def plan(self, seed: int, cycle: int, serial: bool = False) -> dict:
        s = self.scale
        cells = BASELINE_CELLS + SIM_GROUPS[cycle % len(SIM_GROUPS)]
        cs = cycle_seed(seed, cycle)
        return self._experiment(sim_config(s.desk_n, cs), cells, cs, s.folds, s.epochs, 1, 1)


class WidePool(ExperimentWorkload):
    name = "wide_pool"

    def plan(self, seed: int, cycle: int, serial: bool = False) -> dict:
        s = self.scale
        cs = cycle_seed(seed, cycle)
        return self._experiment(sim_config(s.wide_n, cs), WIDE_CELLS, cs, s.wide_folds,
                                s.wide_epochs, s.wide_snapshots, 1 if serial else 2)


def distinct_specs() -> list:
    """Every distinct representative recipe of the full default grid, in grid order."""
    specs = []
    for cell in default_model_grid(include_s=True):
        spec = parse_cell(cell)[1]
        if spec not in specs:
            specs.append(spec)
    return specs


class SimBuild:
    """simulate -> representative for every distinct grid spec on the last
    snapshot -> events.  The three phase sizes give each phase a comparable
    share of a cycle at n=800."""

    name = "sim_build"
    workers = 1

    def __init__(self, scale: Scale):
        self.scale = scale
        self.specs = distinct_specs()

    def _config_path(self, root: Path, cycle: int) -> Path:
        return root / "inputs" / f"sim-{cycle:02d}.json"

    def prepare(self, root: Path, seed: int) -> None:
        (root / "inputs").mkdir(parents=True, exist_ok=True)
        for cycle in range(MAX_CYCLES):
            cfg = sim_config(self.scale.wide_n, cycle_seed(seed, cycle))
            self._config_path(root, cycle).write_text(cfg.to_json())

    def _spec_argv(self, spec) -> list[str]:
        thresholds = (["auto"] if spec.auto_threshold
                      else [repr(float(spec.threshold_lo)), repr(float(spec.threshold_hi))])
        return ["--kind", spec.kind, "--beta", repr(spec.katz_beta),
                "--max-power", str(spec.katz_max_power), "--alpha", repr(spec.rpr_alpha),
                "--thresholds", *thresholds]

    def execute(self, root: Path, cycle: int, tag: str, serial: bool = False) -> Cycle:
        s = self.scale
        config = str(self._config_path(root, cycle))
        out = root / f"out-{tag}-{cycle:02d}"
        result = Cycle()
        result.call("simulate", ["simulate", "--config", config, "--out", str(out / "sim"),
                                 "--snapshots", str(s.sim_snapshots)])
        last = out / "sim" / f"snap-{s.sim_snapshots - 1:03d}"
        (out / "reps").mkdir(parents=True, exist_ok=True)
        for idx, spec in enumerate(self.specs):
            result.call("representative", ["representative", "--graph", str(last),
                                           *self._spec_argv(spec),
                                           "--out", str(out / "reps" / f"{idx:02d}.bin")])
        result.call("events", ["events", "--config", config, "--out", str(out / "events.tsv"),
                               "--events", str(s.sim_events)])
        return result

    def check(self, root: Path, cycle: int, tag: str, result: Cycle) -> None:
        s = self.scale
        n = s.wide_n
        out = root / f"out-{tag}-{cycle:02d}"
        result.attempted += len(result.exit_codes) + 3
        for command, code in result.exit_codes:
            if code != 0:
                result.failures.append(f"{command} exit code {code!r}")
        phase_checks = (
            check_snapshots(out / "sim", s.sim_snapshots, n),
            [p for idx in range(len(self.specs))
             for p in check_representative(out / "reps" / f"{idx:02d}.bin", n)],
            check_events(out / "events.tsv", s.sim_events, n),
        )
        for problems in phase_checks:
            result.failures.extend(problems)
        result.counts.update(snapshots=s.sim_snapshots, reps=len(self.specs), events=s.sim_events)
        result.failed += (sum(1 for _, code in result.exit_codes if code != 0)
                          + sum(1 for problems in phase_checks if problems))

    def cycle_plans(self, root: Path, cycle: int) -> list[dict]:
        return []


WORKLOADS = {cls.name: cls for cls in (DeskGrid, WidePool, SimBuild)}


def clean(root: Path, cycle: int, tag: str) -> None:
    shutil.rmtree(root / f"out-{tag}-{cycle:02d}", ignore_errors=True)
