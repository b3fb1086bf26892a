import concurrent.futures
import contextlib
import gc
import json
import os
import platform
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from socsim import _openblas, cli, harness
from socsim.gcn import GcnConfig, TrainInputs, TrainingDiverged, train_folds
from socsim.graph import SocialGraph
from socsim.rng import derive_seed
from socsim.harness import (
    CellResult,
    ExperimentPlan,
    ExperimentReport,
    default_model_grid,
    emit_report,
    load_report,
    make_folds,
    parse_cell,
    run_cell,
    run_experiment,
)
from socsim.sdna import SimConfig, iter_snapshots
from socsim.similarity import AUTO, build_representative


def tiny_plan(**kw):
    defaults = dict(
        sim=SimConfig(n=40, f=4, y=4, q=2, p=0.6, t=0.05, r=0.25, c=(1.0,),
                      z=0.3, seed=5),
        networks=1,
        snapshots=2,
        cells=("FTvanilla", "F", "T", "TLR"),
        folds=5,
        seed=17,
        gcn=GcnConfig(num_classes=4, layer_units=(8, 8, 8), epochs=15),
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


# --- cell parsing ------------------------------------------------------------

def test_parse_baseline_cells():
    for name, variant, use_s in [
        ("F", "f", False), ("T", "t", False), ("TLR", "tlr", False),
        ("FTvanilla", "ftvanilla", False), ("SFTvanilla", "ftvanilla", True),
        ("SF", "f", True),
    ]:
        cfg, spec = parse_cell(name)
        assert cfg.variant == variant
        assert cfg.use_s == use_s
        assert spec.kind == "adjacency"


def test_parse_similarity_cells():
    cfg, spec = parse_cell("FTkatz0.0-0.5")
    assert (spec.kind, spec.threshold_lo, spec.threshold_hi) == ("katz", 0.0, 0.5)
    cfg, spec = parse_cell("SFTkatzAuto")
    assert cfg.use_s and spec.kind == "katz" and spec.threshold_lo == AUTO
    cfg, spec = parse_cell("FTRPRauto")
    assert spec.kind == "rpr" and spec.auto_threshold
    cfg, spec = parse_cell("FTGG0.1-1.0")
    assert spec.kind == "gg" and spec.threshold_lo == 0.1


def test_parse_rejects_malformed_names():
    for bad in ("X", "FTkatz", "FTvanilla0.1-0.2", "FTkatz0.1", "ST", "STLR"):
        with pytest.raises(ValueError):
            parse_cell(bad)


def test_default_grid_shape():
    grid = default_model_grid(include_s=False)
    assert len(grid) == 4 + 3 * 4
    assert len(set(grid)) == len(grid)
    full = default_model_grid(include_s=True)
    assert "sftkatzauto" in [c.lower() for c in full]
    for cell in full:
        parse_cell(cell)


# --- folds -------------------------------------------------------------------

def test_folds_stratified_balanced():
    labels = np.arange(1000) % 4
    folds = make_folds(labels, 10, seed=3)
    assert folds.shape == (10, 1000) and folds.dtype == bool
    for test_mask in folds:
        assert test_mask.sum() == 100
        for cls in range(4):
            assert (labels[test_mask] == cls).sum() == 25


def test_folds_partition_nodes():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=60)
    while np.min(np.bincount(labels)) < 5:
        labels = rng.integers(0, 3, size=60)
    folds = make_folds(labels, 5, seed=9)
    assert np.all(folds.sum(axis=0) == 1)


def test_folds_deterministic():
    labels = np.arange(100) % 4
    assert np.array_equal(make_folds(labels, 10, seed=4), make_folds(labels, 10, seed=4))


def test_folds_reject_small_classes():
    labels = np.array([0] * 20 + [1] * 3)
    with pytest.raises(ValueError):
        make_folds(labels, 5, seed=0)


# --- hypothesis predicate ------------------------------------------------------

def snap_with(means):
    cells = {
        name: CellResult((m,), mean=m, std=0.0) for name, m in means.items()
    }
    return cells


def test_hypothesis_true_case():
    from socsim.harness import _snapshot_hypothesis
    assert _snapshot_hypothesis(
        snap_with({"FTvanilla": 0.72, "F": 0.25, "T": 0.70, "TLR": 0.69})
    ) is True


def test_hypothesis_topology_dominates():
    from socsim.harness import _snapshot_hypothesis
    assert _snapshot_hypothesis(
        snap_with({"FTvanilla": 0.70, "F": 0.25, "T": 0.75, "TLR": 0.74})
    ) is False


def test_hypothesis_strict_inequality():
    from socsim.harness import _snapshot_hypothesis
    assert _snapshot_hypothesis(
        snap_with({"FTvanilla": 0.5, "F": 0.5, "T": 0.1, "TLR": 0.1})
    ) is False


def test_hypothesis_missing_cell_indeterminate():
    from socsim.harness import _snapshot_hypothesis
    assert _snapshot_hypothesis(snap_with({"FTvanilla": 0.7, "F": 0.2})) is None
    failed = snap_with({"FTvanilla": 0.7, "F": 0.2, "T": 0.5, "TLR": 0.4})
    failed["T"] = CellResult((), None, None, failed=True, error="boom")
    assert _snapshot_hypothesis(failed) is None


# --- run_cell / experiment -------------------------------------------------------

def test_run_cell_shapes():
    plan = tiny_plan()
    (g, _), = iter_snapshots(plan.sim, 1)
    folds = make_folds(g.sdna_of, 5, seed=1)
    result = run_cell(g, "FTvanilla", folds, base=plan.gcn, plan_seed=3)
    assert len(result.accuracies) == 5
    assert result.mean == pytest.approx(np.mean(result.accuracies))
    assert result.std == pytest.approx(np.std(result.accuracies))
    assert not result.failed


def test_experiment_report_shape():
    plan = tiny_plan(cells=("FTvanilla", "F"))
    report = run_experiment(plan)
    assert len(report.snapshots) == 2
    names = [s.name for s in report.snapshots]
    assert names == ["0-0", "0-1"]
    for snap in report.snapshots:
        assert set(snap.cells) == {"FTvanilla", "F"}
        for result in snap.cells.values():
            assert len(result.accuracies) == 5
        assert snap.hypothesis is None  # T and TLR absent
        assert snap.best_cell in snap.cells


def test_experiment_thirty_snapshot_naming():
    # 10 networks x 3 snapshots produce the 30 named rows of a full batch
    plan = tiny_plan(
        networks=10, snapshots=3, cells=("F",), folds=2,
        gcn=GcnConfig(num_classes=4, layer_units=(4, 4, 4), epochs=2),
    )
    report = run_experiment(plan)
    names = [s.name for s in report.snapshots]
    assert len(names) == 30
    assert names[0] == "0-0" and names[4] == "1-1" and names[-1] == "9-2"


def test_experiment_deterministic_bytes(tmp_path):
    plan = tiny_plan(cells=("FTvanilla", "F"), snapshots=1)
    r1 = run_experiment(plan)
    r2 = run_experiment(plan)
    emit_report(r1, tmp_path / "a")
    emit_report(r2, tmp_path / "b")
    assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()


def _count_pools(monkeypatch) -> list:
    pools = []

    class CountedPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    return pools


def test_experiment_parallel_matches_serial(tmp_path, monkeypatch):
    plan = tiny_plan(cells=("FTvanilla", "F", "T"), snapshots=2, workers=1)
    serial = run_experiment(plan)
    pools = _count_pools(monkeypatch)
    parallel = run_experiment(replace(plan, workers=3))
    assert len(pools) == 1  # one pool serves both snapshots
    emit_report(serial, tmp_path / "serial")
    emit_report(parallel, tmp_path / "parallel")
    assert (tmp_path / "serial/report.json").read_bytes() == (
        tmp_path / "parallel/report.json"
    ).read_bytes()


def test_stream_across_networks_matches_serial_with_a_failing_cell(monkeypatch):
    # the katz cell of snapshot 1-0 raises in its build; one pool serves
    # both networks, and every snapshot comes out as it does serially
    build = harness.build_representative

    def flaky_build(graph, spec, provenance=""):
        if spec.kind == "katz" and provenance == "1-0":
            raise RuntimeError("injected fault")
        return build(graph, spec, provenance=provenance)

    monkeypatch.setattr(harness, "build_representative", flaky_build)
    pools = _count_pools(monkeypatch)
    plan = tiny_plan(networks=2, snapshots=2, cells=("FTvanilla", "F", "FTkatz0.0-0.5"),
                     workers=1)
    serial = run_experiment(plan)
    assert pools == []
    pooled = run_experiment(replace(plan, workers=2))
    assert len(pools) == 1
    assert [snap.name for snap in pooled.snapshots] == ["0-0", "0-1", "1-0", "1-1"]
    assert pooled.snapshots == serial.snapshots
    failed = [(snap.name, cell) for snap in pooled.snapshots
              for cell, result in snap.cells.items() if result.failed]
    assert failed == [("1-0", "FTkatz0.0-0.5")]
    by_name = {snap.name: snap for snap in pooled.snapshots}
    assert by_name["1-0"].cells["FTkatz0.0-0.5"].error == "RuntimeError: injected fault"


def _worker_dies_on_the_last_cell(graph, cell, test_masks, **kwargs):
    """run_cell, except that the worker given cell TLR of snapshot 0-1 dies
    at once; module-level, so the pool pickles it by name."""
    if cell == "TLR" and kwargs["snapshot"] == 1:
        os._exit(9)
    return run_cell(graph, cell, test_masks, **kwargs)


def test_a_lost_worker_fails_its_unfinished_cells_not_the_run(tmp_path, monkeypatch):
    plan = tiny_plan(workers=2, gcn=replace(tiny_plan().gcn, epochs=3))
    clean = emit_report(run_experiment(replace(plan, workers=1)), tmp_path / "clean")
    spawned = []

    class CountedPool(harness.ProcessPoolExecutor):
        def _spawn_process(self):
            spawned.append(self)
            super()._spawn_process()

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(harness, "run_cell", _worker_dies_on_the_last_cell)
    (tmp_path / "plan.json").write_text(json.dumps(plan.to_dict()))
    assert cli.main(["experiment", "--plan", str(tmp_path / "plan.json"),
                     "--out", str(tmp_path / "run")]) == 3
    assert len(spawned) == 2  # the two workers, and no replacement
    want = json.loads(clean["report"].read_text())["snapshots"]
    got = json.loads((tmp_path / "run" / "report.json").read_text())["snapshots"]
    assert [snap["name"] for snap in got] == ["0-0", "0-1"]
    lost = got[1]["cells"]["TLR"]
    assert lost["failed"] and lost["error"].startswith("BrokenProcessPool: ")
    kept = 0
    for mine, theirs in zip(got, want):
        for cell, result in mine["cells"].items():
            if result["failed"]:
                assert result["error"].startswith("BrokenProcessPool: "), cell
            else:
                assert json.dumps(result) == json.dumps(theirs["cells"][cell]), cell
                kept += 1
    # every other task was taken, and all but the one the other worker was
    # running had returned, before the last one killed its worker
    assert kept >= 6


def test_a_broken_pool_at_submit_fails_every_cell_it_refuses(monkeypatch):
    class BrokenPool(contextlib.nullcontext):
        def __init__(self, **kwargs):
            super().__init__(self)

        def submit(self, fn, *args):
            raise concurrent.futures.BrokenExecutor("pool broken")

    simulated = []

    def counted(cfg, count):
        for snapshot in iter_snapshots(cfg, count):
            simulated.append(snapshot)
            yield snapshot

    monkeypatch.setattr(harness, "ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr(harness, "iter_snapshots", counted)
    report = run_experiment(tiny_plan(workers=2))
    # the first refused submit ends the simulation; the later snapshot is
    # named from the plan and fails whole
    assert len(simulated) == 1
    assert [(snap.name, snap.best_cell, snap.hypothesis) for snap in report.snapshots] == [
        ("0-0", "", None), ("0-1", "", None)]
    for snap in report.snapshots:
        assert {cell: (result.failed, result.error) for cell, result in snap.cells.items()} == {
            cell: (True, "BrokenExecutor: pool broken") for cell in tiny_plan().cells}


def test_one_cell_plan_pools_over_its_snapshots(monkeypatch):
    pools = _count_pools(monkeypatch)
    plan = tiny_plan(cells=("FTvanilla",), snapshots=2, workers=2)
    pooled = run_experiment(plan)
    assert len(pools) == 1
    assert pooled.snapshots == run_experiment(replace(plan, workers=1)).snapshots
    assert len(pools) == 1


def test_stream_frees_the_graph_two_snapshots_back(monkeypatch):
    # while snapshot s runs, nothing holds snapshot s-2's graph any more
    graphs, freed = {}, []
    run_cell = harness.run_cell

    def watching(graph, cell, test_masks, **kwargs):
        s = kwargs["snapshot"]
        graphs[s] = weakref.ref(graph)
        if s >= 2:
            gc.collect()
            freed.append(graphs[s - 2]() is None)
        return run_cell(graph, cell, test_masks, **kwargs)

    monkeypatch.setattr(harness, "run_cell", watching)
    run_experiment(tiny_plan(cells=("F",), snapshots=4, workers=1))
    assert freed == [True, True]


def test_pool_class_is_a_lazy_module_attribute():
    assert harness.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    with pytest.raises(AttributeError, match="no_such_name"):
        harness.no_such_name


def test_a_process_that_starts_no_pool_imports_no_pool_code():
    # one fresh interpreter: the package, the CLI and a one-worker run
    plan = tiny_plan(cells=("F",), snapshots=1, workers=1, gcn=replace(tiny_plan().gcn, epochs=2))
    code = ("import json, sys; import socsim, socsim.cli; from socsim import harness; "
            "harness.run_experiment(harness.ExperimentPlan.from_dict(json.loads(sys.argv[1]))); "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(plan.to_dict())], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_pool_workers_run_blas_on_one_thread():
    setter = _openblas._blas_thread_setter()
    if setter is None or _openblas.blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread setter and getter")
    before = _openblas.blas_threads()
    setter(2)  # a parent running more than one BLAS thread, on any host
    try:
        with harness._pool(2) as pool:
            assert pool.submit(_openblas.blas_threads).result() == 1
        assert _openblas.blas_threads() == 2
    finally:
        setter(before)


def test_serial_cells_run_blas_on_one_thread_and_the_callers_count_survives(monkeypatch):
    setter = _openblas._blas_thread_setter()
    if setter is None or _openblas.blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread setter and getter")
    run_cell, seen = harness.run_cell, []

    def watching(*args, **kwargs):
        seen.append(_openblas.blas_threads())
        return run_cell(*args, **kwargs)

    def failing(*args, **kwargs):
        raise RuntimeError("a run that stops early")

    before = _openblas.blas_threads()
    setter(2)  # a caller running more than one BLAS thread, on any host
    try:
        monkeypatch.setattr(harness, "run_cell", watching)
        run_experiment(tiny_plan(cells=("F", "T"), workers=1))
        assert seen == [1] * 4
        assert _openblas.blas_threads() == 2
        monkeypatch.setattr(harness, "run_cell", failing)
        with pytest.raises(RuntimeError, match="stops early"):
            run_experiment(tiny_plan(cells=("F",), workers=1))
        assert _openblas.blas_threads() == 2
    finally:
        setter(before)


def test_machine_facts_hold_the_six_keys_every_tool_prints():
    facts = _openblas.machine_facts()
    assert list(facts) == ["nproc", "python", "numpy", "blas", "blas_threads", "blas_core"]
    assert facts["nproc"] == len(os.sched_getaffinity(0))
    assert facts["python"] == platform.python_version()
    assert facts["numpy"] == np.__version__
    assert facts["blas_threads"] == _openblas.blas_threads()


def test_machine_facts_read_the_blas_thread_count_in_force():
    if _openblas._blas_thread_setter() is None or _openblas.blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread setter and getter")
    with _openblas._one_blas_thread():
        assert _openblas.machine_facts()["blas_threads"] == 1


def test_machine_facts_name_the_kernel_set_openblas_was_told_to_take():
    core = _openblas.machine_facts()["blas_core"]
    if core is None:
        pytest.skip("numpy bundles no OpenBLAS with a core-name getter")
    if core == "Haswell":
        pytest.skip("this process already runs OpenBLAS's Haswell kernels")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = os.environ | {"OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "from socsim._openblas import machine_facts; print(machine_facts()['blas_core'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.split() == ["Haswell"]


def test_pool_has_at_most_one_worker_per_core(monkeypatch):
    # a plan asking for 100000 workers gets one per core, not one per task;
    # the stand-in pool runs every task here, so no process starts
    sizes = []

    def serial_pool(workers):
        sizes.append(workers)
        return contextlib.nullcontext(SimpleNamespace(submit=harness._run_now))

    monkeypatch.setattr(harness, "_pool", serial_pool)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    plan = tiny_plan(cells=("F", "T", "TLR"), snapshots=2, workers=100000,
                     gcn=replace(tiny_plan().gcn, epochs=2))
    report = run_experiment(plan)
    assert sizes == [2]
    assert report == run_experiment(replace(plan, workers=1))


# Per-cell accuracies of this plan, recorded from an earlier commit.  A fold
# tests 20 nodes, so each accuracy is an exact multiple of 1/20 and compares
# exactly: a change that alters how many test nodes any fold gets right
# fails here, not only in a rerun within one commit.
PINNED_ACCURACIES = {
    "FTvanilla": (0.3, 0.25),
    "SFTvanilla": (0.25, 0.1),
    "F": (0.25, 0.2),
    "T": (0.1, 0.25),
    "TLR": (0.15, 0.25),
    "FTkatz0.0-0.5": (0.25, 0.25),
    "SFTRPRauto": (0.2, 0.1),
    "FTGG0.1-1.0": (0.1, 0.25),
}


def test_tiny_plan_accuracies_are_pinned():
    plan = tiny_plan(cells=tuple(PINNED_ACCURACIES), snapshots=1, folds=2, workers=1,
                     gcn=GcnConfig(num_classes=4, epochs=5))
    assert plan.sim.n == 40
    (snap,) = run_experiment(plan).snapshots
    assert {cell: result.accuracies for cell, result in snap.cells.items()} == PINNED_ACCURACIES


def test_experiment_shared_folds_and_hypothesis_flag():
    plan = tiny_plan()
    report = run_experiment(plan)
    for snap in report.snapshots:
        assert snap.hypothesis in (True, False)
        assert harness._snapshot_hypothesis(snap.cells) == snap.hypothesis


def test_report_round_trip(tmp_path):
    plan = tiny_plan(cells=("FTvanilla", "F"), snapshots=1)
    report = run_experiment(plan)
    paths = emit_report(report, tmp_path)
    back = load_report(paths["report"])
    assert back == report


def test_report_written_before_gcn_lost_its_seed_loads_and_re_emits_unchanged(tmp_path):
    # such a report's plan echo also carries the run's workers
    report = run_experiment(tiny_plan(cells=("F",), snapshots=1, workers=1))
    doc = json.loads(emit_report(report, tmp_path / "new")["report"].read_text())
    assert "workers" not in doc["plan"] and "seed" not in doc["plan"]["gcn"]
    doc["plan"]["workers"] = 2
    doc["plan"]["gcn"]["seed"] = 5
    old = tmp_path / "old" / "report.json"
    old.parent.mkdir()
    old.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert load_report(old).snapshots == report.snapshots
    redo = emit_report(load_report(old), tmp_path / "redo")
    assert redo["report"].read_bytes() == old.read_bytes()
    # socsim report re-emits its CSVs, and leaves report.json to emit_report
    assert cli.main(["report", "--in", str(old), "--out", str(tmp_path / "csv")]) == 0
    for name in ("summary.csv", "best.csv"):
        assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "redo" / name).read_bytes()


def test_report_mean_matches_accuracies():
    plan = tiny_plan(cells=("FTvanilla",), snapshots=1)
    report = run_experiment(plan)
    for snap in report.snapshots:
        for result in snap.cells.values():
            assert result.mean == pytest.approx(np.mean(result.accuracies))


def test_emit_report_csv_shapes(tmp_path):
    plan = tiny_plan()
    report = run_experiment(plan)
    paths = emit_report(report, tmp_path)
    summary = paths["summary"].read_text().strip().splitlines()
    assert summary[0].split(",") == ["snapshot", "FTvanilla", "F", "T", "TLR"]
    assert len(summary) == 1 + 2
    best = paths["best"].read_text().strip().splitlines()
    assert best[0].startswith("snapshot,")
    first = best[1].split(",")
    assert first[0] == "0-0"
    assert first[3] in plan.cells


def test_emit_report_empty_grid(tmp_path):
    report = ExperimentReport(plan={"cells": []}, snapshots=())
    paths = emit_report(report, tmp_path)
    assert paths["summary"].read_text().strip() == "snapshot"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_cell_recorded():
    # a learning rate large enough to overflow marks the cell failed
    plan = tiny_plan(cells=("FTvanilla",),
                     gcn=GcnConfig(num_classes=4, layer_units=(8, 8, 8),
                                   epochs=5, learning_rate=1e160))
    report = run_experiment(plan)
    assert report.any_failed
    for snap in report.snapshots:
        result = snap.cells["FTvanilla"]
        assert result.failed and "epoch" in result.error
        assert snap.best_cell == ""


def test_cell_raising_any_error_is_recorded_and_the_run_continues(monkeypatch):
    # every T cell raises inside training, or every FTkatz0.0-0.5 cell inside
    # its representative build; only that cell fails, serially and in a
    # two-worker pool (workers fork, so the patch reaches them)
    train_folds, build = harness.train_folds, harness.build_representative

    def flaky_train(inputs, cfg, seeds):
        if cfg.variant == "t":
            raise RuntimeError("injected fault")
        return train_folds(inputs, cfg, seeds)

    def flaky_build(graph, spec, **kwargs):
        if spec.kind == "katz":
            raise RuntimeError("injected fault")
        return build(graph, spec, **kwargs)

    plan = tiny_plan(cells=("FTvanilla", "F", "T", "TLR", "FTkatz0.0-0.5"))
    for attr, flaky, faulty in (("train_folds", flaky_train, "T"),
                                ("build_representative", flaky_build, "FTkatz0.0-0.5")):
        for workers in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(harness, attr, flaky)
                report = run_experiment(replace(plan, workers=workers))
            assert report.any_failed
            for snap in report.snapshots:
                failed = snap.cells[faulty]
                assert failed.failed and failed.error == "RuntimeError: injected fault"
                assert failed.accuracies == () and failed.mean is None
                for cell in set(plan.cells) - {faulty}:
                    assert not snap.cells[cell].failed
                    assert len(snap.cells[cell].accuracies) == 5
                assert snap.best_cell != faulty
                assert (snap.hypothesis is None) == (faulty == "T")


# --- fold batching ----------------------------------------------------------------

def train_folds_alone(graph, cell, test_masks, base, plan_seed):
    """Each fold trained alone, as a k = 1 stack with (1, n) masks and its
    own seed: its accuracy, or the TrainingDiverged it raised."""
    cfg, spec = parse_cell(cell, base)
    rep = build_representative(graph, spec)
    out = []
    for fold, test_mask in enumerate(test_masks):
        seed = derive_seed(plan_seed, "train", 0, 0, cell, fold)
        inputs = TrainInputs(g_matrix=rep.matrix, x=graph.features, labels=graph.sdna_of,
                             train_mask=~test_mask[None], test_mask=test_mask[None])
        try:
            out.extend(train_folds(inputs, cfg, [seed]))
        except TrainingDiverged as exc:
            out.append(exc)
    return out


def train_each_fold_alone(graph, cell, test_masks, base, plan_seed):
    """Reference for run_cell: the accuracies of train_folds_alone(), or,
    as the harness reports it, the divergence at the earliest epoch, of the
    lowest-index fold among those diverging then."""
    results = train_folds_alone(graph, cell, test_masks, base, plan_seed)
    diverged = [(r.epoch, fold, r) for fold, r in enumerate(results)
                if isinstance(r, TrainingDiverged)]
    if diverged:
        _, fold, exc = min(diverged, key=lambda d: d[:2])
        return f"fold {fold}: {exc}"
    return results


@pytest.mark.parametrize("cell", ["FTvanilla", "SFTvanilla", "F", "SF", "T", "TLR",
                                  "FTkatz0.0-0.5"])
def test_batched_folds_match_training_each_fold_alone(cell):
    (g, _), = iter_snapshots(tiny_plan().sim, 1)
    folds = make_folds(g.sdna_of, 4, seed=2)
    base = GcnConfig(num_classes=4, epochs=12, dropout_p=0.5)
    result = run_cell(g, cell, folds, base=base, plan_seed=11)
    assert not result.failed
    assert list(result.accuracies) == train_each_fold_alone(g, cell, folds, base, 11)


def hot_node_cell(second_hot: float):
    """Four folds of a features-only cell on a graph whose node 8 has a
    first feature of 1e150 and node 9 one of ``second_hot``.  Each fold
    trains on the nodes it does not test: folds 2 and 3 train on node 8
    and overflow within a few epochs, fold 1 trains on node 9 and fold 0
    on neither."""
    n = 10
    x = np.random.default_rng(4).random((n, 2))
    x[8, 0] = 1e150
    x[9, 0] = second_hot
    g = SocialGraph(n=n, edges=frozenset({(0, 1), (2, 3)}), features=x,
                    sdna_of=np.arange(n) % 2)
    folds = np.zeros((4, n), dtype=bool)
    for fold, tested in enumerate([[6, 7, 8, 9], [6, 7, 8], [5, 6, 7, 9], [0, 6, 7, 9]]):
        folds[fold, tested] = True
    base = GcnConfig(num_classes=2, layer_units=(4,), epochs=8, learning_rate=1e100,
                     dropout_p=0.5)
    return g, folds, base


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_only_later_folds_diverge():
    g, folds, base = hot_node_cell(second_hot=0.5)
    expected = train_each_fold_alone(g, "F", folds, base, 3)
    assert expected.startswith("fold 2: non-finite loss at epoch ")
    # fold 3 diverges in the same epoch; the lower index is the one reported
    result = run_cell(g, "F", folds, base=base, plan_seed=3)
    assert result.failed and result.error == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fold_diverging_first_is_reported():
    # fold 2 diverges first and is reported, although fold 1, trained alone,
    # diverges epochs later and is the lower index: training stops at the
    # first epoch any fold goes non-finite
    g, folds, base = hot_node_cell(second_hot=1e120)
    alone = train_folds_alone(g, "F", folds, base, 3)
    assert isinstance(alone[1], TrainingDiverged) and isinstance(alone[2], TrainingDiverged)
    assert alone[2].epoch < alone[1].epoch
    expected = train_each_fold_alone(g, "F", folds, base, 3)
    assert expected == f"fold 2: {alone[2]}"
    result = run_cell(g, "F", folds, base=base, plan_seed=3)
    assert result.failed and result.error == expected


def test_plan_json_round_trip(tmp_path):
    plan = tiny_plan()
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    assert ExperimentPlan.load(path) == plan


def test_plan_rejects_fewer_classes_than_labels():
    with pytest.raises(ValueError, match=r"gcn.num_classes \(2\) is below sim.y \(4\)"):
        tiny_plan(gcn=GcnConfig(num_classes=2))
    assert tiny_plan(gcn=GcnConfig(num_classes=5)).gcn.num_classes == 5


def test_plan_validation():
    with pytest.raises(ValueError):
        tiny_plan(cells=("FTvanilla", "FTvanilla"))
    with pytest.raises(ValueError):
        tiny_plan(folds=1)
    with pytest.raises(ValueError):
        tiny_plan(cells=("NOPE",))


@pytest.mark.parametrize("field, value, message", [
    ("networks", 0, "networks must be >= 1"),
    ("snapshots", -1, "snapshots must be >= 1"),
    ("workers", -3, "workers must be >= 0"),
    ("folds", 2.5, "folds must be an integer, got 2.5"),
    ("networks", 1.5, "networks must be an integer, got 1.5"),
    ("snapshots", 2.0, "snapshots must be an integer, got 2.0"),
    ("workers", 1.5, "workers must be an integer, got 1.5"),
    ("cells", "FTvanilla", "cells must be a list of cell names"),
    ("cells", (), "cells must name at least one cell"),
    # each cell's name sets these two, so a plan's own value would go unread
    ("gcn", GcnConfig(num_classes=4, variant="t"), "gcn.variant is set by each cell's name"),
    ("gcn", GcnConfig(num_classes=4, use_s=True), "gcn.use_s is set by each cell's name"),
])
def test_plan_rejects_bad_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        tiny_plan(**{field: value})
    d = tiny_plan().to_dict() | {field: value.to_dict() if field == "gcn" else value}
    with pytest.raises(ValueError, match=message):
        ExperimentPlan.from_dict(d)


@pytest.mark.parametrize("n", [20, 22])
def test_plan_rejects_more_folds_than_the_smallest_class(n):
    # y = 4 labels: n = 20 gives four classes of 5, n = 22 gives 6, 6, 5, 5
    sim = replace(tiny_plan().sim, n=n)
    plan = tiny_plan(sim=sim, folds=5)
    (graph, _), = iter_snapshots(sim, 1)
    assert len(make_folds(graph.sdna_of, plan.folds, seed=0)) == 5
    with pytest.raises(ValueError, match=r"folds \(6\) exceed sim.n // sim.y"):
        tiny_plan(sim=sim, folds=6)
    with pytest.raises(ValueError, match=r"folds \(10\) exceed sim.n // sim.y"):
        ExperimentPlan.from_dict(plan.to_dict() | {"folds": 10})


def test_plan_accepts_zero_workers():
    assert tiny_plan(workers=0).workers == 0
    assert ExperimentPlan.from_dict(tiny_plan(workers=0).to_dict()).workers == 0


def test_default_plan_uses_every_core(monkeypatch):
    assert ExperimentPlan().workers == 0
    assert tiny_plan().workers == 0
    sizes = []

    class SizedPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SizedPool)
    plan = tiny_plan(cells=("F",), snapshots=2, gcn=replace(tiny_plan().gcn, epochs=2))
    run_experiment(plan)
    workers = min(len(os.sched_getaffinity(0)), 2)  # one per core, at most one per task
    assert sizes == ([workers] if workers > 1 else [])


@pytest.mark.parametrize("section, key", [(None, "fold"), ("sim", "nodes"), ("gcn", "lr")])
def test_plan_from_dict_names_unknown_key(section, key):
    d = tiny_plan().to_dict()
    (d if section is None else d[section])[key] = 1
    with pytest.raises(ValueError, match=f"bad experiment plan: .*'{key}'"):
        ExperimentPlan.from_dict(d)
