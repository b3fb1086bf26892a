import json

import numpy as np
import pytest

from socsim import harness
from socsim.gcn import GcnConfig, TrainInputs, TrainingDiverged, evaluate, train
from socsim.graph import SocialGraph
from socsim.harness import (
    CellResult,
    ExperimentPlan,
    ExperimentReport,
    check_hypothesis,
    default_model_grid,
    emit_report,
    load_report,
    make_folds,
    parse_cell,
    run_cell,
    run_experiment,
    _fold_configs,
    _worker_budget,
)
from socsim.sdna import SimConfig, simulate_snapshots
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
    assert len(folds) == 10
    for train_mask, test_mask in folds:
        assert test_mask.sum() == 100
        for cls in range(4):
            assert (labels[test_mask] == cls).sum() == 25
        assert not np.any(train_mask & test_mask)


def test_folds_partition_nodes():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=60)
    while np.min(np.bincount(labels)) < 5:
        labels = rng.integers(0, 3, size=60)
    folds = make_folds(labels, 5, seed=9)
    coverage = np.zeros(60, dtype=int)
    for _, test_mask in folds:
        coverage += test_mask
    assert np.all(coverage == 1)


def test_folds_deterministic():
    labels = np.arange(100) % 4
    a = make_folds(labels, 10, seed=4)
    b = make_folds(labels, 10, seed=4)
    for (tr1, te1), (tr2, te2) in zip(a, b):
        assert np.array_equal(te1, te2)


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
    from socsim.sdna import simulate_snapshots
    plan = tiny_plan()
    (g, _), = simulate_snapshots(plan.sim, 1)
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


def test_experiment_parallel_matches_serial(tmp_path, monkeypatch):
    plan = tiny_plan(cells=("FTvanilla", "F", "T"), snapshots=2)
    serial = run_experiment(plan)
    pools = []

    class CountedPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setenv("SOCSIM_WORKERS", "3")
    parallel = run_experiment(plan)
    monkeypatch.delenv("SOCSIM_WORKERS")
    assert len(pools) == 1  # one pool serves both snapshots
    emit_report(serial, tmp_path / "serial")
    emit_report(parallel, tmp_path / "parallel")
    assert (tmp_path / "serial/report.json").read_bytes() == (
        tmp_path / "parallel/report.json"
    ).read_bytes()


def test_experiment_shared_folds_and_hypothesis_flag():
    plan = tiny_plan()
    report = run_experiment(plan)
    for snap in report.snapshots:
        assert snap.hypothesis in (True, False)
        assert check_hypothesis(report, snap.name) == snap.hypothesis


def test_report_round_trip(tmp_path):
    plan = tiny_plan(cells=("FTvanilla", "F"), snapshots=1)
    report = run_experiment(plan)
    paths = emit_report(report, tmp_path)
    back = load_report(paths["report"])
    assert back == report


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
    # every T cell raises inside training; the other cells train as usual
    train_folds = harness.train_folds

    def flaky(inputs, cfgs):
        if cfgs[0].variant == "t":
            raise RuntimeError("injected fault")
        return train_folds(inputs, cfgs)

    monkeypatch.setattr(harness, "train_folds", flaky)
    report = run_experiment(tiny_plan())
    assert report.any_failed
    for snap in report.snapshots:
        failed = snap.cells["T"]
        assert failed.failed and failed.error == "RuntimeError: injected fault"
        assert failed.accuracies == () and failed.mean is None
        for cell in ("FTvanilla", "F", "TLR"):
            assert not snap.cells[cell].failed
            assert len(snap.cells[cell].accuracies) == 5
        assert snap.hypothesis is None and snap.best_cell != "T"


# --- fold batching ----------------------------------------------------------------

def train_each_fold_alone(graph, cell, fold_masks, base, plan_seed):
    """Reference for run_cell: train() then evaluate() on each fold in turn,
    stopping at the first divergence as the harness reports it."""
    cell_cfg, spec = parse_cell(cell, base)
    rep = build_representative(graph, spec)
    accs = []
    cfgs = _fold_configs(cell_cfg, cell, plan_seed, 0, 0, len(fold_masks))
    for fold, ((train_mask, test_mask), cfg) in enumerate(zip(fold_masks, cfgs)):
        inputs = TrainInputs(g_matrix=rep.matrix, x=graph.features, labels=graph.sdna_of,
                             train_mask=train_mask, test_mask=test_mask)
        try:
            model, _ = train(inputs, cfg)
        except TrainingDiverged as exc:
            return f"fold {fold}: {exc}"
        accs.append(evaluate(model, inputs))
    return accs


@pytest.mark.parametrize("cell", ["FTvanilla", "SFTvanilla", "F", "SF", "T", "TLR",
                                  "FTkatz0.0-0.5"])
def test_batched_folds_match_training_each_fold_alone(cell):
    (g, _), = simulate_snapshots(tiny_plan().sim, 1)
    folds = make_folds(g.sdna_of, 4, seed=2)
    base = GcnConfig(num_classes=4, epochs=12, dropout_p=0.5)
    result = run_cell(g, cell, folds, base=base, plan_seed=11)
    assert not result.failed
    assert list(result.accuracies) == train_each_fold_alone(g, cell, folds, base, 11)


def hot_node_cell(second_hot: float):
    """Four folds of a features-only cell on a graph whose node 8 has a
    first feature of 1e150 and node 9 one of ``second_hot``.  Folds 2 and 3
    train on node 8 and overflow within a few epochs; fold 1 trains on
    node 9."""
    n = 10
    x = np.random.default_rng(4).random((n, 2))
    x[8, 0] = 1e150
    x[9, 0] = second_hot
    g = SocialGraph(n=n, edges=frozenset({(0, 1), (2, 3)}), features=x,
                    sdna_of=np.arange(n) % 2)

    def mask(rows):
        m = np.zeros(n, dtype=bool)
        m[list(rows)] = True
        return m

    folds = [(mask(range(6)), mask([6, 7, 8])),
             (mask([0, 1, 2, 3, 4, 5, 9]), mask([6, 7])),
             (mask([0, 1, 2, 3, 4, 8]), mask([5, 6])),
             (mask([1, 2, 3, 4, 5, 8]), mask([0, 7]))]
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
def test_earlier_fold_diverging_later_is_reported():
    # fold 2 diverges first; fold 1 keeps training and diverges epochs later,
    # so training the folds in order reports fold 1
    g, folds, base = hot_node_cell(second_hot=1e120)
    expected = train_each_fold_alone(g, "F", folds, base, 3)
    assert expected.startswith("fold 1: ")
    result = run_cell(g, "F", folds, base=base, plan_seed=3)
    assert result.failed and result.error == expected


@pytest.mark.parametrize("value", ["two", "0", "-3", "1.5"])
def test_worker_budget_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("SOCSIM_WORKERS", value)
    with pytest.raises(ValueError, match=f"SOCSIM_WORKERS.*{value}"):
        _worker_budget(tiny_plan())


def test_worker_budget_reads_env(monkeypatch):
    monkeypatch.setenv("SOCSIM_WORKERS", "3")
    assert _worker_budget(tiny_plan()) == 3
    monkeypatch.delenv("SOCSIM_WORKERS")
    assert _worker_budget(tiny_plan(workers=2)) == 2


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


@pytest.mark.parametrize("section, key", [(None, "fold"), ("sim", "nodes"), ("gcn", "lr")])
def test_plan_from_dict_names_unknown_key(section, key):
    d = tiny_plan().to_dict()
    (d if section is None else d[section])[key] = 1
    with pytest.raises(ValueError, match=f"bad experiment plan: .*'{key}'"):
        ExperimentPlan.from_dict(d)
