import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socsim import harness
from socsim.cli import main
from socsim.gcn import GcnConfig
from socsim.graph import load_graph_dir
from socsim.harness import ExperimentPlan
from socsim.sdna import SimConfig
from socsim.similarity import load_representative_matrix


@pytest.fixture
def sim_config_file(tmp_path):
    cfg = SimConfig(n=20, f=3, y=4, q=2, p=0.8, t=0.1, r=0.25, c=(1.0,),
                    z=0.2, seed=11)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    return path


def test_simulate_writes_snapshot_dirs(tmp_path, sim_config_file, capsys):
    out = tmp_path / "data"
    rc = main(["simulate", "--config", str(sim_config_file), "--out", str(out),
               "--snapshots", "2"])
    assert rc == 0
    for idx in range(2):
        snap = out / f"snap-{idx:03d}"
        for name in ("edges.tsv", "features.csv", "labels.csv", "sdna.json", "meta.json"):
            assert (snap / name).exists()
        g = load_graph_dir(snap)
        assert g.n == 20
        sdna = json.loads((snap / "sdna.json").read_text())
        assert len(sdna["sdnas"]) == 4
        meta = json.loads((snap / "meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["config"]["n"] == 20
    # edge sets nested across snapshots
    g0 = load_graph_dir(out / "snap-000")
    g1 = load_graph_dir(out / "snap-001")
    assert np.all(g1.adjacency[g0.edges[:, 0], g0.edges[:, 1]] == 1)


def test_events_stream_format(tmp_path, sim_config_file):
    out = tmp_path / "stream.tsv"
    rc = main(["events", "--config", str(sim_config_file), "--out", str(out),
               "--events", "4"])
    assert rc == 0
    rows = [line.split("\t") for line in out.read_text().strip().splitlines()]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
    for _, i, j in rows:
        assert 0 <= int(i) < int(j) < 20


def test_representative_command(tmp_path, sim_config_file):
    data = tmp_path / "data"
    main(["simulate", "--config", str(sim_config_file), "--out", str(data)])
    out = tmp_path / "G.bin"
    csv_out = tmp_path / "G.csv"
    rc = main([
        "representative", "--graph", str(data / "snap-000"), "--kind", "katz",
        "--beta", "0.005", "--max-power", "5", "--thresholds", "0.0", "0.5",
        "--out", str(out), "--out-csv", str(csv_out),
    ])
    assert rc == 0
    m = load_representative_matrix(out)
    assert m.shape == (20, 20)
    assert np.allclose(m, m.T)
    assert np.allclose(np.loadtxt(csv_out, delimiter=","), m)


def test_representative_auto_threshold(tmp_path, sim_config_file):
    data = tmp_path / "data"
    main(["simulate", "--config", str(sim_config_file), "--out", str(data)])
    out = tmp_path / "G.bin"
    rc = main(["representative", "--graph", str(data / "snap-000"), "--kind", "gg",
               "--thresholds", "auto", "--out", str(out)])
    assert rc == 0
    assert load_representative_matrix(out).shape == (20, 20)


def test_experiment_and_report_commands(tmp_path):
    plan = ExperimentPlan(
        sim=SimConfig(n=24, f=3, y=4, q=2, p=0.7, t=0.08, r=0.25, c=(1.0,),
                      z=0.2, seed=2),
        networks=1, snapshots=1, cells=("FTvanilla", "F"), folds=3, seed=4,
        gcn=GcnConfig(num_classes=4, layer_units=(6, 6, 6), epochs=8),
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    results = tmp_path / "results"
    rc = main(["experiment", "--plan", str(plan_path), "--out", str(results)])
    assert rc == 0
    assert (results / "report.json").exists()
    assert (results / "summary.csv").exists()
    assert (results / "best.csv").exists()

    redo = tmp_path / "redo"
    rc = main(["report", "--in", str(results / "report.json"), "--format", "csv",
               "--out", str(redo)])
    assert rc == 0
    assert (redo / "summary.csv").read_text() == (results / "summary.csv").read_text()


def test_experiment_exits_3_when_a_cell_raises(tmp_path, monkeypatch):
    train_folds = harness.train_folds

    def flaky(inputs, cfg, seeds):
        if cfg.variant == "f":
            raise ValueError("injected fault")
        return train_folds(inputs, cfg, seeds)

    monkeypatch.setattr(harness, "train_folds", flaky)
    plan = ExperimentPlan(
        sim=SimConfig(n=24, f=3, y=4, q=2, p=0.7, t=0.08, r=0.25, c=(1.0,),
                      z=0.2, seed=2),
        networks=1, snapshots=1, cells=("FTvanilla", "F"), folds=3, seed=4,
        gcn=GcnConfig(num_classes=4, layer_units=(6, 6, 6), epochs=4),
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan.to_dict()))
    results = tmp_path / "results"
    assert main(["experiment", "--plan", str(plan_path), "--out", str(results)]) == 3
    cells = json.loads((results / "report.json").read_text())["snapshots"][0]["cells"]
    assert cells["F"]["failed"] and cells["F"]["error"] == "ValueError: injected fault"
    assert not cells["FTvanilla"]["failed"]


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, cwd):
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "socsim.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, message", [
    pytest.param(["report", "--in", "bad.json"], "bad.json", id="report-not-an-object"),
    pytest.param(["simulate", "--config", "cfg.json", "--out", "sim", "--snapshots", "0"],
                 "snapshots must be >= 1", id="simulate-no-snapshots"),
    pytest.param(["experiment", "--plan", "missing.json", "--out", "results"], "missing.json",
                 id="experiment-missing-plan"),
    pytest.param(["representative", "--graph", "data/snap-000", "--thresholds", "a", "b",
                  "--out", "G.bin"], "--thresholds takes LO HI", id="representative-bad-thresholds"),
    pytest.param(["representative", "--graph", "data/snap-000", "--kind", "katz", "--beta", "inf",
                  "--out", "G.bin"], "katz_beta must be > 0 and finite", id="katz-beta-inf"),
    pytest.param(["representative", "--graph", "data/snap-000", "--kind", "katz", "--beta", "1e62",
                  "--out", "G.bin"], "katz_beta=1e+62", id="katz-power-overflows"),
    pytest.param(["representative", "--graph", "data/snap-000", "--kind", "katz", "--beta", "1e60",
                  "--out", "G.bin"], "katz_beta=1e+60", id="katz-row-norms-overflow"),
])
def test_bad_input_exits_1_with_one_error_line(tmp_path, sim_config_file, argv, message):
    (tmp_path / "bad.json").write_text("[1,2]")
    main(["simulate", "--config", str(sim_config_file), "--out", str(tmp_path / "data")])
    files = sorted(tmp_path.rglob("*"))
    done = run_cli(*argv, cwd=tmp_path)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("socsim: error: ") and message in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == files  # a rejected command writes nothing


@pytest.mark.parametrize("row, message", [
    ("3\t3", "self-loop on node 3"),
    ("3\t9000", "edge (3,9000) out of range for n=20"),
])
def test_bad_edge_row_names_edges_tsv(tmp_path, sim_config_file, capsys, row, message):
    data = tmp_path / "data"
    main(["simulate", "--config", str(sim_config_file), "--out", str(data)])
    edges = data / "snap-000" / "edges.tsv"
    edges.write_text(edges.read_text() + row + "\n")
    capsys.readouterr()
    assert main(["representative", "--graph", str(data / "snap-000"),
                 "--out", str(tmp_path / "G.bin")]) == 1
    err = capsys.readouterr().err
    assert err == f"socsim: error: {edges}: {message}\n"
    assert not (tmp_path / "G.bin").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "sim", "--snapshots", "3"],
    ["events", "--out", "stream.tsv", "--events", "20"],
])
def test_overflowing_score_weights_exit_1_with_one_error_line(tmp_path, capsys, argv):
    # r and c pass SimConfig as finite numbers, but their products with
    # degrees and walk weights overflow float64 once the graph has edges
    cfg = tmp_path / "cfg.json"
    cfg.write_text(SimConfig(n=20, f=3, y=4, q=2, p=0.8, t=0.1, r=1e308, c=(1e308,),
                             seed=11).to_json())
    with contextlib.chdir(tmp_path):
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("socsim: error: pair scores overflow float64: r=1e+308 and c=[1e+308]")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_usage_error_exits_2(tmp_path):
    done = run_cli("report", "--in", "r.json", "--format", "xml", cwd=tmp_path)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "invalid choice: 'xml'" in done.stderr


@pytest.mark.parametrize("argv, message", [
    pytest.param(["simulate", "--config", "{cfg}", "--out", ""],
                 "argument --out: an empty path names no file", id="simulate-empty-out"),
    pytest.param(["experiment", "--plan", "{plan}", "--out", ""],
                 "argument --out: an empty path names no file", id="experiment-empty-out"),
    pytest.param(["representative", "--graph", "{snap}", "--out", "G.bin", "--out-csv", "./G.bin"],
                 "argument --out-csv: names the same file as --out", id="representative-same-out"),
])
def test_unusable_output_path_is_a_usage_error(tmp_path, sim_config_file, capsys, argv, message):
    # an empty path would be the working directory, and a CSV written over
    # the SOCG file would leave no representative to load
    main(["simulate", "--config", str(sim_config_file), "--out", str(tmp_path / "data")])
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(ExperimentPlan(
        sim=SimConfig.load(sim_config_file), networks=1, snapshots=1, cells=("F",), folds=2,
        gcn=GcnConfig(num_classes=4, layer_units=(4,), epochs=2), workers=1).to_dict()))
    paths = {"cfg": sim_config_file, "plan": plan, "snap": tmp_path / "data" / "snap-000"}
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    with contextlib.chdir(run_dir), pytest.raises(SystemExit) as exit_:
        main([token.format(**paths) for token in argv])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert list(run_dir.iterdir()) == []


@pytest.mark.parametrize("argv, option", [
    (["events", "--config", "cfg.json", "--out", "x.tsv", "--events=--"], "--events"),
    (["representative", "--graph", "snap", "--kind=--", "--out", "G.bin"], "--kind"),
    (["simulate", "--config=--", "--out", "sim"], "--config"),
])
def test_option_valued_double_dash_is_a_usage_error(capsys, argv, option):
    # argparse reads --opt=-- as an empty list, past the option's type and
    # choices; it used to reach the command as a list and raise TypeError
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"argument {option}: expected one argument" in capsys.readouterr().err
