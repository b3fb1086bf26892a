"""The README's library example and the scripts under tools/ run as written.

Nothing else imports them, so a rename in ``socsim`` would otherwise break
them silently.
"""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from socsim.gcn import LONE_ROWS_TO_PAY, _ROW_RULE_KERNELS

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_surface_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library surface", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    edges = [int(line.split()[1]) for line in lines[:3]]
    assert [line.split()[0] for line in lines[:3]] == ["0", "1", "2"]
    assert 0 < edges[0] < edges[1] < edges[2]
    mean, std = map(float, lines[3].split())
    assert 0.0 <= mean <= 1.0 and std >= 0.0


def test_readme_api_names_resolve():
    # every backticked `socsim.<name>` the README cites is a module or an
    # attribute of one, so a removed or renamed name cannot outlive its docs
    names = set(re.findall(r"`(socsim(?:\.\w+)+)`", (ROOT / "README.md").read_text()))
    assert names
    for name in sorted(names):
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
                break
            except ModuleNotFoundError:
                continue
        for attr in parts[cut:]:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


def tool_env():
    return os.environ | {"PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}


def assert_one_machine_block(report):
    # every tool records socsim._openblas.machine_facts() once, as "machine"
    assert list(report["machine"]) == ["nproc", "python", "numpy", "blas", "blas_threads",
                                       "blas_core"]
    assert not {"nproc", "python", "numpy", "blas", "blas_threads", "blas_core"} & set(report)
    assert report["machine"]["blas_threads"] == 1


def test_cell_faults_tool_prints_one_json_object():
    env = tool_env()
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cell_faults.py"), "--cells", "F", "--repeat", "1"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout
    report = json.loads(out)
    assert report["folds"] == 10 and report["seed"] == 2026
    assert_one_machine_block(report)
    (run,) = report["cells"]["F"]
    assert run["error"] == ""
    assert 0.0 <= run["mean_acc"] <= 1.0
    assert run["minor_faults"] >= 0 and run["wall_s"] > 0


def test_graph_kernel_bench_tool_finds_every_kernel_identical(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_graph_kernels.py"), "--repeat", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=tool_env(), timeout=300, check=True,
    )
    report = json.loads(out.read_text())
    assert_one_machine_block(report)
    assert [len(report["sets"][name]["graphs"]) for name in ("sim_build", "desk", "dense")] == [6, 9, 3]
    for group in report["sets"].values():
        for row in group["graphs"]:
            for kernel in ("walk_bit_rows", "shortest_path_matrix", "katz_matrix", "round_head"):
                assert row[kernel]["identical"], (row["edges"], kernel)
                assert row[kernel]["before_ms"] > 0 and row[kernel]["after_ms"] > 0


def test_gcn_digest_tool_digests_every_config_of_its_grid():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gcn_digest.py"), "--epochs", "2"],
        capture_output=True, text=True, env=tool_env(), timeout=300, check=True,
    ).stdout
    report = json.loads(out)
    assert_one_machine_block(report)
    assert (report["n"], report["folds"], report["epochs"]) == (60, 3, 2)
    assert report["configs"] == len(report["digests"]) == 192
    combined = hashlib.sha256()
    for key, digest in report["digests"].items():
        assert re.fullmatch(r"[0-9a-f]{64}", digest["params"])
        assert re.fullmatch(r"[0-9a-f]{64}", digest["probs"])
        combined.update(json.dumps([key, digest]).encode())
    assert report["combined"] == combined.hexdigest()
    # variant f ignores G: its adjacency and Katz runs train the same bits
    f = [key for key in report["digests"] if key.startswith("f ") and key.endswith("G=adjacency")]
    assert len(f) == 16
    for key in f:
        assert report["digests"][key] == report["digests"][key.replace("adjacency", "katz")]


def test_paired_timing_alternates_the_forms_and_takes_ratios_per_round():
    spec = importlib.util.spec_from_file_location("paired_timing",
                                                  ROOT / "tools" / "paired_timing.py")
    paired_timing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paired_timing)
    calls = []
    forms = {name: (lambda name=name: calls.append(name)) for name in ("a", "b", "c")}
    times = paired_timing.paired_ms(forms, repeat=4)
    # each round calls every form once, starting one form later each round
    assert calls == list("abc" "bca" "cab" "abc")
    assert list(times) == ["a", "b", "c"] and list(times["a"]) == ["ms"]
    for name in ("b", "c"):
        low, high = times[name]["vs_first_iqr"]
        assert times[name]["ms"] >= 0 and low <= high


def test_g_products_tool_times_both_forms_on_each_side_of_the_rule(tmp_path):
    out = tmp_path / "times.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_g_products.py"), "--n", "500", "501",
         "--folds", "3", "--width", "1", "4", "--repeat", "2", "--out", str(out)],
        capture_output=True, text=True, env=tool_env(), timeout=300, check=True,
    )
    report = json.loads(out.read_text())
    assert_one_machine_block(report)
    rows = report["products"]
    assert [(r["n"], r["width"], r["side"]) for r in rows] == [
        (n, width, side) for n in (500, 501) for width in (1, 4) for side in ("g", "g.T")]
    for row in rows:
        assert row["per_fold_ms"] > 0 and row["stacked_ms"] > 0
        # both forms are timed in one loop: a per-round ratio and its IQR
        low, high = (float(q.rstrip("%")) for q in row["stacked_vs_per_fold_iqr"])
        assert low <= high
        assert row["rule_stacks"] == ((row["n"], row["width"]) == (501, 4))
        # where the rule stacks, the stacked product gives each fold its own bits
        assert row["identical"] or not row["rule_stacks"]
    rows = report["live_rows"]
    assert [(r["n"], r["k"], r["width"], r["lone_share"], r["g"], r["side"]) for r in rows] == [
        (n, k, width, share, g, side) for n, k, width in ((200, 10, 32), (800, 3, 32), (800, 3, 4))
        for share in (0.02, 0.05, 0.1, 0.2, 0.35, 0.55, 0.7)
        for g in ("symmetric", "skewed") for side in ("g", "g.T")]
    keeps_row_rule = report["machine"]["blas_core"] in _ROW_RULE_KERNELS
    for row in rows:
        assert row["full_ms"] > 0 and row["live_ms"] > 0
        # the live-row path is taken from LONE_ROWS_TO_PAY lone rows on, on
        # kernels that keep the row rule, at a width per fold that is a
        # multiple of 32 or past M' * n * width = 10^6; where it is taken it
        # keeps the full product's bits, on both sides of either G
        n, width, live = row["n"], row["width"], row["n"] - row["lone_rows"]
        assert row["rule_takes"] == (keeps_row_rule and row["lone_rows"] >= LONE_ROWS_TO_PAY
                                     and (width % 32 == 0 or live * n * width > 10**6))
        assert row["identical"] or not row["rule_takes"]
        # at a width per fold that is a multiple of 32 the live rows skip
        # the lone columns too (the tool runs one BLAS thread, and these
        # G's live rows are zero in their lone columns), with the bits of
        # the full product; elsewhere that form is not timed
        assert (row["columns_ms"] is not None) == (width % 32 == 0)
        assert row["rule_takes_columns"] == (row["rule_takes"] and width % 32 == 0)
        if width % 32 == 0:
            assert row["columns_ms"] > 0 and len(row["columns_vs_full_iqr"]) == 2
            assert row["columns_identical"] or not row["rule_takes_columns"]
    # the output layer's 4 columns take the path at n = 800 up to a lone
    # share of about 0.61, and not at 0.7
    taken = {(r["width"], r["lone_share"]) for r in rows if r["rule_takes"]}
    assert ((4, 0.55) in taken and (4, 0.7) not in taken) == keeps_row_rule
    assert bool(taken) == keeps_row_rule


def test_epoch_bench_tool_times_every_part_of_an_epoch():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_epoch.py"), "--n", "40", "--k", "3",
         "--epochs", "2", "--repeat", "1"],
        capture_output=True, text=True, env=tool_env(), timeout=120, check=True,
    ).stdout
    report = json.loads(out)
    assert_one_machine_block(report)
    assert (report["n"], report["k"], report["epochs"]) == (40, 3, 2)
    assert list(report["cells"]) == ["FTvanilla", "SFTvanilla", "F", "T", "TLR"]
    for cell, row in report["cells"].items():
        assert row["epoch_ms"] > 0 and row["wrapped_epoch_ms"] > 0, cell
        # a fit holds at least one (k, n, 32) stack
        assert row["peak_mb"] >= 3 * 40 * 32 * 8 / 1e6, cell
        assert row["softmax_us"] > 0 and row["gate_us"] > 0 and row["gate_form"] == "bool masks"
        parts = row["parts"]
        assert list(parts) == ["keep_masks", "_propagate", "_forward", "_backward", "_losses",
                               "_adam_step"]
        for name, part in parts.items():
            assert 0 <= part["self_ms"] <= part["ms"], (cell, name)
        # F takes no G product, every other cell does
        assert (parts["_propagate"]["ms"] == 0) == (cell == "F")
        assert parts["_forward"]["ms"] >= parts["keep_masks"]["ms"]


def test_representative_bench_tool_finds_every_build_identical(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_representatives.py"), "--repeat", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=tool_env(), timeout=300, check=True,
    )
    report = json.loads(out.read_text())
    assert_one_machine_block(report)
    # the 13 distinct specs of the grid on one sim_build graph and three desk ones
    assert [len(report["sets"][name]["builds"]) for name in ("sim_build", "desk")] == [13, 39]
    for name, group in report["sets"].items():
        for row in group["builds"]:
            assert row["identical"], (name, row["graph"], row["kind"], row["thresholds"])
            assert row["before"]["ms"] > 0 and row["after"]["ms"] > 0
        assert all(kind["identical"] for kind in group["per_kind"].values())
    assert list(report["sets"]["sim_build"]["rss_growth"]) == ["adjacency", "katz", "rpr", "gg"]
