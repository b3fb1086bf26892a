"""Smoke test of the benchmark at a tiny size (n=40, 2 folds, 5 epochs).

    python3 -m pytest -q perfbench/smoke.py

It checks that every metric BENCHMARK.json declares is emitted with its
unit, that the output checks trip on corrupted outputs, and that the tracer
leaves every ``socsim`` attribute as it found it.
"""

from __future__ import annotations

import copy
import json
import struct
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.pin_environment()

import tracing  # noqa: E402
import workloads  # noqa: E402
from socsim.graph import SocialGraph  # noqa: E402

TINY = workloads.SCALES["tiny"]
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = run.run(workload, seed=5, seconds=0.1, trace=trace, scale="tiny",
                     log=lambda line: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["trace.coverage"] >= 0.95
        # gcn.train is reached through harness's by-name import
        assert values["gcn.train.calls"] == values["harness.fold_fits"]
        assert (values["gcn.train.calls"] == 0) == (workload == "sim_build")


def _report(out: Path) -> tuple[Path, dict]:
    path = out / "report.json"
    return path, json.loads(path.read_text())


def accuracy_out_of_range(out: Path) -> None:
    path, report = _report(out)
    report["snapshots"][0]["cells"]["FTvanilla"]["accuracies"][0] = 1.5
    path.write_text(json.dumps(report))


def cell_missing(out: Path) -> None:
    path, report = _report(out)
    del report["snapshots"][-1]["cells"]["TLR"]
    path.write_text(json.dumps(report))


def representative_asymmetric(out: Path) -> None:
    path = out / "reps" / "01.bin"
    blob = bytearray(path.read_bytes())
    blob[8 + 8:8 + 16] = struct.pack("<d", 123.0)  # entry [0, 1] only
    path.write_bytes(bytes(blob))


def representative_truncated(out: Path) -> None:
    path = out / "reps" / "00.bin"
    path.write_bytes(path.read_bytes()[:-8])


def snapshot_file_missing(out: Path) -> None:
    (out / "sim" / "snap-001" / "meta.json").unlink()


def event_repeated(out: Path) -> None:
    path = out / "events.tsv"
    rows = path.read_text().splitlines()
    rows[1] = "\t".join([rows[1].split("\t")[0], *rows[0].split("\t")[1:]])
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("workload,corrupt", [
    ("desk_grid", accuracy_out_of_range),
    ("wide_pool", cell_missing),
    ("sim_build", representative_asymmetric),
    ("sim_build", representative_truncated),
    ("sim_build", snapshot_file_missing),
    ("sim_build", event_repeated),
])
def test_checks_trip_on_corrupted_output(tmp_path, workload, corrupt):
    w = workloads.WORKLOADS[workload](TINY)
    w.prepare(tmp_path, seed=5)
    result = w.execute(tmp_path, 0, "smoke")
    clean = copy.deepcopy(result)
    w.check(tmp_path, 0, "smoke", clean)
    assert clean.failed == 0 and not clean.failures

    corrupt(tmp_path / "out-smoke-00")
    tripped = copy.deepcopy(result)
    w.check(tmp_path, 0, "smoke", tripped)
    assert tripped.failed >= 1 and tripped.failures


def _attributes() -> dict:
    attrs = {(m.__name__, k): v for m in tracing.socsim_modules() for k, v in vars(m).items()}
    attrs.update({("SocialGraph", k): v for k, v in vars(SocialGraph).items()})
    return attrs


def test_tracer_restores_every_socsim_attribute(tmp_path):
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = _attributes()
        w = workloads.WORKLOADS["desk_grid"](TINY)
        w.prepare(tmp_path, seed=5)
        w.execute(tmp_path, 0, "smoke")
    finally:
        tracer.uninstall()
    assert patched["socsim.harness", "train"] is not before["socsim.harness", "train"]
    assert patched["SocialGraph", "with_edges"] is not before["SocialGraph", "with_edges"]
    assert tracer.spans
    with tracing.counting_pools({}):
        assert _attributes()["socsim.harness", "ProcessPoolExecutor"] is not \
            before["socsim.harness", "ProcessPoolExecutor"]
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
