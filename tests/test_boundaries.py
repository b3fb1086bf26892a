"""Boundary fuzzing: every file and config socsim reads either loads or
raises ValueError, never a deeper exception.

Binary files (``SOCG`` representatives, ``SOCM`` checkpoints) and graph
directories get corrupted bytes, not only cuts; config dicts and report
documents get fields of the wrong JSON type, unknown keys and missing keys.
"""

import copy
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socsim.gcn import GcnConfig, init_model, load_model, save_model
from socsim.graph import SocialGraph, load_graph_dir, save_graph_dir
from socsim.harness import (
    CellResult,
    ExperimentPlan,
    ExperimentReport,
    SnapshotReport,
    desk_plan,
    emit_report,
    load_report,
)
from socsim.sdna import SimConfig
from socsim.similarity import (
    SimilaritySpec,
    build_representative,
    load_representative_matrix,
    save_representative,
)

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)


def loads_or_value_error(load, *args):
    """Run ``load``; any exception but ValueError fails the test."""
    try:
        return load(*args)
    except ValueError:
        return None


@st.composite
def corruptions(draw, blob: bytes) -> bytes:
    """``blob`` with a few bytes overwritten, and maybe cut or extended."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    tail = draw(st.sampled_from(["keep", "cut", "extend"]))
    if tail == "cut":
        del data[draw(st.integers(0, len(data))):]
    elif tail == "extend":
        data += draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


def small_graph() -> SocialGraph:
    rng = np.random.default_rng(0)
    return SocialGraph(n=5, edges=[(0, 1), (1, 2), (2, 4), (3, 4)],
                       features=rng.random((5, 3)), sdna_of=np.array([0, 1, 0, 1, 1]))


def saved_representative() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "G.bin"
        save_representative(build_representative(small_graph(), SimilaritySpec(kind="katz")),
                            path)
        return path.read_bytes()


def saved_checkpoint(cfg: GcnConfig) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(init_model(cfg, 5, 3), path)
        return path.read_bytes()


def saved_graph_dir() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        save_graph_dir(small_graph(), tmp)
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


def saved_report() -> dict:
    plan = desk_plan(networks=1, snapshots=1)
    cells = {"FTvanilla": CellResult((0.5, 0.7), 0.6, 0.1),
             "F": CellResult((), None, None, failed=True, error="boom")}
    report = ExperimentReport(plan=plan.to_dict(), snapshots=(
        SnapshotReport("0-0", cells, best_cell="FTvanilla", hypothesis=None),))
    with tempfile.TemporaryDirectory() as tmp:
        return json.loads(emit_report(report, tmp)["report"].read_text())


def load_report_document(document, tmp: str):
    """``load_report`` of ``document`` written to a file under ``tmp``."""
    path = Path(tmp) / "report.json"
    path.write_text(json.dumps(document))
    return load_report(path)


REPRESENTATIVE = saved_representative()
CHECKPOINTS = [saved_checkpoint(GcnConfig(variant=variant, use_s=use_s,
                                          layer_units=(3, 2), num_classes=2))
               for variant, use_s in (("ftvanilla", True), ("t", False), ("tlr", False))]
GRAPH_DIR = saved_graph_dir()
REPORT = saved_report()


@given(st.data())
@FUZZ
def test_corrupted_representative_loads_or_raises_value_error(data):
    blob = data.draw(corruptions(REPRESENTATIVE))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "G.bin"
        path.write_bytes(blob)
        matrix = loads_or_value_error(load_representative_matrix, path)
    if matrix is not None:
        assert matrix.shape == (5, 5)
        assert np.all(np.isfinite(matrix)) and np.all(matrix >= 0)
        assert np.allclose(matrix, matrix.T, rtol=1e-12, atol=1e-15)


def test_representative_with_a_corrupted_entry_rejected(tmp_path):
    # the top byte of entry [0, 1] set to 0xff makes it -7.0e307, while
    # [1, 0] stays 0.39; the file's magic and length are still right
    data = bytearray(REPRESENTATIVE)
    data[8 + 8 * 1 + 7] = 0xFF
    path = tmp_path / "G.bin"
    path.write_bytes(bytes(data))
    entry = np.frombuffer(bytes(data), dtype="<f8", offset=8).reshape(5, 5)[0, 1]
    assert entry == pytest.approx(-7.0e307, rel=0.01)
    with pytest.raises(ValueError, match="G.bin: representative has non-finite or negative entries"):
        load_representative_matrix(path)


@given(st.data(), st.sampled_from(CHECKPOINTS))
@FUZZ
def test_corrupted_checkpoint_loads_or_raises_value_error(data, checkpoint):
    blob = data.draw(corruptions(checkpoint))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        path.write_bytes(blob)
        model = loads_or_value_error(load_model, path)
    if model is not None:
        assert set(model.params) == set(model.adam_m) == set(model.adam_v)


@given(st.data(), st.sampled_from(sorted(GRAPH_DIR)))
@FUZZ
def test_corrupted_graph_dir_loads_or_raises_value_error(data, name):
    blob = data.draw(corruptions(GRAPH_DIR[name]))
    with tempfile.TemporaryDirectory() as tmp:
        for file, content in GRAPH_DIR.items():
            (Path(tmp) / file).write_bytes(blob if file == name else content)
        graph = loads_or_value_error(load_graph_dir, tmp)
    if graph is not None:
        assert graph.features.shape[0] == graph.n == graph.sdna_of.size


@st.composite
def fuzzed(draw, valid: dict) -> dict:
    """``valid`` with some fields replaced by arbitrary JSON values, some
    dropped and maybe one unknown key added."""
    out = dict(valid)
    for key in draw(st.lists(st.sampled_from(sorted(valid)), max_size=3, unique=True)):
        if draw(st.booleans()):
            out[key] = draw(json_values)
        else:
            del out[key]
    if draw(st.integers(0, 9)) == 0:
        out[draw(st.text(min_size=1, max_size=5))] = draw(json_values)
    return out


def round_trip_json(d: dict) -> dict:
    return json.loads(json.dumps(d))


@given(st.data())
@FUZZ
def test_fuzzed_sim_config_loads_or_raises_value_error(data):
    d = data.draw(fuzzed(json.loads(SimConfig().to_json())))
    cfg = loads_or_value_error(SimConfig.from_json, json.dumps(d))
    if cfg is not None:
        assert SimConfig.from_json(cfg.to_json()) == cfg


@given(st.data())
@FUZZ
def test_fuzzed_gcn_config_loads_or_raises_value_error(data):
    d = data.draw(fuzzed(round_trip_json(GcnConfig().to_dict())))
    cfg = loads_or_value_error(GcnConfig.from_dict, d)
    if cfg is not None:
        assert GcnConfig.from_dict(cfg.to_dict()) == cfg


@given(st.data(), st.sampled_from([None, "sim", "gcn"]))
@FUZZ
def test_fuzzed_experiment_plan_loads_or_raises_value_error(data, section):
    d = round_trip_json(desk_plan(networks=1, snapshots=1).to_dict())
    if section is None:
        d = data.draw(fuzzed(d))
    else:
        d[section] = data.draw(fuzzed(d[section]))
    plan = loads_or_value_error(ExperimentPlan.from_dict, d)
    if plan is not None:
        assert ExperimentPlan.from_dict(round_trip_json(plan.to_dict())) == plan


@given(json_values)
@FUZZ
def test_any_json_document_as_a_plan_loads_or_raises_value_error(document):
    loads_or_value_error(ExperimentPlan.from_dict, document)
    loads_or_value_error(GcnConfig.from_dict, document)
    loads_or_value_error(SimConfig.from_json, json.dumps(document))
    with tempfile.TemporaryDirectory() as tmp:
        loads_or_value_error(load_report_document, document, tmp)


@given(st.data(), st.sampled_from([None, "plan", "snapshot", "cell"]))
@FUZZ
def test_fuzzed_report_loads_or_raises_value_error(data, section):
    d = copy.deepcopy(REPORT)
    snap = d["snapshots"][0]
    if section is None:
        d = data.draw(fuzzed(d))
    elif section == "plan":
        d["plan"] = data.draw(fuzzed(d["plan"]))
    elif section == "snapshot":
        d["snapshots"][0] = data.draw(fuzzed(snap))
    else:
        snap["cells"]["FTvanilla"] = data.draw(fuzzed(snap["cells"]["FTvanilla"]))
    with tempfile.TemporaryDirectory() as tmp:
        report = loads_or_value_error(load_report_document, d, tmp)
        if report is not None:  # what loads can be re-emitted, and loads back
            load_report(emit_report(report, Path(tmp) / "out")["report"])


def test_saved_report_loads():
    with tempfile.TemporaryDirectory() as tmp:
        report = load_report_document(REPORT, tmp)
    assert [snap.name for snap in report.snapshots] == ["0-0"]
    assert report.snapshots[0].cells["FTvanilla"] == CellResult((0.5, 0.7), 0.6, 0.1)


@pytest.mark.parametrize("text, cause", [
    ("[1, 2]", "TypeError"),
    ('{"plan": {}}', "KeyError: 'snapshots'"),
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": "", "hypothesis": null}]}',
     "KeyError: 'cells'"),
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": "", "hypothesis": null, '
     '"cells": {"F": {"accuracies": []}}}]}', "TypeError: .*'mean'"),
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": "", "hypothesis": null, '
     '"cells": {"F": {"accuracies": [], "mean": "0.5", "std": 0.1}}}]}',
     "ValueError: mean and std must be numbers or null"),
    ('{"plan": {"folds": 1}, "snapshots": []}', "ValueError: bad experiment plan"),
    ('{"plan": {', "JSONDecodeError"),
])
def test_malformed_report_raises_value_error_naming_the_path(tmp_path, text, cause):
    path = tmp_path / "report.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: not a socsim report: {cause}"):
        load_report(path)


@pytest.mark.parametrize("build, message", [
    (lambda: SimConfig(r="0.5"), "r must be a finite number, got '0.5'"),
    (lambda: SimConfig(p=float("nan")), "p must be a finite number"),
    (lambda: SimConfig(q=2.5), "q must be an integer, got 2.5"),
    (lambda: SimConfig(c=None), "c must be a list of finite numbers, got None"),
    (lambda: SimConfig(mutate_preference=1), "mutate_preference must be true or false"),
    (lambda: SimConfig.from_json("[1, 2]"), "must be a JSON object"),
    (lambda: GcnConfig(variant=None), "unknown variant None"),
    (lambda: GcnConfig(use_s="yes"), "use_s must be true or false, got 'yes'"),
    (lambda: GcnConfig(layer_units=[32, 1.5]), "layer_units must be a list of integers"),
    (lambda: GcnConfig(num_classes=None), "num_classes must be an integer, got None"),
    (lambda: GcnConfig(dropout_p="0.5"), "dropout_p must be a number, got '0.5'"),
    (lambda: GcnConfig.from_dict({"lr": 1}), "bad model config: .*'lr'"),
    (lambda: ExperimentPlan.from_dict([]), "an experiment plan must be a JSON object"),
    (lambda: ExperimentPlan.from_dict({"cells": [1]}), "cells must be a list of cell names"),
    (lambda: ExperimentPlan.from_dict({"seed": "7"}), "seed must be an integer, got '7'"),
    (lambda: ExperimentPlan.from_dict({"gcn": {"variant": 3}}),
     "bad experiment plan: unknown variant 3"),
])
def test_bad_config_field_types_raise_named_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()
