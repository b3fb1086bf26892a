"""Boundary fuzzing: every file and config socsim reads either loads or
raises ValueError, never a deeper exception, and the command line ends
with one of its documented exit codes.

``SOCG`` representative files and graph directories get corrupted bytes,
not only cuts; config dicts and report documents get fields of the wrong
JSON type, unknown keys and missing keys.  ``socsim.cli.main`` runs
in-process on fuzzed argv for every subcommand and on corrupted bytes of
each file a subcommand reads.
"""

import contextlib
import copy
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from socsim import cli
from socsim.gcn import GcnConfig
from socsim.graph import SocialGraph, load_graph_dir, save_graph_dir
from socsim.harness import (
    CellResult,
    ExperimentPlan,
    ExperimentReport,
    SnapshotReport,
    desk_plan,
    emit_report,
    load_report,
    make_folds,
)
from socsim.sdna import SimConfig, emit_event_stream, iter_snapshots
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


@pytest.mark.parametrize("features, cause", [
    ("0.1,a\n", "could not convert string 'a' to float64 at row 0, column 2"),
    ("0.1,0.2\n0.5\n", "the number of columns changed from 2 to 1 at row 2"),
])
def test_unparseable_features_csv_error_names_the_file(tmp_path, features, cause):
    for file, content in GRAPH_DIR.items():
        (tmp_path / file).write_bytes(content)
    (tmp_path / "features.csv").write_text(features)
    path = re.escape(str(tmp_path / "features.csv"))
    with pytest.raises(ValueError, match=f"{path}: {cause}"):
        load_graph_dir(tmp_path)


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
    cfg = loads_or_value_error(SimConfig.from_dict, round_trip_json(d))
    if cfg is not None:
        assert SimConfig.from_dict(json.loads(cfg.to_json())) == cfg


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
    loads_or_value_error(SimConfig.from_dict, round_trip_json(document))
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
    # every field of a cell and a snapshot has its JSON type checked
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": "", "hypothesis": null, '
     '"cells": {"F": {"accuracies": ["x"], "mean": null, "std": null}}}]}',
     r"ValueError: accuracies must be a list of numbers, got \['x'\]"),
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": "", "hypothesis": null, '
     '"cells": {"F": {"accuracies": [true], "mean": null, "std": null}}}]}',
     r"ValueError: accuracies must be a list of numbers, got \[True\]"),
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": "", "hypothesis": null, '
     '"cells": {"F": {"accuracies": [], "mean": true, "std": null}}}]}',
     "ValueError: mean and std must be numbers or null"),
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": "", "hypothesis": null, '
     '"cells": {"F": {"accuracies": [], "mean": null, "std": null, "failed": "no"}}}]}',
     "ValueError: failed must be true or false and error a string"),
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": "", "hypothesis": null, '
     '"cells": {"F": {"accuracies": [], "mean": null, "std": null, "error": 7}}}]}',
     "ValueError: failed must be true or false and error a string"),
    ('{"plan": {}, "snapshots": [{"name": 5, "best_cell": "", "hypothesis": null, '
     '"cells": {}}]}', "ValueError: name must be a string, got 5"),
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": null, "hypothesis": null, '
     '"cells": {}}]}', "ValueError: best_cell must be a string, got None"),
    ('{"plan": {}, "snapshots": [{"name": "0-0", "best_cell": "", "hypothesis": "maybe", '
     '"cells": {}}]}', "ValueError: hypothesis must be true, false or null, got 'maybe'"),
])
def test_malformed_report_raises_value_error_naming_the_path(tmp_path, text, cause):
    path = tmp_path / "report.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: not a socsim report: {cause}"):
        load_report(path)


@pytest.mark.parametrize("build, message", [
    (lambda: SimConfig(r="0.5"), "r must be a finite number, got '0.5'"),
    (lambda: SimConfig(f=-1), "f must be >= 0, got -1"),
    (lambda: SimConfig(n=True), "n must be an integer, got True"),
    (lambda: SimConfig(p=float("nan")), "p must be a finite number"),
    (lambda: SimConfig(p=True, r=False), "p must be a finite number, got True"),
    (lambda: SimConfig(r=False), "r must be a finite number, got False"),
    (lambda: SimConfig(c=(1.0, True)), r"c must be a list of finite numbers, got \(1.0, True\)"),
    (lambda: SimConfig(q=2.5), "q must be an integer, got 2.5"),
    (lambda: SimConfig(c=None), "c must be a list of finite numbers, got None"),
    (lambda: SimConfig(mutate_preference=1), "mutate_preference must be true or false"),
    (lambda: SimConfig.from_dict([1, 2]), "must be a JSON object"),
    (lambda: GcnConfig(variant=None), "unknown variant None"),
    (lambda: GcnConfig(use_s="yes"), "use_s must be true or false, got 'yes'"),
    (lambda: GcnConfig(layer_units=[32, 1.5]), "layer_units must be a list of integers"),
    (lambda: GcnConfig(num_classes=None), "num_classes must be an integer, got None"),
    (lambda: GcnConfig(dropout_p="0.5"), "dropout_p must be a number, got '0.5'"),
    (lambda: GcnConfig(epochs=True), "epochs must be an integer >= 0, got True"),
    (lambda: GcnConfig(learning_rate=True, dropout_p=False),
     "learning_rate must be a number, got True"),
    (lambda: GcnConfig(dropout_p=False), "dropout_p must be a number, got False"),
    (lambda: GcnConfig(weight_decay=True), "weight_decay must be a number, got True"),
    (lambda: GcnConfig(num_classes=True), "num_classes must be an integer, got True"),
    (lambda: GcnConfig(layer_units=[32, True]), "layer_units must be a list of integers"),
    (lambda: GcnConfig.from_dict({"lr": 1}), "bad model config: .*'lr'"),
    # GcnConfig had a seed that nothing read; a file that still sets it is refused
    (lambda: GcnConfig.from_dict({"seed": 5}), "bad model config: .*'seed'"),
    (lambda: ExperimentPlan.from_dict({"gcn": {"seed": 5}}), "bad experiment plan: .*'seed'"),
    (lambda: ExperimentPlan.from_dict([]), "an experiment plan must be a JSON object"),
    (lambda: ExperimentPlan.from_dict({"cells": [1]}), "cells must be a list of cell names"),
    (lambda: ExperimentPlan.from_dict({"seed": "7"}), "seed must be an integer, got '7'"),
    (lambda: ExperimentPlan.from_dict({"gcn": {"variant": 3}}),
     "bad experiment plan: unknown variant 3"),
    (lambda: ExperimentPlan.from_dict({"networks": True}), "networks must be an integer, got True"),
    (lambda: ExperimentPlan.from_dict({"seed": False}), "seed must be an integer, got False"),
    (lambda: ExperimentPlan.from_dict(json.loads('{"gcn": {"learning_rate": true}}')),
     "bad experiment plan: learning_rate must be a number, got True"),
    (lambda: SimilaritySpec(kind=3), "unknown similarity kind 3"),
    (lambda: SimilaritySpec(katz_beta="a"), "katz_beta must be > 0 and finite, got 'a'"),
    (lambda: SimilaritySpec(katz_beta=True), "katz_beta must be > 0 and finite, got True"),
    (lambda: SimilaritySpec(kind="katz", threshold_lo=False, threshold_hi=True),
     "thresholds must be numbers or 'auto', got False and True"),
    (lambda: SimilaritySpec(katz_max_power=2.5), "katz_max_power must be an integer >= 1, got 2.5"),
    (lambda: SimilaritySpec(katz_max_power=True),
     "katz_max_power must be an integer >= 1, got True"),
    (lambda: SimilaritySpec(rpr_alpha="x"), r"rpr_alpha must lie in \(0, 1\), got 'x'"),
    (lambda: SimilaritySpec(threshold_lo=None), "thresholds must be numbers or 'auto', got None"),
    # a public function's count is checked as ExperimentPlan's fields are: 0 and
    # -2 folds used to give an empty (0, n) array, 2.5 snapshots or "2" events a
    # bare TypeError from range or <
    (lambda: make_folds(np.arange(8) % 2, 0, 1), "folds must be >= 2, got 0"),
    (lambda: make_folds(np.arange(8) % 2, -2, 1), "folds must be >= 2, got -2"),
    (lambda: make_folds(np.arange(8) % 2, 1, 1), "folds must be >= 2, got 1"),
    (lambda: make_folds(np.arange(8) % 2, 2.0, 1), "folds must be an integer, got 2.0"),
    (lambda: make_folds(np.arange(8) % 2, True, 1), "folds must be an integer, got True"),
    (lambda: next(iter_snapshots(SimConfig(n=8), 2.5)), "snapshots must be an integer, got 2.5"),
    (lambda: next(iter_snapshots(SimConfig(n=8), 0)), "snapshots must be >= 1, got 0"),
    (lambda: next(iter_snapshots(SimConfig(n=8), False)),
     "snapshots must be an integer, got False"),
    (lambda: emit_event_stream(SimConfig(n=8), "2"), "events must be an integer, got '2'"),
    (lambda: emit_event_stream(SimConfig(n=8), 1.0), "events must be an integer, got 1.0"),
    (lambda: emit_event_stream(SimConfig(n=8), -1), "events must be >= 1, got -1"),
])
def test_bad_config_field_types_raise_named_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# --- the command line -------------------------------------------------------------
#
# Every run is made in a fresh directory holding one valid file of each kind
# a subcommand reads: a simulation config, a plan, a snapshot directory and a
# report.  The config and plan are compact JSON, so a corrupted byte can
# change a digit of a size but not add one: every run stays tiny.

CLI_FUZZ = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

CLI_SIM = SimConfig(n=12, f=3, y=2, q=2, p=0.8, t=0.1, r=0.25, c=(1.0,), z=0.2, seed=11)
CLI_PLAN = ExperimentPlan(sim=CLI_SIM, networks=1, snapshots=1,
                          cells=("FTvanilla", "FTkatz0.0-0.5"), folds=2, seed=1,
                          gcn=GcnConfig(num_classes=2, layer_units=(4,), epochs=2), workers=1)


def compact_json(d: dict) -> bytes:
    return json.dumps(d, separators=(",", ":")).encode()


def cli_exit_code(argv: list[str]) -> int:
    """``socsim.cli.main(argv)`` in-process, its output swallowed; an
    argparse SystemExit counts as its code, any other exception escapes."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory) -> dict[str, bytes]:
    """Each input file by its name in a run's directory: cfg.json,
    plan.json, snap/<file> and report.json."""
    files = {"cfg.json": compact_json(json.loads(CLI_SIM.to_json())),
             "plan.json": compact_json(CLI_PLAN.to_dict())}
    with contextlib.chdir(tmp_path_factory.mktemp("cli")):
        for name, blob in files.items():
            Path(name).write_bytes(blob)
        assert cli_exit_code(["simulate", "--config", "cfg.json", "--out", "sim"]) == 0
        for path in Path("sim/snap-000").iterdir():
            files[f"snap/{path.name}"] = path.read_bytes()
        assert cli_exit_code(["experiment", "--plan", "plan.json", "--out", "results"]) == 0
        files["report.json"] = Path("results/report.json").read_bytes()
    return files


def run_in(files: dict[str, bytes], argv: list[str]) -> int:
    """Write ``files`` and a plain file.txt into a fresh directory, run
    ``argv`` there, and check that what a command that exits 0 wrote loads
    back.  Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("snap").mkdir()
        for name, blob in files.items():
            Path(name).write_bytes(blob)
        Path("file.txt").write_text("not a directory\n")
        code = cli_exit_code(argv)
        if code == 0:
            args = cli.build_parser().parse_args(argv)
            if args.command == "simulate":
                for snap in Path(args.out).glob("snap-*"):
                    load_graph_dir(snap)
            elif args.command == "representative":
                load_representative_matrix(args.out)
            elif args.command == "experiment":
                load_report(Path(args.out) / "report.json")
            elif args.command == "report":  # the two CSVs, never a report.json
                out, report = Path(args.out or Path(args.input).parent), load_report(args.input)
                cells = report.plan.get("cells") or [*(report.snapshots[0].cells
                                                       if report.snapshots else ())]
                with open(out / "summary.csv", newline="") as fh:
                    assert next(csv.reader(fh)) == ["snapshot", *cells]
                with open(out / "best.csv", newline="") as fh:
                    assert next(csv.reader(fh))[0] == "snapshot"
                assert Path("report.json").read_bytes() == files["report.json"]
    return code


PATH_OPTIONS = ("--config", "--out", "--graph", "--out-csv", "--plan", "--in")


# a valid run of every subcommand, one option per entry
COMMANDS = {
    "simulate": {"--config": "cfg.json", "--out": "out", "--snapshots": "2"},
    "events": {"--config": "cfg.json", "--out": "out", "--events": "3"},
    "representative": {"--graph": "snap", "--kind": "katz", "--beta": "0.005",
                       "--max-power": "5", "--alpha": "0.85", "--thresholds": ["0.0", "0.5"],
                       "--out": "out", "--out-csv": "out.csv"},
    "experiment": {"--plan": "plan.json", "--out": "out"},
    "report": {"--in": "report.json", "--format": "csv", "--out": "out"},
}
KINDS = ("adjacency", "katz", "rpr", "gg")
# the representative kind that reads each numeric option
READ_BY = {"--beta": "katz", "--max-power": "katz", "--alpha": "rpr"}

JUNK = st.sampled_from(["", "x", "1.5", "1e3", "nan", "-inf", "--", "0x10"])
INTEGERS = st.integers(-2, 6).map(str) | JUNK
FLOATS = (st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-5, 0.5, 1.0, 1e10, 1e60, 1e62, 1e300,
                           float("inf"), -1.0, float("nan")])
          | st.floats(allow_nan=True, allow_infinity=True)).map(repr) | JUNK
PATHS = st.sampled_from(["cfg.json", "plan.json", "snap", "report.json", "missing.json",
                         "file.txt", "out", "out/nested", "missing/deep/out", ""])
FUZZED = {
    "--snapshots": INTEGERS, "--events": INTEGERS, "--max-power": INTEGERS,
    "--beta": FLOATS, "--alpha": FLOATS,
    "--kind": st.sampled_from(["adjacency", "katz", "rpr", "gg", "KATZ", "x"]),
    "--thresholds": st.lists(st.sampled_from(["auto", "AUTO", "0.0", "0.5", "1", "-1"])
                             | FLOATS, min_size=1, max_size=3),
    "--format": st.sampled_from(["csv", "xml", ""]),
} | {option: PATHS for option in PATH_OPTIONS}


def option_tokens(option: str, value: str | list[str]) -> list[str]:
    return [option, *value] if isinstance(value, list) else [option, value]


@st.composite
def valid_options(draw, command: str, option: str | None = None) -> dict:
    """The options of a valid run of ``command``; representative's kind is
    the one that reads ``option``, else any."""
    options = dict(COMMANDS[command])
    if command == "representative":
        options["--kind"] = READ_BY.get(option) or draw(st.sampled_from(KINDS))
    return options


@st.composite
def fuzzed_argv(draw, command: str, option: str) -> list[str]:
    """A valid run of ``command`` with ``option`` given a fuzzed value or
    dropped, maybe one more option fuzzed too, now and then an unknown
    option, the options in any order, each as ``--opt value`` or
    ``--opt=value``."""
    options = draw(valid_options(command, option))
    fuzzed = {option} | set(draw(st.lists(st.sampled_from(sorted(options)), max_size=1)))
    for name in sorted(fuzzed):
        if draw(st.integers(0, 7)) == 0:
            del options[name]
        else:
            options[name] = draw(FUZZED[name])
    tokens = [[f"{name}={value}"] if isinstance(value, str) and draw(st.booleans())
              else option_tokens(name, value) for name, value in options.items()]
    if draw(st.integers(0, 9)) == 0:
        tokens.append(["--bogus"])
    return [command, *(token for group in draw(st.permutations(tokens)) for token in group)]


@pytest.mark.parametrize("command, option",
                         [(command, option) for command, options in COMMANDS.items()
                          for option in options])
@given(data=st.data())
@CLI_FUZZ
def test_fuzzed_argv_exits_with_a_documented_code(cli_files, command, option, data):
    assert run_in(cli_files, data.draw(fuzzed_argv(command, option))) in (0, 1, 2, 3)


# each file a subcommand reads, with the subcommands that read it
READERS = {"cfg.json": ["simulate", "events"], "plan.json": ["experiment"],
           "report.json": ["report"]} | {f"snap/{name}": ["representative"]
                                         for name in ("edges.tsv", "features.csv", "labels.csv")}


@pytest.mark.parametrize("name", sorted(READERS))
@given(data=st.data())
@CLI_FUZZ
def test_corrupted_input_file_exits_with_a_documented_code(cli_files, name, data):
    files = cli_files | {name: data.draw(corruptions(cli_files[name]))}
    command = data.draw(st.sampled_from(READERS[name]))
    argv = [command, *(token for option, value in data.draw(valid_options(command)).items()
                       for token in option_tokens(option, value))]
    assert run_in(files, argv) in (0, 1, 3)
