"""Command-line entry points.

    socsim simulate --config cfg.json --out dir/ [--snapshots K]
    socsim events --config cfg.json --out stream.tsv --events N
    socsim representative --graph snap-000/ --kind katz --beta 0.005
           --max-power 5 --thresholds 0.0 0.5 --out G.bin [--out-csv G.csv]
    socsim experiment --plan plan.json --out results/
    socsim report --in results/report.json --format csv [--out dir/]

``experiment`` makes its ``--out`` directory before it runs the plan, so a
bad one fails at once.  ``report`` writes summary.csv and best.csv only; it
never rewrites a report.json.

Exit codes:

    0   success
    1   bad input: a file that cannot be read or is malformed, or an
        argument value the command rejects; one ``socsim: error:`` line on
        stderr names it
    2   usage error: an unknown command or option, a missing one, an empty
        path, or a ``representative --out-csv`` that names the ``--out``
        file (argparse)
    3   ``experiment`` completed, but some cells failed, the cells a lost
        pool worker left unfinished among them (each failed cell carries
        its error in report.json)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .graph import load_graph_dir, save_graph_dir
from .harness import ExperimentPlan, _emit_csvs, emit_report, load_report, run_experiment
from .sdna import SimConfig, emit_event_stream, iter_snapshots
from .similarity import (
    AUTO,
    SimilaritySpec,
    build_representative,
    save_representative,
    save_representative_csv,
)


def _cmd_simulate(args) -> int:
    cfg = SimConfig.load(args.config)
    out = Path(args.out)
    for idx, (graph, sdnas) in enumerate(iter_snapshots(cfg, args.snapshots)):
        snap_dir = out / f"snap-{idx:03d}"
        save_graph_dir(graph, snap_dir)
        (snap_dir / "sdna.json").write_text(
            json.dumps({"sdnas": [dna.to_dict() for dna in sdnas]}, indent=2) + "\n"
        )
        (snap_dir / "meta.json").write_text(
            json.dumps(
                {"config": asdict(cfg), "seed": cfg.seed, "snapshot": idx},
                indent=2, sort_keys=True,
            ) + "\n"
        )
    print(f"wrote {args.snapshots} snapshot(s) under {out}")
    return 0


def _cmd_events(args) -> int:
    cfg = SimConfig.load(args.config)
    stream = emit_event_stream(cfg, args.events)
    with open(args.out, "w") as fh:
        for ts, (i, j) in stream:
            fh.write(f"{ts}\t{i}\t{j}\n")
    print(f"wrote {len(stream)} event(s) to {args.out}")
    return 0


def _parse_thresholds(tokens: list[str]) -> tuple[float | str, float | str]:
    if len(tokens) == 1 and tokens[0].lower() == "auto":
        return AUTO, AUTO
    try:
        lo, hi = map(float, tokens)
    except ValueError:
        raise ValueError(f"--thresholds takes LO HI or the single word 'auto', "
                         f"got {' '.join(tokens)!r}") from None
    return lo, hi


def _cmd_representative(args) -> int:
    lo, hi = _parse_thresholds(args.thresholds)
    graph = load_graph_dir(args.graph)
    spec = SimilaritySpec(
        kind=args.kind,
        katz_beta=args.beta,
        katz_max_power=args.max_power,
        rpr_alpha=args.alpha,
        threshold_lo=lo,
        threshold_hi=hi,
    )
    rep = build_representative(graph, spec, provenance=str(args.graph))
    save_representative(rep, args.out)
    if args.out_csv:
        save_representative_csv(rep, args.out_csv)
    print(f"wrote {rep.matrix.shape[0]}x{rep.matrix.shape[0]} representative to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    plan = ExperimentPlan.load(args.plan)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    report = run_experiment(plan)
    paths = emit_report(report, args.out)
    print(f"report: {paths['report']}")
    for snap in report.snapshots:
        failures = sum(c.failed for c in snap.cells.values())
        tail = f" ({failures} failed cells)" if failures else ""
        print(f"  {snap.name}: best={snap.best_cell} hypothesis={snap.hypothesis}{tail}")
    return 3 if report.any_failed else 0


def _cmd_report(args) -> int:
    report = load_report(args.input)
    out = Path(args.out) if args.out else Path(args.input).parent
    out.mkdir(parents=True, exist_ok=True)
    paths = _emit_csvs(report, out)
    print(f"wrote {paths['summary']} and {paths['best']}")
    return 0


def _path(value: str) -> str:
    """argparse type of every path option: ``Path("")`` would be the
    working directory, so an empty value is a usage error."""
    if not value:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="socsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate dynamic network snapshots")
    p.add_argument("--config", type=_path, required=True, help="SimConfig JSON file")
    p.add_argument("--out", type=_path, required=True, help="output directory")
    p.add_argument("--snapshots", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("events", help="emit a timestamped edge stream")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True, help="output TSV (timestamp, i, j)")
    p.add_argument("--events", type=int, required=True)
    p.set_defaults(func=_cmd_events)

    p = sub.add_parser("representative", help="build a graph representative matrix")
    p.add_argument("--graph", type=_path, required=True, help="snapshot directory")
    p.add_argument("--kind", default="adjacency",
                   choices=["adjacency", "katz", "rpr", "gg"])
    p.add_argument("--beta", type=float, default=0.005)
    p.add_argument("--max-power", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.85)
    p.add_argument("--thresholds", nargs="+", default=["0.0", "1.0"],
                   help="LO HI, or 'auto'")
    p.add_argument("--out", type=_path, required=True, help="binary output path")
    p.add_argument("--out-csv", type=_path, default=None, help="optional CSV dump")
    p.set_defaults(func=_cmd_representative)

    p = sub.add_parser("experiment", help="run a full experiment plan")
    p.add_argument("--plan", type=_path, required=True, help="ExperimentPlan JSON file")
    p.add_argument("--out", type=_path, required=True, help="results directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="re-emit CSVs from a stored report")
    p.add_argument("--in", type=_path, dest="input", required=True, help="report.json path")
    p.add_argument("--format", default="csv", choices=["csv"])
    p.add_argument("--out", type=_path, default=None,
                   help="output directory (default: alongside input)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse of Python 3.11 reads ``--opt=--`` as an empty list, skipping
    # the option's type and choices
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    out_csv = getattr(args, "out_csv", None)
    if out_csv and os.path.realpath(out_csv) == os.path.realpath(args.out):
        parser.error("argument --out-csv: names the same file as --out")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"socsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
