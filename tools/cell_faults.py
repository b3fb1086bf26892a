"""Minor page faults and wall time of single desk-scale training cells.

Simulates one desk snapshot (n=200, f=20, y=4), then cross-validates each
named cell on it (10 folds x 200 epochs, the paper's shape) and prints one
JSON object: per cell the minor page faults the process took while the cell
trained (``getrusage`` ``ru_minflt``), its wall seconds and its mean
accuracy, plus the machine facts.  BLAS is pinned to one thread before
numpy is imported, as in perfbench, and the thread count OpenBLAS then
reports is recorded.

    PYTHONPATH=src python3 tools/cell_faults.py --seed 2026 --repeat 2

Each cell is trained ``--repeat`` times and every repeat is reported; the
first one also pays for the snapshot's first-touch allocations.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from socsim._openblas import blas_threads  # noqa: E402
from socsim.harness import desk_sim_config, make_folds, run_cell  # noqa: E402
from socsim.gcn import GcnConfig  # noqa: E402
from socsim.sdna import iter_snapshots  # noqa: E402

CELLS = ("FTvanilla", "SFTvanilla", "F", "T", "TLR")


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": blas_threads()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--cells", nargs="*", default=list(CELLS))
    args = parser.parse_args(argv)

    (graph, _), = iter_snapshots(desk_sim_config(args.seed), 1)
    folds = make_folds(graph.sdna_of, 10, seed=args.seed)
    base = GcnConfig(num_classes=4)
    cells = {}
    for cell in args.cells:
        runs = []
        for _ in range(args.repeat):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            result = run_cell(graph, cell, folds, base=base, plan_seed=args.seed)
            wall = time.perf_counter() - start
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            runs.append({"minor_faults": faults, "wall_s": round(wall, 3),
                         "mean_acc": result.mean, "error": result.error})
        cells[cell] = runs
    print(json.dumps({"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
                      "blas": _blas(), "seed": args.seed, "folds": 10, "epochs": base.epochs,
                      "cells": cells}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
