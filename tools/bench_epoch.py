"""Per-part times of one GCN training epoch, per variant cell.

Simulates one desk snapshot of ``--n`` nodes (f = 20, y = 4), splits it into
``--k`` stratified folds and trains each cell's fold stack (FTvanilla,
SFTvanilla, F, T and TLR at the default config, adjacency G) through
``socsim.gcn._fit`` on one workspace.  It prints one JSON object with, per
cell, in milliseconds per epoch:

    epoch_ms         a whole epoch with nothing wrapped: the best of
                     ``--repeat`` runs of ``--epochs`` epochs
    parts            keep_masks, _propagate, _forward, _backward, _losses
                     and _adam_step, each wrapped from outside with a timer
                     for as many more runs: ``ms`` counts a part's calls
                     whole, ``self_ms`` leaves out the wrapped parts they
                     call (_forward calls keep_masks and _propagate,
                     _backward calls _propagate); from the run whose
                     wrapped epoch (``wrapped_epoch_ms``) was fastest, with
                     what no part took as ``rest_ms``

and ``peak_mb``, the tracemalloc peak in MB (10^6 bytes) of one more fit
of ``--epochs`` epochs, from its parameters and workspace on, traced apart
from the timed runs; and, in microseconds per call, the best of 7 timeit
rounds on the workspace's own stacks after training:

    softmax_us       ``_softmax`` of the output layer's logits
    gate_us          the first hidden layer's training gate, built the way
                     the ``_forward`` on PYTHONPATH builds it (``gate_form``):
                     on bools where the workspace has bool ``on`` stacks,
                     else by float passes over the gate

Every part is timed on whichever ``src`` is on PYTHONPATH, so two trees
compare with the same script:

    PYTHONPATH=old/src python3 tools/bench_epoch.py > old.json
    PYTHONPATH=src python3 tools/bench_epoch.py > new.json

A warm-up epoch, untimed, first writes each run's workspace.  BLAS is pinned
to one thread before numpy is imported, as in perfbench, and
``socsim._openblas.machine_facts()`` is recorded as the ``machine`` block.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import time
import timeit
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from socsim import gcn  # noqa: E402
from socsim._openblas import machine_facts  # noqa: E402
from socsim.gcn import GcnConfig, GcnModel, TrainInputs  # noqa: E402
from socsim.harness import desk_sim_config, make_folds, parse_cell  # noqa: E402
from socsim.rng import derive_rng  # noqa: E402
from socsim.sdna import iter_snapshots  # noqa: E402
from socsim.similarity import build_representative  # noqa: E402

CELLS = ("FTvanilla", "SFTvanilla", "F", "T", "TLR")
PARTS = ("keep_masks", "_propagate", "_forward", "_backward", "_losses", "_adam_step")


class _Timers:
    """Whole and own seconds of every wrapped part's calls."""

    def __init__(self):
        self.whole = dict.fromkeys(PARTS, 0.0)
        self.inner = dict.fromkeys(PARTS, 0.0)
        self._open: list[float] = []  # per open call: seconds of the wrapped calls inside it

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.whole[name] += elapsed
                self.inner[name] += self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
        return timed


@contextlib.contextmanager
def _wrapped(timers: _Timers):
    """Every part of PARTS replaced by its timed wrapper, where _fit and
    _forward look it up, and restored on exit."""
    owners = [(gcn._Workspace if name == "keep_masks" else gcn, name) for name in PARTS]
    saved = [getattr(owner, name) for owner, name in owners]
    for (owner, name), fn in zip(owners, saved):
        setattr(owner, name, timers.wrap(name, fn))
    try:
        yield
    finally:
        for (owner, name), fn in zip(owners, saved):
            setattr(owner, name, fn)


def _gate_pass(ws, cfg: GcnConfig):
    """One call that builds the first hidden layer's training gate on the
    workspace's stacks as _forward does, and the name of that form."""
    i = next(i for i, step in enumerate(ws.steps) if step.hidden)
    step = ws.steps[i]
    z, gate = ws.stack(f"z{i}", step.fans[1]), ws.stack(f"gate{i}", step.fans[1])
    keep, scale = ws._keep[step.layer], 1.0 / (1.0 - cfg.dropout_p)
    if hasattr(ws, "on"):
        on = ws.on[step.layer]

        def bools():
            np.greater(z, 0.0, out=on)
            np.bitwise_and(on, keep, out=on)
            np.multiply(on, scale, out=gate)
        return bools, "bool masks"

    def floats():
        np.greater(z, 0.0, out=gate)
        np.multiply(gate, keep, out=gate)
        np.multiply(gate, scale, out=gate)
    return floats, "float passes"


def _best_us(fn, number: int = 200) -> float:
    return round(min(timeit.repeat(fn, number=number, repeat=7)) / number * 1e6, 2)


def bench_cell(cell: str, inputs: TrainInputs, k: int, epochs: int, repeat: int) -> dict:
    cfg, _ = parse_cell(cell, GcnConfig(num_classes=4))
    seeds = list(range(k))
    rows = gcn._Rows.of(inputs, cfg.num_classes, k)

    def fit(n_epochs: int):
        model = GcnModel(cfg, gcn._init_params(cfg, seeds, *inputs.x.shape))
        ws = gcn._Workspace(model, inputs)
        rngs = [derive_rng(seed, "dropout") for seed in seeds]
        gcn._fit(model, rows, rngs, ws, n_epochs)
        return model, ws, rngs

    def run(timers: _Timers | None):
        model, ws, rngs = fit(1)
        with _wrapped(timers) if timers else contextlib.nullcontext():
            start = time.perf_counter()
            gcn._fit(model, rows, rngs, ws, epochs)
            return (time.perf_counter() - start) * 1e3 / epochs, ws

    plain, wrapped = [], []
    for _ in range(repeat):
        plain.append(run(None)[0])
        timers = _Timers()
        wrapped.append((run(timers)[0], timers))
    wrapped_ms, timers = min(wrapped, key=lambda pair: pair[0])
    parts = {name: {"ms": round(timers.whole[name] * 1e3 / epochs, 4),
                    "self_ms": round((timers.whole[name] - timers.inner[name]) * 1e3 / epochs, 4)}
             for name in PARTS}
    _, ws = run(None)
    tracemalloc.start()
    try:
        fit(epochs)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    classes = cfg.num_classes
    logits, probs = ws.stack(f"z{len(ws.steps) - 1}", classes), ws.stack("probs", classes)
    gate_pass, gate_form = _gate_pass(ws, cfg)
    return {"epoch_ms": round(min(plain), 4), "wrapped_epoch_ms": round(wrapped_ms, 4),
            "parts": parts, "peak_mb": round(peak_mb, 3),
            "rest_ms": round(wrapped_ms - sum(part["self_ms"] for part in parts.values()), 4),
            "softmax_us": _best_us(lambda: gcn._softmax(logits, probs, ws.row)),
            "gate_us": _best_us(gate_pass), "gate_form": gate_form}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200, help="nodes of the snapshot")
    parser.add_argument("--k", type=int, default=10, help="folds of the stack")
    parser.add_argument("--epochs", type=int, default=20, help="timed epochs per run")
    parser.add_argument("--repeat", type=int, default=5, help="runs per cell, each way")
    parser.add_argument("--seed", type=int, default=2026, help="snapshot and fold seed")
    parser.add_argument("--cells", nargs="+", default=list(CELLS))
    args = parser.parse_args(argv)

    (graph, _), = iter_snapshots(dataclasses.replace(desk_sim_config(args.seed), n=args.n), 1)
    test = make_folds(graph.sdna_of, args.k, seed=args.seed)
    cells = {}
    for cell in args.cells:
        _, spec = parse_cell(cell)
        inputs = TrainInputs(g_matrix=build_representative(graph, spec).matrix, x=graph.features,
                             labels=graph.sdna_of, train_mask=~test, test_mask=test)
        cells[cell] = bench_cell(cell, inputs, args.k, args.epochs, args.repeat)
    print(json.dumps({"machine": machine_facts(), "n": graph.n, "k": args.k,
                      "epochs": args.epochs, "repeat": args.repeat, "seed": args.seed,
                      "cells": cells}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
