"""sha256 digests of GCN training over a grid of configs, for bit-identity checks.

Simulates one snapshot of n = 60 nodes (``--n``), splits it into 3
stratified folds and trains every config of the grid on it for 7 epochs as
one 3-fold stack:

    4 variants and S (ftvanilla, ftvanilla+S, f, f+S, t, tlr)
    x layer units (32, 32, 32), (16, 8, 3), (12, 20), ()
    x 4 or 6 classes  x  dropout 0 or 0.5  x  adjacency or Katz G

192 configs in all.  It prints one JSON object: per config the sha256 of
its trained parameters (name and bytes, by name) and of its probabilities
after training, plus one combined digest over all of them.  It trains
through ``_init_params``, ``_Workspace``, ``_Rows``, ``_fit`` and
``_forward``, so two source trees can be compared with the same script:

    PYTHONPATH=old/src python3 tools/gcn_digest.py > old.json
    PYTHONPATH=src python3 tools/gcn_digest.py > new.json

and equal ``combined`` digests mean bit-identical training over the grid.
Past n = 500 the 4-class output layer's G products are taken for all folds
at once (``socsim.gcn._stacked``), so ``--n 520`` or ``--n 800`` checks
that path too.  The digests depend on the BLAS kernel set and thread count,
so ``socsim._openblas.machine_facts()`` is printed beside them as the
``machine`` block, outside ``combined``.  BLAS is pinned to one thread
before numpy is imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from socsim._openblas import machine_facts  # noqa: E402
from socsim.gcn import (  # noqa: E402
    GcnConfig, GcnModel, TrainInputs, _fit, _forward, _init_params, _Rows, _Workspace)
from socsim.harness import desk_sim_config, make_folds  # noqa: E402
from socsim.rng import derive_rng  # noqa: E402
from socsim.sdna import iter_snapshots  # noqa: E402
from socsim.similarity import SimilaritySpec, build_representative  # noqa: E402

MODELS = (("ftvanilla", False), ("ftvanilla", True), ("f", False), ("f", True),
          ("t", False), ("tlr", False))
LAYER_UNITS = ((32, 32, 32), (16, 8, 3), (12, 20), ())
CLASSES = (4, 6)
DROPOUT = (0.0, 0.5)
KINDS = ("adjacency", "katz")
SEEDS = (101, 102, 103)


def _digest(model: GcnModel, probs: np.ndarray) -> dict[str, str]:
    params = hashlib.sha256()
    for name in sorted(model.params):
        params.update(name.encode())
        params.update(np.ascontiguousarray(model.params[name]).tobytes())
    return {"params": params.hexdigest(),
            "probs": hashlib.sha256(np.ascontiguousarray(probs).tobytes()).hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026, help="snapshot and fold seed")
    parser.add_argument("--epochs", type=int, default=7)
    parser.add_argument("--n", type=int, default=60, help="nodes of the snapshot")
    args = parser.parse_args(argv)

    sim = dataclasses.replace(desk_sim_config(args.seed), n=args.n)
    (graph, _), = iter_snapshots(sim, 1)
    test = make_folds(graph.sdna_of, len(SEEDS), seed=args.seed)
    inputs = {kind: TrainInputs(g_matrix=build_representative(graph, SimilaritySpec(kind=kind)).matrix,
                                x=graph.features, labels=graph.sdna_of, test_mask=test)
              for kind in KINDS}
    configs = {}
    combined = hashlib.sha256()
    for (variant, use_s), units, classes, dropout, kind in itertools.product(
            MODELS, LAYER_UNITS, CLASSES, DROPOUT, KINDS):
        cfg = GcnConfig(variant=variant, use_s=use_s, layer_units=units, num_classes=classes,
                        dropout_p=dropout, epochs=args.epochs)
        data = inputs[kind]
        model = GcnModel(cfg, _init_params(cfg, list(SEEDS), *data.x.shape))
        ws = _Workspace(model, data)
        _fit(model, _Rows(data, classes, len(SEEDS)),
             [derive_rng(seed, "dropout") for seed in SEEDS], ws, args.epochs)
        probs, _ = _forward(model, ws)
        key = (f"{variant}{'+S' if use_s else ''} units={'-'.join(map(str, units)) or 'none'} "
               f"classes={classes} dropout={dropout} G={kind}")
        configs[key] = _digest(model, probs)
        combined.update(json.dumps([key, configs[key]]).encode())
    print(json.dumps({"machine": machine_facts(), "n": graph.n, "folds": len(SEEDS),
                      "epochs": args.epochs, "configs": len(configs),
                      "combined": combined.hexdigest(), "digests": configs}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
