"""Per-call times of a fold stack's narrow G products, per fold and stacked.

The output layer of a default model propagates its (n, 4) kernel output per
fold, G @ (H_i W), and its backward pass takes G.T @ dz_i.  Taken one fold at
a time, each product streams the whole n x n G; stacked, G @ [H_1 ... H_k]
reads it once.  For every n, fold count k, width and side (``g`` for the
forward product, ``g.T`` for the backward one) this times:

    per_fold  one ``np.matmul`` over the (k, n, width) stack, fold by fold
    stacked   one product with the folds' columns side by side, (n, k * width)

and records whether every fold's columns of the stacked product equal its
own product bit for bit (``identical``) and whether ``socsim.gcn._stacked``
takes that product stacked (``rule_stacks``).  Each time is the median of
``--repeat`` calls, in milliseconds.  BLAS is pinned to one thread before
numpy is imported, as in perfbench, and
``socsim._openblas.machine_facts()`` is recorded as the ``machine`` block.

    PYTHONPATH=src python3 tools/bench_g_products.py --out times.json
"""

from __future__ import annotations

import argparse
import json
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from bench_graph_kernels import _median_ms  # noqa: E402
from socsim._openblas import machine_facts  # noqa: E402
from socsim.gcn import _stacked  # noqa: E402


def time_products(n: int, k: int, width: int, repeat: int, rng: np.random.Generator) -> list:
    g = rng.random((n, n))
    h = rng.normal(size=(k, n, width))
    per_fold = np.empty_like(h)
    wide_h = np.ascontiguousarray(h.transpose(1, 0, 2)).reshape(n, k * width)  # [H_1 ... H_k]
    wide = np.empty((n, k * width))
    rows = []
    for side, gm in (("g", g), ("g.T", g.T)):
        per_fold_ms, _ = _median_ms(lambda: np.matmul(gm, h, out=per_fold), repeat)
        stacked_ms, _ = _median_ms(lambda: np.matmul(gm, wide_h, out=wide), repeat)
        rows.append({"n": n, "k": k, "width": width, "side": side,
                     "per_fold_ms": per_fold_ms, "stacked_ms": stacked_ms,
                     "stacked_vs_per_fold": f"{stacked_ms / per_fold_ms - 1:+.1%}",
                     "identical": bool(np.array_equal(
                         wide.reshape(n, k, width).transpose(1, 0, 2), per_fold)),
                     "rule_stacks": _stacked(n, width)})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[800, 1600])
    parser.add_argument("--folds", type=int, nargs="+", default=[3, 10])
    parser.add_argument("--width", type=int, nargs="+", default=[4])
    parser.add_argument("--repeat", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the JSON here instead of printing it")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    products = [row for n in args.n for k in args.folds for width in args.width
                for row in time_products(n, k, width, args.repeat, rng)]
    doc = {"machine": machine_facts(), "repeat": args.repeat, "products": products}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
