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
takes that product stacked (``rule_stacks``).

It also times the stacked product of a G with lone rows (no neighbour),
the renormalized adjacency D^-1/2 (A + I) D^-1/2 of a graph in which each
of the shares LONE_SHARES of the nodes has none (``symmetric``: it equals
its transpose bit for bit) and a copy with its rows scaled (``skewed``:
it does not, as a weighted katz, RPR or GG representative does not), at
each n, fold count and width per fold of LIVE_CASES, on both sides:

    full     one BLAS product over all n rows
    live     socsim.gcn._LiveRows over G's rows alone: the live rows of G
             (or of G.T, from their own copy) from one BLAS product over
             all n columns, each lone row as diag * h + 0.0
    columns  the same, skipping the lone columns too: the live rows'
             products over the live columns of each of OpenBLAS's K panels,
             summed in panel order; only at a width per fold that is a
             multiple of 32, else null

and records whether each equals the full product bit for bit
(``identical``, ``columns_identical``) and whether the training workspace
takes it (``rule_takes``: _LiveRows.of() on that side, so kernels that
keep the row rule, enough lone rows, and a stacked width per fold that
passes _by_live_rows(); a bit-symmetric G's G.T products take its copy of
G's live rows, whose bits are those of G.T's; ``rule_takes_columns``: it
also skips the lone columns, on one BLAS thread, where G's live rows are
zero in every lone column).

The forms of a row are timed in one loop (tools/paired_timing.py), each
round calling each once: each time is the median of ``--repeat`` calls, in
milliseconds, and each ``*_vs_*`` the median of the per-round ratios to
the first form, with their IQR.  BLAS is pinned to one thread before numpy
is imported, as in perfbench and in training, and
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

from paired_timing import paired_ms  # noqa: E402
from socsim._openblas import machine_facts  # noqa: E402
from socsim.gcn import _LiveRows, _live_rows, _stacked  # noqa: E402

# the live-row table: a desk snapshot's n and folds at the default hidden
# width, and a wide_pool one's at that width and at the output layer's
# (4 classes); lone shares around the break-even, and one past the share
# (about 0.61 at n = 800) where the output layer's live product falls
# back into OpenBLAS's small-matrix kernel
LIVE_CASES = ((200, 10, 32), (800, 3, 32), (800, 3, 4))
LONE_SHARES = (0.02, 0.05, 0.1, 0.2, 0.35, 0.55, 0.7)


def percent(times: dict) -> dict:
    """A paired_ms() form's ratio to the first form and its IQR, as signed
    percentages."""
    return {"vs": f"{times['vs_first']:+.1%}",
            "iqr": [f"{q:+.1%}" for q in times["vs_first_iqr"]]}


def time_products(n: int, k: int, width: int, repeat: int, rng: np.random.Generator) -> list:
    g = rng.random((n, n))
    h = rng.normal(size=(k, n, width))
    per_fold = np.empty_like(h)
    wide_h = np.ascontiguousarray(h.transpose(1, 0, 2)).reshape(n, k * width)  # [H_1 ... H_k]
    wide = np.empty((n, k * width))
    rows = []
    for side, gm in (("g", g), ("g.T", g.T)):
        times = paired_ms({"per_fold": lambda: np.matmul(gm, h, out=per_fold),
                           "stacked": lambda: np.matmul(gm, wide_h, out=wide)}, repeat)
        stacked = percent(times["stacked"])
        rows.append({"n": n, "k": k, "width": width, "side": side,
                     "per_fold_ms": times["per_fold"]["ms"], "stacked_ms": times["stacked"]["ms"],
                     "stacked_vs_per_fold": stacked["vs"],
                     "stacked_vs_per_fold_iqr": stacked["iqr"],
                     "identical": bool(np.array_equal(
                         wide.reshape(n, k, width).transpose(1, 0, 2), per_fold)),
                     "rule_stacks": _stacked(n, width)})
    return rows


def lone_row_g(n: int, lone_share: float, rng: np.random.Generator) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 of a graph on n nodes in which a share
    ``lone_share`` of the nodes has no neighbour and every other node has
    one on a ring through them all, plus about two more at random."""
    linked = rng.permutation(n)[round(lone_share * n):]
    a = np.eye(n)
    for i, j in ((linked, np.roll(linked, 1)), rng.choice(linked, (2, len(linked)))):
        a[i, j] = a[j, i] = 1.0
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    a *= dinv[:, None]
    a *= dinv
    return a


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def time_live_rows(n: int, k: int, width: int, lone_share: float, repeat: int,
                   rng: np.random.Generator) -> list:
    symmetric = lone_row_g(n, lone_share, rng)
    h = rng.normal(size=(n, k * width))  # [H_1 ... H_k]
    full, out, out_columns = np.empty_like(h), np.empty_like(h), np.empty_like(h)
    rows = []
    for g_name, g in (("symmetric", symmetric), ("skewed", symmetric * rng.random((n, 1)))):
        for side, gm in (("g", g), ("g.T", g.T)):
            live_rows = _live_rows(gm)
            live = _LiveRows(gm, live_rows, k, [width], columns=False)
            columns = _LiveRows(gm, live_rows, k, [width], columns=True)
            forms = {"full": lambda: np.matmul(gm, h, out=full),
                     "live": lambda: live.product(h, out, width)}
            if columns.by_columns(width):
                forms["columns"] = lambda: columns.product(h, out_columns, width)
            times = paired_ms(forms, repeat)
            taken = _LiveRows.of(gm, k, [width])
            row = {"n": n, "k": k, "width": width, "g": g_name, "side": side,
                   "lone_share": lone_share, "lone_rows": n - len(live_rows),
                   "full_ms": times["full"]["ms"], "identical": same_bits(out, full),
                   "rule_takes": taken is not None,
                   "rule_takes_columns": taken is not None and taken.by_columns(width)}
            for form in ("live", "columns"):
                ratio = percent(times[form]) if form in times else {"vs": None, "iqr": None}
                row |= {f"{form}_ms": times.get(form, {}).get("ms"),
                        f"{form}_vs_full": ratio["vs"], f"{form}_vs_full_iqr": ratio["iqr"]}
            row["columns_identical"] = same_bits(out_columns, full) if "columns" in times else None
            rows.append(row)
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
    live_rows = [row for n, k, width in LIVE_CASES for share in LONE_SHARES
                 for row in time_live_rows(n, k, width, share, args.repeat, rng)]
    doc = {"machine": machine_facts(), "repeat": args.repeat, "products": products,
           "live_rows": live_rows}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
