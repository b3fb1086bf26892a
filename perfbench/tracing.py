"""Span tracing of socsim's layers from outside the package.

``Tracer.install`` replaces every public function of the layer modules
(``sdna``, ``graph``, ``similarity``, ``gcn``, ``harness``, ``cli``,
``rng``) with a wrapper that records a span, under every name the function
is reachable by: the defining module, the by-name imports of the other
modules (``socsim.harness.train``, ``socsim.similarity.shortest_path_matrix``,
...) and the package's re-exports.  ``uninstall`` puts every original back.

Spans stay in memory as ``[name, start, end, parent]`` and are summarised
(or written out) when the run ends.  A layer's self time is its span minus
the spans of its direct children.  Work the tracer does for its own counters
(hashing a matrix) is recorded as a ``trace.bookkeeping`` child span, so it
is charged to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("sdna", "graph", "similarity", "gcn", "harness", "cli", "rng")

# Methods that are part of a layer's public surface.
METHODS = (("graph", "SocialGraph", "with_edges"),)


def socsim_modules() -> list:
    """The package and every layer module, i.e. every namespace that can
    hold a by-name reference to a layer function."""
    return [importlib.import_module("socsim")] + [
        importlib.import_module(f"socsim.{layer}") for layer in LAYERS
    ]


def _g_products(cfg, n: int, x_dim: int) -> tuple[int, int]:
    """Flops of the ``G @ H`` propagations in one forward and one backward
    pass, computed from the shapes ``gcn.forward``/``gcn.backward`` use."""
    if cfg.variant == "f":
        return 0, 0
    d_in = [x_dim, *cfg.layer_units]
    per_layer = [2 * n * n * d for d in d_in]
    # t/tlr: the first layer's propagated input is G itself, no product
    fwd = sum(per_layer[1:]) + (0 if cfg.variant in ("t", "tlr") else per_layer[0])
    bwd = sum(per_layer[1:]) + (per_layer[0] if cfg.use_s else 0)
    return fwd, bwd


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        # (provenance, spec) -> sha256 of the built matrix
        self.digests: dict[tuple, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(record, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def bookkeeping(self):
        record = ["trace.bookkeeping", time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()

    # -- per-function counters ---------------------------------------------

    def _on_cli_main(self, record, args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv")
        record[0] = f"cli.main.{argv[0] if argv else 'none'}"

    def _on_forward(self, record, args, kwargs, result):
        model, inputs = args[0], args[1]
        fwd, _ = _g_products(model.config, inputs.g_matrix.shape[0], inputs.x.shape[1])
        self.counters["gcn.prop_flops"] += fwd

    def _on_backward(self, record, args, kwargs, result):
        model, inputs = args[0], args[2]
        _, bwd = _g_products(model.config, inputs.g_matrix.shape[0], inputs.x.shape[1])
        self.counters["gcn.prop_flops"] += bwd

    def _on_build(self, record, args, kwargs, result):
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        provenance = args[2] if len(args) > 2 else kwargs.get("provenance", "")
        self.counters[f"similarity.build.{spec.kind}_s"] += record[2] - record[1]
        with self.bookkeeping():
            digest = hashlib.sha256(result.matrix.tobytes()).hexdigest()
        self.digests[(provenance, spec)] = digest

    def _on_socialise(self, record, args, kwargs, result):
        grown, audit = result
        self.counters["sdna.socialise.pairs_scored"] += len(audit)
        self.counters["sdna.socialise.edges_added"] += len(grown.edges) - len(args[0].edges)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "cli.main": self._on_cli_main,
            "gcn.forward": self._on_forward,
            "gcn.backward": self._on_backward,
            "similarity.build_representative": self._on_build,
            "sdna.socialise": self._on_socialise,
        }
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"socsim.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[value] = self._wrap(name, value, hooks.get(name))
        for module in socsim_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"socsim.{layer}"), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """calls, self_s and total_s per span name, plus the summed duration
        of top-level spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        top_level = 0.0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child[idx]
            if parent < 0:
                top_level += end - start
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "top_level_s": top_level}

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


@contextlib.contextmanager
def counting_pools(counters: dict):
    """Swap ``socsim.harness.ProcessPoolExecutor`` for a subclass that counts
    pools and their lifetime (creation to shutdown) in this process."""
    harness = importlib.import_module("socsim.harness")
    original = harness.ProcessPoolExecutor

    class CountedPool(original):
        def __init__(self, *args, **kwargs):
            counters["harness.pools_created"] = counters.get("harness.pools_created", 0) + 1
            self._created = time.perf_counter()
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                counters["harness.pool_s"] = (counters.get("harness.pool_s", 0.0)
                                              + time.perf_counter() - self._created)

    harness.ProcessPoolExecutor = CountedPool
    try:
        yield
    finally:
        harness.ProcessPoolExecutor = original
