"""Outside-in tracing of circledual's layers.

``Tracer.install`` wraps every public function defined in each layer module
and puts the wrapper in place of the original under every name that holds
it in any circledual module, because ``cli``, ``dynamics``, ``operators``,
``figdata`` and the package ``__init__`` import functions by name.  Each
call records a span (name, start, end, parent span, op id) in memory;
``write`` dumps them as JSON lines once the run is over.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "circledual"
LAYERS = ("hilbert", "dynamics", "operators", "auxfun", "figdata", "cli")

# Per-function metrics that BENCHMARK.json names; the spans cover every
# public function, these are the ones an optimisation is expected to move.
REPORTED = {
    "hilbert": ("build_duality_map", "to_ontological", "to_energy", "random_state"),
    "dynamics": ("duality_deviation", "born_distribution", "evolve_quantum",
                 "transport_steps", "offgrid_deviation"),
    "operators": ("ontological_matrix", "conjugate_to_ontological", "build_ladder",
                  "build_position_momentum"),
    "auxfun": ("sqrt_series", "li_three_halves", "li_three_halves_circle",
               "sqrt_series_disk", "angle_kernel", "angle_kernel_abel",
               "angle_kernel_fdiff", "sqrt_series_zeros", "map_to_y"),
    "figdata": ("write_csv", "write_json", "emit_f_curve", "emit_domain_map",
                "domain_map_nesting_violations"),
    "cli": ("main",),
}
# functions whose SeriesResult.terms is summed
TERMS = ("li_three_halves", "sqrt_series_disk", "angle_kernel_abel", "angle_kernel_fdiff")
WRITERS = ("write_csv", "write_json")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = -1
        self.errors: dict[str, int] = defaultdict(int)
        self.terms: dict[str, int] = defaultdict(int)
        self.bytes_written = 0
        self.cells_written = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        wants_terms = layer == "auxfun" and name in TERMS
        is_writer = layer == "figdata" and name in WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, start, end, parent, self.op_id)
            if wants_terms:
                self.terms[key] += int(result.terms)
            elif is_writer:
                fig, path = args[0], args[1]
                self.bytes_written += os.path.getsize(path)
                self.cells_written += fig.rows * len(fig.columns)
            return result

        return traced

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per function key."""
        child = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (key, start, end, _, _) in enumerate(self.spans):
            self_s[key] += end - start - child[i]
            calls[key] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": key, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
