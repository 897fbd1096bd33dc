"""Per-layer timing by wrapping the program's public functions.

The wrappers are installed from the benchmark's own code: each name is
patched in the module that looks it up at call time (a module attribute such
as `gf.reduce_and_factor`, or a name bound by `from .x import y`).  The
program's source is not touched.

A span is one call of a wrapped function.  Its duration is added to its
layer; the duration of every wrapped call made inside it is its child time,
and self time is duration minus child time.  A call nested directly inside
a span of the same layer (psi recursing through itself, s_polynomial calling
psi) is folded into the outer span, so a layer's time is never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time

# layer -> [(module where the caller looks the name up, attribute name)]
TARGETS = {
    "numkit.sieve": [("macbeath.density", "primes_in_classes"),
                     ("macbeath.cli", "primes_upto")],
    "intpoly.build": [("macbeath.census", "psi"),
                      ("macbeath.census", "s_polynomial"),
                      ("macbeath.density", "s_polynomial"),
                      ("macbeath.density", "doubled"),
                      ("macbeath.density", "discriminant"),
                      ("macbeath.cli", "psi"),
                      ("macbeath.cli", "s_polynomial"),
                      ("macbeath.cli", "doubled"),
                      ("macbeath.cli", "discriminant")],
    "gf.factor": [("macbeath.gf", "reduce_and_factor")],
    "gf.pattern": [("macbeath.gf", "degree_pattern")],
    "gf.sqrt": [("macbeath.gf", "sqrt_in_field")],
    "gf.chi": [("macbeath.gf", "chi")],
    "census.census": [("macbeath.census", "map_census")],
    "census.oracle": [("macbeath.census", "matrix_oracle")],
    "density": [("macbeath.density", "sweep"),
                ("macbeath.density", "pattern_census")],
    "cli": [("macbeath.cli", "main")],
}


class LayerStats:
    """Calls, wall time and self time per layer, accumulated while installed."""

    def __init__(self):
        self.calls = {layer: 0 for layer in TARGETS}
        self.total = {layer: 0.0 for layer in TARGETS}
        self.self_time = {layer: 0.0 for layer in TARGETS}
        self._stack: list[list] = []  # [layer, child seconds]
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None and parent[0] == layer:
                    parent[1] += frame[1]
                else:
                    self.calls[layer] += 1
                    self.total[layer] += elapsed
                    self.self_time[layer] += elapsed - frame[1]
                    if parent is not None:
                        parent[1] += elapsed

        return wrapper

    def install(self) -> None:
        for layer, names in TARGETS.items():
            for module_name, attr in names:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
