"""Spans at the boundaries between obsclone's modules, installed from outside the package.

A layer is one module of the package. While a Tracer is installed, every
function that one module binds from another (for example
`obsclone.cli.search_machine` or `obsclone.search.pauli_rotation`) is
replaced in the caller's namespace by a timing wrapper, so no file of the
package changes. Classes are left alone because wrapping them would break
isinstance checks; their constructors count toward the caller's layer.

Spans are aggregated as they close: per (layer, name), the call count,
the inclusive time, and the self time, which is the inclusive time minus
the time covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("cli", "search", "machines", "jointmeas", "classes", "pauli", "linalg")
PACKAGE = "obsclone"
# Calls inside one module that mark a stage the per-layer metrics name.
INTRA_LAYER = (("machines", "heisenberg_lift"),)


class Tracer:
    def __init__(self):
        # (layer, name) -> [calls, inclusive seconds, self seconds]
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[float] = []

    def wrap(self, layer: str, name: str, fn):
        """fn with a span recorded under (layer, name) around every call."""
        stat = self.stats.setdefault((layer, name), [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt

        return span

    @contextlib.contextmanager
    def installed(self):
        """Patch every cross-layer binding for the duration of the block."""
        patches = []

        def patch(module, attr, replacement):
            patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        owners = {m.__name__: layer for layer, m in modules.items()}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                owner = owners.get(obj.__module__)
                if owner is not None and owner != layer:
                    patch(module, attr, self.wrap(owner, obj.__name__, obj))
        for layer, attr in INTRA_LAYER:
            patch(modules[layer], attr, self.wrap(layer, attr, getattr(modules[layer], attr)))
        search = modules["search"]
        patch(search, "optimize", _TracedOptimize(self, search.optimize))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def total(self, layer: str, *names: str) -> tuple[int, float]:
        """Calls and inclusive seconds of the named spans of one layer."""
        calls = sum(self.stats.get((layer, n), (0, 0.0, 0.0))[0] for n in names)
        secs = sum(self.stats.get((layer, n), (0, 0.0, 0.0))[1] for n in names)
        return calls, secs

    def self_seconds(self, layer: str) -> float:
        return sum(s[2] for (lay, _), s in self.stats.items() if lay == layer)

    def summary(self) -> dict:
        return {
            f"{layer}.{name}": {"calls": s[0], "total_s": s[1], "self_s": s[2]}
            for (layer, name), s in sorted(self.stats.items())
        }


class _TracedOptimize:
    """scipy.optimize as search sees it, with spans on minimize and on the objective it is given."""

    def __init__(self, tracer: Tracer, real):
        self._real = real
        self._tracer = tracer
        self._minimize = tracer.wrap("scipy", "minimize", real.minimize)

    def minimize(self, fun, x0, *args, **kwargs):
        return self._minimize(self._tracer.wrap("search", "objective", fun), x0, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)
