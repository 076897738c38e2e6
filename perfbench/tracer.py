"""Per-layer tracing from outside the package.

`Tracer.install` replaces each entry point in `ENTRY_POINTS` by a timing
wrapper wherever a loaded `thickknots` module holds a reference to it (the
defining module, modules that imported the name, and the package's
re-exports), and `uninstall` puts the originals back.  Every call records a
span (entry point, start, end, parent span) in memory; a layer's self time is
its span's duration minus the time of the traced spans nested in it.

Modules are reached through `importlib.import_module`, never through
attribute access on the package: `thickknots/__init__.py` re-exports the
function `canonicalize`, so `import thickknots.canonicalize` followed by
`thickknots.canonicalize` yields the function, not the module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# module -> entry points, in the order the per-layer metrics are printed
ENTRY_POINTS = {
    "polygon": ("convex_hull_2d", "interior_angles", "validate_polygon"),
    "thickness": ("thickness_value", "injectivity_radius"),
    "moves": ("apply_reflection", "apply_arc_rotation", "apply_hextuple"),
    "mcmc": ("draw_noise", "chain_step", "renormalize"),
    "canonicalize": ("expose_projection", "pushout_move", "flatten", "regularize"),
    "analysis": ("alexander_determinant", "radius_of_gyration"),
    "knotio": ("write_knots", "write_stats", "read_records"),
    "cli": ("main",),
}

PACKAGE = "thickknots"


def entry_names():
    return [f"{mod}.{fn}" for mod, fns in ENTRY_POINTS.items() for fn in fns]


class Tracer:
    """Timing wrappers around the entry points of one process's package.

    `hooks` maps an entry-point name to a callable that receives each
    return value of that entry point (used to tally chain-step outcomes).
    """

    def __init__(self, hooks=None):
        self.names = entry_names()
        self.hooks = dict(hooks or {})
        self.missing = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # spans, one slot per call: entry index, start, end, parent span
        self.span_fn = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._current = -1
        self._child = []      # time of traced children, one per open span
        self._patched = []    # (module, attribute, original)

    def install(self):
        package_modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for k, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(k, original, self.hooks.get(name))
            for holder in package_modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patched.append((holder, attr, original))
        return self

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, k, fn, hook):
        clock = time.perf_counter
        child = self._child
        calls, self_s = self.calls, self.self_s
        span_fn, span_start = self.span_fn, self.span_start
        span_end, span_parent = self.span_end, self.span_parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current
            index = len(span_fn)
            span_fn.append(k)
            span_parent.append(parent)
            span_end.append(0.0)
            self._current = index
            child.append(0.0)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[index] = end
                duration = end - start
                self_s[k] += duration - child.pop()
                calls[k] += 1
                if child:
                    child[-1] += duration
                self._current = parent
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def covered_s(self):
        return float(sum(self.self_s))

    def layer_metrics(self, rounds):
        """calls and self seconds per round for every entry point; None for
        an entry point the package no longer has."""
        out = {}
        for k, name in enumerate(self.names):
            missing = name in self.missing
            out[f"{name}.calls"] = (
                None if missing else self.calls[k] / rounds, "calls/round")
            out[f"{name}.self_s"] = (
                None if missing else self.self_s[k] / rounds, "s/round")
        return out

    def calls_of(self, name):
        return None if name in self.missing else self.calls[self.names.index(name)]

    def write_spans(self, path):
        """Save the spans as one .npz (names, fn, start, end, parent)."""
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.span_fn, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
        )
