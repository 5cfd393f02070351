"""Spans around every call into the package, installed from outside it.

``Tracer.install`` replaces each public function and classmethod of the
zonotools modules, in every namespace that binds it (the re-exports in
``zonotools`` and ``zonotools.convex`` included), and ``numpy.linalg.lstsq``
with a wrapper that records a span: name, start, end, parent, and for a few
calls a measured quantity (bytes, points, matrix shape, rank).  Spans stay
in memory; the worker writes them out when its job list ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

#: Module -> layer name used as the prefix of its spans.
LAYERS = {
    "zonotools": "sphere",  # the package root only re-exports sphere
    "zonotools.sphere": "sphere",
    "zonotools.harmonics": "harmonics",
    "zonotools.transforms": "transforms",
    "zonotools.convex": "convex",
    "zonotools.convex.support": "convex",
    "zonotools.convex.revolution": "convex",
    "zonotools.convex.fixtures": "convex",
    "zonotools.zonoid": "zonoid",
}

# Span fields, in the order stored.
NAME, START, END, PARENT, EXTRA = range(5)


def _path_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


def _points(args, kwargs):
    pts = kwargs.get("points", args[1] if len(args) > 1 else None)
    return {"points": int(np.shape(pts)[0])}


def _lstsq(args, kwargs, result):
    a = args[0]
    sv = result[3]
    ratio = float(sv[0] / sv[-1]) if len(sv) and sv[-1] > 0 else float("inf")
    return {"rows": a.shape[0], "cols": a.shape[1], "bytes": a.nbytes,
            "rank": int(result[2]), "sigma_ratio": ratio}


#: Measured quantities recorded before (from the arguments) or after a call.
BEFORE = {"harmonics.synthesize_points": _points}
AFTER = {
    "sphere.grid_to_csv": _path_bytes,
    "sphere.grid_from_csv": _path_bytes,
    "numpy.linalg.lstsq": _lstsq,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._classes = set()

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = BEFORE.get(name), AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if before is not None:
                span[EXTRA] = before(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                span[EXTRA] = after(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public binding of the package, and lstsq."""
        import zonotools.cli  # noqa: F401  (imports every module of the package)

        originals = {}  # id(original) -> wrapper, so a re-export gets the same one
        for mod in (sys.modules[m] for m in LAYERS):
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ in LAYERS:
                    self._wrap_classmethods(value, LAYERS[value.__module__])
                    continue
                home = getattr(value, "__module__", None)
                if not callable(value) or home not in LAYERS or inspect.isclass(value):
                    continue
                if id(value) not in originals:
                    originals[id(value)] = self.wrap(f"{LAYERS[home]}.{value.__name__}", value)
                setattr(mod, attr, originals[id(value)])
        np.linalg.lstsq = self.wrap("numpy.linalg.lstsq", np.linalg.lstsq)

    def _wrap_classmethods(self, cls, layer):
        if cls in self._classes:
            return
        self._classes.add(cls)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(raw, (classmethod, staticmethod)):
                continue
            wrapped = self.wrap(f"{layer}.{cls.__name__}.{attr}", raw.__func__)
            setattr(cls, attr, type(raw)(wrapped))
