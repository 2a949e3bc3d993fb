"""In-memory span tracer that wraps rksv's public functions from outside.

A span is (name, start, end, parent).  Spans are appended to flat arrays
while the traced code runs, written to one file when the run ends, and
reduced to per-name call counts, inclusive time and self time (span
duration minus the durations of its direct children).

Nothing in ``src/`` knows about the tracer: ``install`` replaces module
attributes and two class attributes, and every by-name import of a wrapped
function elsewhere in the package (``harness`` binds ``integrate``,
``error_norms``, ``project_initial`` and ``apply_L`` at import time, ``cli``
binds the analyzer functions) is rebound to the same wrapper.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

TRACED_MODULES = ("quadrature", "mesh", "sv_space", "ssp_rk", "petrov_galerkin",
                  "matrix_transfer", "harness", "cli")


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()

        return traced

    def __len__(self):
        return len(self.name_id)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive ns, self ns)."""
        if not len(self):
            return {}
        name_id, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        self_ns = dur - child_ns
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        incl = np.bincount(name_id, weights=dur, minlength=n)
        own = np.bincount(name_id, weights=self_ns, minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def write(self, path):
        """Write every span once, as flat arrays plus the name table."""
        name_id, parent, start, end = self.arrays()
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name_id=name_id, parent=parent,
                     start_ns=start, end_ns=end)


def _is_public_callable(module, name, obj) -> bool:
    return (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__)


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public functions and the hot class methods."""
    mods = {short: sys.modules[f"rksv.{short}"] for short in TRACED_MODULES}
    replaced: dict[int, object] = {}

    def replace(owner, attr, span_name):
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span_name, original)
        setattr(owner, attr, wrapper)
        replaced[id(original)] = wrapper

    for short, module in mods.items():
        for name, obj in list(vars(module).items()):
            if _is_public_callable(module, name, obj):
                replace(module, name, f"{short}.{name}")
    op = mods["sv_space"].SpatialOperator
    op.__init__ = tracer.wrap("sv_space.operator_init", op.__init__)
    op.tendency = tracer.wrap("sv_space.tendency", op.tendency)
    # one span per cold transfer; the public functions are lru-cached around it
    replace(mods["matrix_transfer"], "_run_transfer", "matrix_transfer.run_transfer")

    registry = mods["harness"].PROBLEM_REGISTRY
    for key, definition in list(registry.items()):
        registry[key] = dataclasses.replace(definition,
                                            make=_traced_make(tracer, definition.make))

    for modname, module in list(sys.modules.items()):
        if modname != "rksv" and not modname.startswith("rksv."):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and wrapper is not obj:
                setattr(module, name, wrapper)


def _traced_make(tracer, make):
    def traced_make():
        problem = make()
        if problem.source is not None:
            problem.source = tracer.wrap("harness.source", problem.source)
        return problem

    return traced_make
