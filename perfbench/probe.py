"""Run one ``gassym`` CLI campaign the way the installed ``gassym`` entry
point does (``sys.exit(gassym.cli.main())``), and record what the
benchmark needs from inside the process.

Usage: python3 probe.py <gassym arguments...>

Environment:
  PERFBENCH_OUT       JSON file written at exit.  It holds ``setup_mark``,
                      the ``time.monotonic()`` reading taken once
                      ``gassym.cli`` is imported and ``main`` is about to
                      run; the parent took the same clock at spawn.
  PERFBENCH_TRACE     "1" wraps the package's functions and records spans.
                      They are kept in memory and written at exit to the
                      PERFBENCH_OUT path with suffix ``.npz``.
  PERFBENCH_CAMPAIGN  campaign id stored with the spans.

The wrapping happens here, from outside the package: every function of
each gassym module, at every module that imported it by name, plus the
methods in ``METHODS`` and the rhs closure that
``numerics.velocity_function`` returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from array import array

MODULES = ("cli", "catalog", "classify", "fields", "liealg", "exprs", "submodel", "numerics")
METHODS = (
    ("liealg", "Subalgebra", "is_closed"),
    ("fields", "VectorField", "apply"),
    ("liealg", "LieAlgebra", "jacobi_report"),
)


class SpanRecorder:
    """Spans as parallel arrays: name index, parent span, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_idx.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def save(self, path: str, campaign: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            campaign=np.array(campaign, dtype=str),
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _is_package_function(obj) -> bool:
    plain = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
    return plain and getattr(obj, "__module__", "").startswith("gassym.")


def instrument(rec: SpanRecorder) -> list[str]:
    """Replace package functions by span-recording wrappers; return the
    span names that were wrapped."""
    mods = {name: sys.modules[f"gassym.{name}"] for name in MODULES if f"gassym.{name}" in sys.modules}
    wrappers: dict[int, object] = {}
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if not _is_package_function(obj):
                continue
            if id(obj) not in wrappers:
                name = f"{obj.__module__.removeprefix('gassym.')}.{obj.__qualname__}"
                wrappers[id(obj)] = rec.wrap(name, obj)
            setattr(mod, attr, wrappers[id(obj)])
    # dispatch tables such as cli._COMMANDS hold functions by value
    for mod in mods.values():
        for obj in vars(mod).values():
            if isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in wrappers and _is_package_function(val):
                        obj[key] = wrappers[id(val)]
    for modname, clsname, meth in METHODS:
        cls = getattr(mods.get(modname), clsname, None)
        if cls is not None and hasattr(cls, meth):
            setattr(cls, meth, rec.wrap(f"{modname}.{clsname}.{meth}", getattr(cls, meth)))

    numerics = mods.get("numerics")
    if numerics is not None and hasattr(numerics, "velocity_function"):
        velocity_function = numerics.velocity_function

        def with_traced_rhs(*args, **kwargs):
            return rec.wrap("numerics.rhs", velocity_function(*args, **kwargs))

        numerics.velocity_function = with_traced_rhs
        return list(rec.names) + ["numerics.rhs"]
    return list(rec.names)


def main() -> None:
    out_path = os.environ["PERFBENCH_OUT"]
    tracing = os.environ.get("PERFBENCH_TRACE") == "1"
    campaign = os.environ.get("PERFBENCH_CAMPAIGN", "")
    meta: dict = {"campaign": campaign}
    rec = None
    code = 1
    try:
        if tracing:
            t0 = time.perf_counter()
            import sympy  # noqa: F401

            t1 = time.perf_counter()
            import gassym.cli  # noqa: F401

            t2 = time.perf_counter()
            meta["import_sympy_s"] = t1 - t0
            meta["import_gassym_s"] = t2 - t1
            rec = SpanRecorder()
            meta["wrapped"] = instrument(rec)
        else:
            import gassym.cli  # noqa: F401
        cli = sys.modules["gassym.cli"]
        meta["setup_mark"] = time.monotonic()
        code = cli.main(sys.argv[1:])
    finally:
        if rec is not None:
            rec.save(out_path + ".npz", campaign)
        with open(out_path, "w") as fh:
            json.dump(meta, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
