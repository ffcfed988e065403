"""Span tracer that wraps the program's public functions at run time.

Used only by traced runs.  ``install`` replaces each public function and
method of the eaqec modules with a wrapper that records a span (name, start,
end, parent, op id); a name another module imported directly is replaced at
that module's attribute too, e.g. ``eaqec.eaqecc.rowspace_intersection_dim``.
Scalar field operations are left alone: they run millions of times and their
cost is measured by the ``gf.*_ns`` probes instead, landing in the caller's
self time.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from time import perf_counter

MODULES = ("gf", "matrix", "codes", "eaqecc", "concat", "bounds", "ensemble", "cli")

# Per-element field arithmetic, never wrapped.
_SCALAR = {
    ("gf", name) for name in (
        "FieldSpec.add", "FieldSpec.neg", "FieldSpec.sub", "FieldSpec.mul",
        "FieldSpec.pow", "FieldSpec.inv", "FieldSpec.frobenius", "FieldSpec.coeffs",
        "FieldSpec.from_coeffs", "FieldSpec.element", "FieldSpec.elements",
        "add", "sub", "mul", "inv", "frobenius_q",
    )
}
_SKIP_CLASSES = {("gf", "FieldElement")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---

    def _intern(self, name: str) -> int:
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
        return ix

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        ix = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(ix)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[ix] = perf_counter()
            self._stack.pop()

    def _wrapper(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return traced

    # --- installing wrappers ---

    def install(self) -> int:
        """Wrap every public eaqec function and method; returns how many."""
        mods = {m: importlib.import_module(f"eaqec.{m}") for m in MODULES}
        everywhere = [importlib.import_module("eaqec"), *mods.values()]
        count = 0
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if (short, attr) in _SCALAR or inspect.isgeneratorfunction(obj):
                        continue
                    wrapped = self._wrapper(f"{short}.{attr}", obj)
                    for holder in everywhere:
                        for name, val in list(vars(holder).items()):
                            if val is obj:
                                self._set(holder, name, wrapped)
                    count += 1
                elif inspect.isclass(obj) and (short, attr) not in _SKIP_CLASSES:
                    count += self._wrap_class(short, obj)
        return count

    def _wrap_class(self, short: str, cls) -> int:
        count = 0
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            qual = f"{cls.__name__}.{attr}"
            if (short, qual) in _SCALAR:
                continue
            kind = type(val) if isinstance(val, (classmethod, staticmethod)) else None
            fn = val.__func__ if kind else val
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            wrapped = self._wrapper(f"{short}.{qual}", fn)
            self._set(cls, attr, kind(wrapped) if kind else wrapped)
            count += 1
        return count

    def _set(self, holder, name, value):
        self._undo.append((holder, name, vars(holder)[name]))
        setattr(holder, name, value)

    def uninstall(self):
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    # --- analysis ---

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self seconds per span name over spans [first, last).

        A span's self time is its duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        last = len(self.start) if last is None else last
        own = {}
        child = [0.0] * (last - first)
        for i in range(last - 1, first - 1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur
            name = self.names[self.name[i]]
            own[name] = own.get(name, 0.0) + dur - child[i - first]
        return own

    def calls_in_ops(self, name: str, op_ids, first: int = 0) -> int:
        """Number of spans named name, from span first on, inside the given ops."""
        ix = self._index.get(name)
        return sum(1 for i in range(first, len(self.start))
                   if self.name[i] == ix and self.op[i] in op_ids)

    def write(self, path: str):
        """All spans as gzip CSV: id, parent, op, name, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.op[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")
