"""Closed-loop pass runner: one client, each op issued after the previous ends.

Knows nothing of the program: an op is a callable plus a check.  A failing
op (it raises, or its check returns a message, or its output differs from the
first pass) is recorded and the pass goes on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _no_check(out):
    return None


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None] = _no_check
    # JSON-able form of the output, for the outputs digest and the
    # pass-to-pass comparison.
    form: Callable[[object], object] = repr


class Loop:
    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.first: list[object] = [None] * len(ops)
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.passes = 0

    def one_pass(self, tracer=None, op_base: int = 0) -> float:
        """Run every op once; returns the pass wall time in seconds."""
        t0 = perf_counter()
        for i, op in enumerate(self.ops):
            self.attempted += 1
            err = None
            start = perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    tracer.op_id = op_base + i
                    out = tracer.span(f"op.{op.kind}", op.run)
            except Exception as e:  # an op failure is data, not a crash
                self.latencies.append(perf_counter() - start)
                err = f"{type(e).__name__}: {e}"
            else:
                self.latencies.append(perf_counter() - start)
                try:
                    err = op.check(out)
                    form = op.form(out)
                except Exception as e:
                    err = f"check raised {type(e).__name__}: {e}"
                if err is None:
                    if self.passes == 0:
                        self.first[i] = form
                    elif form != self.first[i]:
                        err = "output differs from the first pass"
            if err is not None:
                self.failures.append({"op": op.name, "pass": self.passes, "error": err})
        wall = perf_counter() - t0
        self.pass_walls.append(wall)
        self.passes += 1
        return wall

    def run_for(self, seconds: float, min_passes: int) -> None:
        """Untraced passes until min_passes are done and another would overrun seconds."""
        t0 = perf_counter()
        first = self.passes
        while True:
            wall = self.one_pass()
            done = self.passes - first >= min_passes
            if done and perf_counter() - t0 + wall > seconds:
                return

    @property
    def failed(self) -> int:
        return len(self.failures)

    def outputs_digest(self) -> str:
        blob = json.dumps(self.first, sort_keys=True, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()


def best_per_entry(latencies: list[float], keys: list) -> list[float]:
    """For each op-list entry, the best (lowest) latency of its op in these passes.

    latencies runs pass after pass over the op list; entries with the same
    key are the same op on the same input and share one best.
    """
    best: dict = {}
    for j, x in enumerate(latencies):
        k = keys[j % len(keys)]
        best[k] = min(best.get(k, x), x)
    return [best[k] for k in keys]
