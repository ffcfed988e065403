"""`python -m eaqec ARGS` with the benchmark's tracer installed (traced runs only).

Writes the span summary of this one process (self seconds per span name and
the span count) as JSON to $BENCH_SPANS_OUT when main returns, then exits
with main's code, exactly as ``python -m eaqec`` would.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def run() -> int:
    tracer = Tracer()
    tracer.install()
    import eaqec.cli

    try:
        return tracer.span("op.cli", eaqec.cli.main, sys.argv[1:])
    finally:
        sys.stdout.flush()
        with open(os.environ["BENCH_SPANS_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"self_s": tracer.self_times(), "spans": len(tracer.start)}, fh)


if __name__ == "__main__":
    sys.exit(run())
