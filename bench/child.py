"""One benchmark child process: set up, then run one workload closed-loop.

    python3 bench/child.py MODE WORKLOAD SECONDS SPAWN_T SPANS_PATH < inputs.json

MODE is ``setup`` (set up, report, exit), ``run`` (untraced passes for
SECONDS) or ``trace`` (untraced passes for half of SECONDS, then traced
passes, a traced layer sweep and the per-layer probes).  SPAWN_T is the
parent's ``time.monotonic()`` just before the spawn; set-up time runs from
there to ready, minus the time spent parsing the inputs.  The result is one
JSON object on the last line of stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from runner import Loop, Op, best_per_entry  # noqa: E402

# Passes every untraced run makes, however long they take.  enumerate's pass
# repeats its small ops many times, so two passes give each op enough samples.
MIN_PASSES = {"entangle": 3, "enumerate": 2, "cli": 3}
# Traced passes per workload: fixed, so every traced run covers the same work.
TRACE_PASSES = {"entangle": 2, "enumerate": 1, "cli": 1}


def op_keys(data: dict) -> list:
    """Identity of each op-list entry: entries with one key run the same op."""
    return [d.get("key", i) for i, d in enumerate(data["ops"])]


def load_goldens() -> dict:
    try:
        with open(workloads.GOLDENS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class CliTrace:
    """Where traced cli ops write their per-process span summaries."""

    def __init__(self):
        self.dir = None
        self.count = 0

    def path(self) -> str | None:
        if self.dir is None:
            return None
        self.count += 1
        return os.path.join(self.dir, f"{self.count}.json")


def setup(workload: str, data: dict, cli_trace: CliTrace):
    """Imports, field construction and warm-up; returns (ops, specs, warm-up error).

    A warm-up call that raises does not stop the run: the same defect fails,
    and is counted, in the measured passes.
    """
    if workload == "cli":
        workloads.write_cli_files(data)
        workloads.run_eaqec(["gv", "--spec", "4,2,8,4", "--quiet"])
        return workloads.cli_ops(data, load_goldens(), cli_trace.path), None, None
    specs = workloads.field_specs()
    entangle = workload == "entangle"
    ops = (workloads.entangle_ops if entangle else workloads.enumerate_ops)(data, specs)
    try:
        if entangle:
            workloads.entangle_warmup(ops, data)
        else:
            workloads.enumerate_warmup(specs)
    except Exception as e:
        return ops, specs, f"{type(e).__name__}: {e}"
    return ops, specs, None


def sweep_ops(probe: dict, specs: dict) -> list[Op]:
    """Layer sweep: a few entangle ops and one in-process main(argv) per subcommand."""
    from eaqec import cli

    from probes import first_per_subcommand

    goldens = load_goldens()
    ops = workloads.entangle_ops({"ops": probe["sweep"]}, specs)
    for name, argv in first_per_subcommand():
        gold = goldens.get(name)

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(out, gold=gold):
            if gold is None:
                return "no golden recorded for this op"
            return None if list(out) == [gold["exit"], gold["stdout"]] else "differs from the golden"

        ops.append(Op(f"sweep:{name}", "main", run, check, lambda out: list(out)))
    return ops


def trace(workload: str, data: dict, loop: Loop, seconds: float, specs, cli_trace: CliTrace,
          spans_path: str) -> dict:
    import probes
    from tracer import MODULES, Tracer

    probe = data["probe"]
    specs = specs or workloads.field_specs()
    workloads.write_cli_files(probe["cli"])
    loop.run_for(seconds / 2, 1)
    untraced = loop.passes

    tracer = Tracer()
    wrapped = tracer.install()
    if workload == "cli":
        cli_trace.dir = os.path.join(os.path.dirname(spans_path), f"cli-spans-{os.getpid()}")
        os.makedirs(cli_trace.dir, exist_ok=True)
    traced_walls = [loop.one_pass(tracer, op_base=k * len(loop.ops))
                    for k in range(TRACE_PASSES[workload])]
    passes_end = len(tracer.start)
    sweep = Loop(sweep_ops(probe, specs))
    sweep_base = 10**6
    sweep.one_pass(tracer, op_base=sweep_base)
    tracer.uninstall()
    tracer.write(spans_path)

    by_name = tracer.self_times()
    pass_by_name = tracer.self_times(0, passes_end)
    if cli_trace.dir is not None:
        for fn in sorted(os.listdir(cli_trace.dir)):
            with open(os.path.join(cli_trace.dir, fn), encoding="utf-8") as fh:
                summary = json.load(fh)
            for name, s in summary["self_s"].items():
                by_name[name] = by_name.get(name, 0.0) + s
                pass_by_name[name] = pass_by_name.get(name, 0.0) + s
            os.remove(os.path.join(cli_trace.dir, fn))
        os.rmdir(cli_trace.dir)

    def per_module(times):
        out = {m: 0.0 for m in MODULES}
        for name, s in times.items():
            mod = name.split(".", 1)[0]
            if mod in out:
                out[mod] += s
        return out

    layer = {f"{m}.self_s": s for m, s in per_module(by_name).items()}
    for kind in ("css", "hermitian"):
        ids = {sweep_base + i for i, op in enumerate(sweep.ops) if op.kind == kind}
        calls = tracer.calls_in_ops("matrix.MatrixGF.rref", ids, passes_end)
        layer[f"matrix.rref_calls_per_op.{kind}"] = calls / len(ids)
    # wall_s's basis: the sum of per-op bests, traced passes against untraced
    n, keys = len(loop.ops), op_keys(data)
    lat = loop.latencies
    layer["trace.overhead_s"] = (sum(best_per_entry(lat[untraced * n:], keys))
                                 - sum(best_per_entry(lat[:untraced * n], keys)))

    layer.update(probes.gf_probes(data["seed"]))
    layer.update(probes.matrix_code_probes(probe, specs, data["seed"]))
    layer.update(probes.ensemble_probes())
    layer.update(probes.concat_bounds_probes())
    layer.update(probes.cli_probes())
    return {
        "per_layer": layer,
        "trace": {
            "wrapped_functions": wrapped,
            "spans": len(tracer.start),
            "untraced_walls_s": loop.pass_walls[:untraced],
            "traced_walls_s": traced_walls,
            "traced_passes_self_s_per_module": per_module(pass_by_name),
            "sweep": {"attempted": sweep.attempted, "failures": sweep.failures},
        },
        "sweep_failed": sweep.failed,
        "sweep_attempted": sweep.attempted,
    }


def main() -> None:
    mode, workload, seconds, spawn, spans_path = sys.argv[1:6]
    t_read = time.monotonic()
    data = json.load(sys.stdin)
    read_s = time.monotonic() - t_read
    cli_trace = CliTrace()
    ops, specs, warmup_error = setup(workload, data, cli_trace)
    result = {"setup_s": time.monotonic() - float(spawn) - read_s,
              "warmup_error": warmup_error}
    if mode != "setup":
        loop = Loop(ops)
        if mode == "run":
            loop.run_for(float(seconds), MIN_PASSES[workload])
        else:
            result.update(trace(workload, data, loop, float(seconds), specs, cli_trace, spans_path))
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        import numpy

        result.update({
            "latencies_s": loop.latencies,
            "pass_walls_s": loop.pass_walls,
            "op_keys": op_keys(data),
            "attempted": loop.attempted + result.pop("sweep_attempted", 0),
            "failed": loop.failed + result.pop("sweep_failed", 0),
            "failures": loop.failures[:20],
            "outputs_digest": loop.outputs_digest(),
            "maxrss_kb": resource.getrusage(who).ru_maxrss,
            "numpy": numpy.__version__,
        })
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
