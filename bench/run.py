"""Benchmark of the eaqec workbench: three workloads, checked outputs, named metrics.

    python3 bench/run.py --workload {entangle,enumerate,cli} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

A run builds the workload's inputs from the seed, then starts fresh child
processes: set-up-only children before and after one measuring child, which
sets up and runs the workload closed-loop (one client, no threads) for S
seconds.  With --trace 0 it prints the end-to-end metrics.  With --trace 1
the measuring child runs half of S untraced, then traced passes, a traced
layer sweep and the per-layer probes, and the per-layer metrics are printed.
The last stdout line is one JSON object; the full record goes to
bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import metrics  # noqa: E402
from child import MIN_PASSES  # noqa: E402
from runner import best_per_entry  # noqa: E402
from workloads import ROOT, child_env  # noqa: E402

# Set-up children started before and after the measuring child; with the
# measuring child's own set-up, setup_s is the median of 2 * SETUP_EACH_SIDE + 1
# set-ups taken at both ends of the run, so a slow spell of the machine at one
# end does not decide it.
SETUP_EACH_SIDE = 3
RESULTS = os.path.join(HERE, "results")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def machine_block() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "loadavg_before": _loadavg(),
        "child_env": {v: env[v] for v in THREAD_VARS},
    }


def spawn(mode: str, workload: str, seconds: int, payload: bytes, spans_path: str) -> dict:
    """Start one child, feed it the inputs, wait for it and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seconds)]
    t = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(t), spans_path], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
    try:
        out, _ = proc.communicate(payload, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{mode} child of {workload} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child of {workload} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def probe_inputs(seed: int) -> dict:
    """Inputs of the traced layer sweep and the probes, from the workloads' builders."""
    per_slot: dict[tuple, list] = {}
    for d in inputs.build("entangle", seed)["ops"]:
        per_slot.setdefault((d["kind"], d["field"]), []).append(d)
    mindist = {}
    for d in inputs.build("enumerate", seed)["ops"]:
        if d["kind"] == "min_distance":
            mindist.setdefault(d["field"], d)
    cli = inputs.build("cli", seed)
    return {
        "entangle": [d for ops in per_slot.values() for d in ops[:5]],
        "sweep": [d for ops in per_slot.values() for d in ops[:2]],
        "mindist": list(mindist.values()),
        "cli": {"dir": cli["dir"], "files": cli["files"]},
    }


def end_to_end(workload: str, res: dict, best: list[float],
               setups: list[float]) -> tuple[dict, dict]:
    """The five end-to-end figures of one run.

    Every executed op is taken at its op's best latency in the run (best-of-N
    timing).  The shared host has slow spells of seconds to minutes
    that swamp per-sample figures; the best of many samples of the same op is
    what a faster program moves.
    """
    n = len(best)
    samples = best * (len(res["latencies_s"]) // n)
    pct = metrics.tail_percentile(n * MIN_PASSES[workload])
    values = {
        "wall_s": sum(best),
        "op_ms_p50": statistics.median(samples) * 1e3,
        "op_ms_tail": metrics.percentile(samples, pct) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
    }
    beyond = len(samples) - metrics.rank_of(pct, len(samples))
    tail = {"percentile": pct, "ops": len(samples), "ops_beyond": beyond}
    return values, tail


def measure(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "eaqec", "__init__.py")):
        print("error: the program's sources (src/eaqec) are not in this checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    machine = machine_block()
    data = inputs.build(args.workload, args.seed)
    in_digest = inputs.digest(data)
    payload = dict(data, seed=args.seed)
    if args.trace:
        payload["probe"] = probe_inputs(args.seed)
    blob = json.dumps(payload).encode()
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.csv.gz")

    def setup_only() -> float:
        return spawn("setup", args.workload, args.seconds, blob, spans_path)["setup_s"]

    setups = [setup_only() for _ in range(SETUP_EACH_SIDE)]
    res = spawn("trace" if args.trace else "run", args.workload, args.seconds, blob, spans_path)
    setups.append(res["setup_s"])
    setups += [setup_only() for _ in range(SETUP_EACH_SIDE)]
    best = best_per_entry(res["latencies_s"], res["op_keys"])
    e2e, tail = end_to_end(args.workload, res, best, setups)
    machine["numpy"] = res["numpy"]
    machine["loadavg_after"] = _loadavg()

    section = spec["per_layer" if args.trace else "end_to_end"]
    values = res["per_layer"] if args.trace else e2e
    missing = [m["name"] for m in section if m["name"] not in values]
    printed = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section if m["name"] in values}
    correct = res["failed"] == 0 and not missing
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "inputs_digest": in_digest,
        "outputs_digest": res["outputs_digest"],
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "warmup_error": res["warmup_error"],
        "missing_metrics": missing,
        "metrics": printed,
        "tail": tail,
        "passes": len(res["pass_walls_s"]),
        "pass_walls_s": res["pass_walls_s"],
        "op_best_s": best,
        "setups_s": setups,
    }
    if args.trace:
        # not end-to-end metrics: this child ran traced passes and probes too
        record["traced_run"] = {"detail": res["trace"], "figures": e2e}
    with open(os.path.join(RESULTS, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": printed}))
    return 0 if correct else 1


def _runs(directory: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def compare(parent_dir: str, change_dir: str) -> int:
    """Parent vs change, per workload and end-to-end metric (choosing-metrics 6.5)."""
    spec = load_spec()
    parent, change = _runs(parent_dir), _runs(change_dir)
    print(f"{'workload':10} {'metric':12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change/parent':>13}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            p = [r["metrics"][name]["value"] for r in parent[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            sp, sc = metrics.summary(p), metrics.summary(c)
            ratio = sc["median"] / sp["median"]
            worse = ratio - 1 if lower else 1 - ratio
            if max(metrics.spread(p), metrics.spread(c)) > bound:
                every = all(x < y if lower else x > y for x in c for y in p)
                verdict = "better (every run)" if every else "unresolved (spread > bound)"
            elif worse > bound:
                verdict = f"REGRESSION (> {bound:.0%})"
            else:
                verdict = "better" if worse < 0 else "within bound"
            fmt = "{median:.6g} [{q1:.6g}, {q3:.6g}] n={n}"
            print(f"{workload:10} {name:12} {fmt.format(**sp):>34} {fmt.format(**sc):>34} "
                  f"{ratio:13.4f}  {verdict}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    try:
        return measure(args)
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
