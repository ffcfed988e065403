"""Workload ops for the child process: each op calls the program's public API.

Imports eaqec only inside functions, so the parent (and the benchmark's own
tests) can import this module's names without the program.  Ops look the
program's functions up as module attributes at call time, so a traced run's
wrappers (installed after the ops are built) see every call.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

from gfref import FIELDS
from runner import Op

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
GOLDENS = os.path.join(BENCH, "goldens", "cli.json")


def child_env() -> dict:
    """Environment of every process the benchmark starts: single-threaded BLAS."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def field_specs() -> dict:
    from eaqec.gf import FieldSpec

    return {key: FieldSpec(p, m) for key, (p, m) in FIELDS.items()}


# --- entangle ---


def entangle_ops(data: dict, specs: dict) -> list[Op]:
    from eaqec import codes, eaqecc, matrix

    ops = []
    for i, d in enumerate(data["ops"]):
        spec = specs[d["field"]]
        n, want = d["n"], d["c"]
        if d["kind"] == "css":
            limit = n - max(len(d["g1"]), len(d["g2"]))

            def run(spec=spec, g1=d["g1"], g2=d["g2"]):
                c1 = codes.ClassicalCode.from_generator(matrix.MatrixGF(spec, g1))
                c2 = codes.ClassicalCode.from_generator(matrix.MatrixGF(spec, g2))
                return eaqecc.css_entanglement(c1, c2)
        else:
            limit = n - len(d["g1"])

            def run(spec=spec, g1=d["g1"], base=d["base"]):
                code = codes.ClassicalCode.from_generator(matrix.MatrixGF(spec, g1))
                return eaqecc.hermitian_entanglement(code, base)

        def check(c, want=want, limit=limit):
            if not 0 <= c <= limit:
                return f"c={c} outside [0, {limit}]"
            if c != want:
                return f"c={c}, reference rank gives {want}"
            return None

        ops.append(Op(f"{i}:{d['kind']}:{d['field']}:n{n}", d["kind"], run, check, int))
    return ops


def entangle_warmup(ops: list[Op], data: dict) -> None:
    """Run the first op of each (construction, field) slot once."""
    seen = set()
    for op, d in zip(ops, data["ops"]):
        if (d["kind"], d["field"]) not in seen:
            seen.add((d["kind"], d["field"]))
            op.run()


# --- enumerate ---


def enumerate_ops(data: dict, specs: dict) -> list[Op]:
    from eaqec import codes, ensemble, matrix

    ops = []
    for i, d in enumerate(data["ops"]):
        kind = d["kind"]
        if kind == "nt_w":
            n1, n2 = d["n1"], d["n2"]

            def run(n1=n1, n2=n2):
                table = ensemble.nt_w_bruteforce(n1, n2)
                return table, [ensemble.psi_t(n1, n2, t) for t in range(n2 + 1)]

            def check(out, n1=n1, n2=n2):
                table, polys = out
                ne = n1 * n2
                if int(table.sum()) != 4**ne:
                    return f"table counts {int(table.sum())} vectors, expected 4^{ne}"
                for t, poly in enumerate(polys):
                    for w in range(ne + 1):
                        if int(table[t, w]) != poly.coefficient(w):
                            return f"N_{t}({w}) = {int(table[t, w])} but psi_t gives {poly.coefficient(w)}"
                return None

            ops.append(Op(f"{i}:nt_w:{n1}x{n2}", kind, run, check, lambda out: out[0].tolist()))
        elif kind in ("min_distance", "anchor"):
            spec, g, n, k = specs[d["field"]], d["g"], d["n"], d["k"]
            known = d.get("d")

            def run(spec=spec, g=g):
                return codes.min_distance(codes.ClassicalCode.from_generator(matrix.MatrixGF(spec, g)))

            def check(dist, n=n, k=k, known=known):
                if not dist.is_exact:
                    return f"distance not exact: {dist}"
                if known is not None and dist.value != known:
                    return f"d={dist.value}, known d={known}"
                # generators have no zero row in P, so no weight-1 codeword
                lo = 1 if known is not None else 2
                if not lo <= dist.value <= n - k + 1:
                    return f"d={dist.value} outside [{lo}, {n - k + 1}]"
                return None

            label = d.get("name") or f"{d['field']}:[{n},{k}]"
            ops.append(Op(f"{i}:{kind}:{label}", kind, run, check, lambda dist: dist.value))
        else:
            spec4 = tuple(d["spec"])

            def run(spec4=spec4):
                return ensemble.ensemble_exhaustive(*spec4)

            def check(report):
                return None if report.all_passed else "ensemble identity violated"

            ops.append(Op(f"{i}:ensemble:{spec4}", kind, run, check, lambda r: r.render()))
    return ops


def enumerate_warmup(specs: dict) -> None:
    from eaqec.codes import ClassicalCode, min_distance
    from eaqec.ensemble import ensemble_exhaustive, nt_w_bruteforce, psi_t
    from eaqec.matrix import MatrixGF

    nt_w_bruteforce(1, 2)
    psi_t(1, 2, 1)
    ensemble_exhaustive(2, 1, 2, 1)
    for spec in specs.values():
        min_distance(ClassicalCode.from_generator(MatrixGF(spec, [[1, 1, 1], [0, 1, 2 % spec.q]])))


# --- cli ---


def write_cli_files(data: dict) -> None:
    d = os.path.join(ROOT, data["dir"])
    os.makedirs(d, exist_ok=True)
    for name, text in data["files"].items():
        with open(os.path.join(d, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def run_eaqec(argv: list[str], traced_out: str | None = None) -> tuple[int, bytes]:
    """One fresh-process invocation of the CLI; returns exit code and stdout."""
    env = child_env()
    if traced_out is None:
        cmd = [sys.executable, "-m", "eaqec", *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH, "cli_traced.py"), *argv]
        env["BENCH_SPANS_OUT"] = traced_out
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=120)
    return proc.returncode, proc.stdout


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_ops(data: dict, goldens: dict, traced_out=None) -> list[Op]:
    """traced_out() gives the span file of a traced op, or None when untraced."""
    ops = []
    for i, d in enumerate(data["ops"]):
        gold = goldens.get(d["name"])

        def run(argv=d["argv"]):
            return run_eaqec(argv, traced_out() if traced_out else None)

        def check(out, gold=gold):
            code, stdout = out
            if gold is None:
                return "no golden recorded for this op"
            if code != gold["exit"]:
                return f"exit code {code}, golden {gold['exit']}"
            if stdout.decode("utf-8", "replace") != gold["stdout"]:
                return "stdout differs from the golden"
            return None

        ops.append(Op(f"{i}:{d['name']}", d["argv"][0], run, check,
                      lambda out: [out[0], sha(out[1])]))
    return ops
