"""Per-layer probes: time calls into each layer's public functions, untraced.

Each probe takes the median over repeats.  Inputs come from the same seeded
builders as the workloads (``probe`` block of the child's inputs), so the
matrix, code and entanglement probes run on entangle's own matrices and the
distance probe on enumerate's own codes.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from gfref import FIELDS
from inputs import CLI_SCRIPT
from workloads import ROOT, child_env

REPS = 5


def _median_s(fn, reps=REPS) -> float:
    times = []
    for _ in range(reps):
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return statistics.median(times)


def _per_call_s(fn, items, reps=REPS) -> float:
    """Median over repeats of (time for fn over all items) / len(items)."""
    def loop():
        for it in items:
            fn(it)
    return _median_s(loop, reps) / len(items)


def gf_probes(seed: int) -> dict:
    from eaqec.gf import FieldSpec

    out = {}
    for key, (p, m) in FIELDS.items():
        rng = random.Random(f"gf:{seed}:{key}")
        spec = FieldSpec(p, m)
        q = spec.q
        pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(2048)]
        nz = [a for a, _ in pairs]
        mul, add, inv = spec.mul, spec.add, spec.inv
        out[f"gf.mul_ns.{key}"] = _per_call_s(lambda ab: mul(*ab), pairs) * 1e9
        out[f"gf.add_ns.{key}"] = _per_call_s(lambda ab: add(*ab), pairs) * 1e9
        out[f"gf.inv_ns.{key}"] = _per_call_s(inv, nz) * 1e9
        # rref's update shapes: (rows, 1) factors times one (1, n) pivot row,
        # and the (rows, inner, cols) products that MatrixGF.mul reduces.
        col = np.array([[rng.randrange(q)] for _ in range(8)], dtype=np.int64)
        row = np.array([[rng.randrange(q) for _ in range(12)]], dtype=np.int64)
        blk = np.array([[rng.randrange(q) for _ in range(12)] for _ in range(8)], dtype=np.int64)
        prod = np.array([[[rng.randrange(q) for _ in range(6)] for _ in range(12)]
                         for _ in range(6)], dtype=np.int64)
        spec.vmul(col, row)
        reps200 = range(200)
        out[f"gf.vmul_us.{key}"] = _per_call_s(lambda _: spec.vmul(col, row), reps200) * 1e6
        out[f"gf.vsub_us.{key}"] = _per_call_s(lambda _: spec.vsub(blk, blk[::-1]), reps200) * 1e6
        out[f"gf.vsum_us.{key}"] = _per_call_s(lambda _: spec.vsum(prod, axis=1), reps200) * 1e6

        def first_vector_op():
            FieldSpec(p, m).vmul(col, row)
        out[f"gf.table_build_ms.{key}"] = _median_s(first_vector_op, 3) * 1e3
    return out


def matrix_code_probes(probe: dict, specs: dict, seed: int) -> dict:
    from eaqec.codes import ClassicalCode, min_distance
    from eaqec.eaqecc import css_entanglement, hermitian_entanglement
    from eaqec.matrix import MatrixGF

    out = {}
    for key, spec in specs.items():
        ops = [d for d in probe["entangle"] if d["field"] == key]
        css = [d for d in ops if d["kind"] == "css"]
        gens = [MatrixGF(spec, g) for d in ops for g in (d["g1"], d.get("g2")) if g]
        rng = random.Random(f"stack:{seed}:{key}")
        stacks = [MatrixGF(spec, [[rng.randrange(spec.q) for _ in range(12)]
                                  for _ in range(rng.randrange(13, 25))]) for _ in range(16)]
        pairs = [(ClassicalCode.from_generator(MatrixGF(spec, d["g1"])),
                  ClassicalCode.from_generator(MatrixGF(spec, d["g2"]))) for d in css]
        hts = [(a.H, b.H.transpose()) for a, b in pairs]
        out[f"matrix.rref_us.{key}.small"] = _per_call_s(lambda m: m.rref(), gens) * 1e6
        out[f"matrix.rref_us.{key}.stack"] = _per_call_s(lambda m: m.rref(), stacks) * 1e6
        out[f"matrix.mul_us.{key}"] = _per_call_s(lambda ab: ab[0].mul(ab[1]), hts) * 1e6
        out[f"matrix.nullspace_us.{key}"] = _per_call_s(lambda m: m.nullspace(), gens) * 1e6
        out[f"codes.construct_us.{key}"] = _per_call_s(ClassicalCode.from_generator, gens) * 1e6
        out[f"eaqecc.css_us.{key}"] = _per_call_s(lambda ab: css_entanglement(*ab), pairs) * 1e6
        herm = [d for d in ops if d["kind"] == "hermitian"]
        if herm:
            codes = [(ClassicalCode.from_generator(MatrixGF(spec, d["g1"])), d["base"]) for d in herm]
            out[f"eaqecc.hermitian_us.{key}"] = _per_call_s(
                lambda cb: hermitian_entanglement(*cb), codes) * 1e6
        md = next(d for d in probe["mindist"] if d["field"] == key)
        code = ClassicalCode.from_generator(MatrixGF(spec, md["g"]))
        words = spec.q ** code.k
        out[f"codes.min_distance_words_per_s.{key}"] = words / _median_s(
            lambda: min_distance(code))
    return out


def ensemble_probes() -> dict:
    from eaqec.ensemble import ensemble_exhaustive, nt_w_bruteforce, psi_t

    return {
        "ensemble.nt_w_vectors_per_s": 4**10 / _median_s(lambda: nt_w_bruteforce(2, 5), 3),
        "ensemble.psi_t_us": _per_call_s(lambda t: psi_t(2, 6, t), range(7)) * 1e6,
        "ensemble.exhaustive_ms": _median_s(lambda: ensemble_exhaustive(3, 2, 2, 1)) * 1e3,
    }


def concat_bounds_probes() -> dict:
    from eaqec.bounds import curves_to_csv, gv_root_x0, sample_curve
    from eaqec.concat import audit_tables, concatenate, load_bundled_tables
    from eaqec.eaqecc import parse_params

    rows = load_bundled_tables()
    inner, outer = parse_params("4,2,2,0,2"), parse_params("25,13,12,12,4")
    grid = [i / 1000 for i in range(751)]
    curves = [sample_curve("C5", grid, m=4), sample_curve("C7", grid, m=6),
              sample_curve("GV", grid, ce=0.0)]
    return {
        "concat.load_tables_ms": _median_s(load_bundled_tables) * 1e3,
        "concat.audit_rows_per_s": len(rows) / _median_s(lambda: audit_tables(rows)),
        "concat.concatenate_us": _per_call_s(lambda _: concatenate(inner, outer), range(500)) * 1e6,
        "bounds.sample_curve_us": _median_s(lambda: sample_curve("C5", grid, m=4)) * 1e6,
        "bounds.csv_ms": _median_s(lambda: curves_to_csv(grid, curves)) * 1e3,
        "bounds.gv_root_us": _per_call_s(lambda _: gv_root_x0(0.5, 0.25), range(50)) * 1e6,
    }


def _spawn_s(code: str) -> float:
    t = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return perf_counter() - t


def cli_probes() -> dict:
    """Interpreter start, import costs, and in-process main(argv) per subcommand.

    The three start-up variants are interleaved, so drift hits them alike;
    each import cost is a difference of medians.
    """
    from eaqec.cli import main

    codes = ("pass", "import numpy", "import eaqec.cli")
    times = {c: [] for c in codes}
    for _ in range(7):
        for c in codes:
            times[c].append(_spawn_s(c))
    interp, numpy_s, eaqec_s = (statistics.median(times[c]) * 1e3 for c in codes)
    out = {
        "cli.interp_ms": interp,
        "cli.import_numpy_ms": numpy_s - interp,
        "cli.import_eaqec_ms": eaqec_s - numpy_s,
    }
    for _, argv in first_per_subcommand():
        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv)
        out[f"cli.main_ms.{argv[0]}"] = _median_s(call, 3) * 1e3
    return out


def first_per_subcommand() -> list[tuple[str, list[str]]]:
    """(op name, argv) of the first op of each subcommand in the fixed cli script."""
    seen = {}
    for name, argv in CLI_SCRIPT:
        seen.setdefault(argv[0], (name, argv))
    return [seen[k] for k in sorted(seen)]
