"""Command-line surface: construction drivers, table audit, bound curves.

Exit codes: 0 success, 1 audit mismatch, 2 parse error, 3 domain or
construction error.  Output is deterministic; `--quiet` drops the version
banner and `--json` adds one JSON record per result line on stdout.

Matrix files are plain text, UTF-8, LF: a header `q <size> poly <c0,...,cm>`
naming the field (modulus coefficients ascending), then one parity-check row
per line as whitespace-separated integers in [0, q).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import DEFAULT_BUDGET, BadFamilyParams, DomainError, EaqecError, ParseError

# Each subcommand imports the layers it calls, so that only the ones that
# read matrix files (css, hermitian, mindist) load numpy.  The others, the
# parameter subcommands, also leave dataclasses and inspect unloaded, and
# json too unless --json asks for records.
if TYPE_CHECKING:
    from .codes import ClassicalCode
    from .eaqecc import EaqeccParams
    from .matrix import MatrixGF


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from None


def read_matrix_file(path: str) -> MatrixGF:
    """Parse a matrix file; all failures surface as ParseError."""
    from .gf import field_of_order
    from .matrix import MatrixGF

    lines = [ln.strip() for ln in _read_text(path).splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "q" or head[2] != "poly":
        raise ParseError(f"{path}: header must be 'q <size> poly <c0,...,cm>'")
    try:
        q = int(head[1])
        coeffs = tuple(int(tok) for tok in head[3].split(","))
    except ValueError:
        raise ParseError(f"{path}: malformed header numbers") from None
    try:
        spec = field_of_order(q, coeffs)
    except EaqecError as e:
        raise ParseError(f"{path}: bad field header: {e}") from None
    rows = []
    width = None
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise ParseError(f"{path}: non-integer matrix entry in {ln!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}: ragged row {ln!r}")
        if any(not 0 <= v < q for v in row):
            raise ParseError(f"{path}: entry out of range [0, {q})")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no matrix rows")
    return MatrixGF(spec, rows)


class _Out:
    """Collects printed lines; JSON records interleave deterministically."""

    def __init__(self, quiet: bool, as_json: bool):
        self.as_json = as_json
        if not quiet:
            print(f"# eaqec {__version__}")

    def line(self, text: str):
        print(text)

    def record(self, obj: dict):
        if self.as_json:
            import json

            print(json.dumps(obj, sort_keys=True))


def _emit_code(out: _Out, command: str, code: EaqeccParams) -> None:
    from .eaqecc import ea_singleton_defect, format_params

    defect = ea_singleton_defect(code)
    maximal = "yes" if code.is_maximal else "no"
    out.line(
        f"{code.render()} net={code.net} hbar_e={defect.value} "
        f"class={defect.label} maximal={maximal}"
    )
    out.record(
        {
            "command": command,
            "params": format_params(code),
            "net": code.net,
            "hbar_e": defect.value,
            "class": defect.label,
            "maximal": code.is_maximal,
        }
    )


def _code_from_file(path: str, budget: int) -> ClassicalCode:
    from .codes import ClassicalCode, min_distance

    code = ClassicalCode.from_parity_check(read_matrix_file(path))
    return code.with_distance(min_distance(code, budget=budget))


def cmd_css(args, out: _Out) -> int:
    from .eaqecc import css_construct

    c1 = _code_from_file(args.c1, args.budget)
    c2 = _code_from_file(args.c2, args.budget)
    _emit_code(out, "css", css_construct(c1, c2))
    return 0


def cmd_hermitian(args, out: _Out) -> int:
    from .eaqecc import hermitian_construct

    code = _code_from_file(args.code, args.budget)
    _emit_code(out, "hermitian", hermitian_construct(code, args.base))
    return 0


def cmd_concat(args, out: _Out) -> int:
    """concat, extend and expurgate: concatenate, then apply the named transform."""
    from . import concat
    from .eaqecc import parse_params

    code = concat.concatenate(parse_params(args.inner), parse_params(args.outer))
    if args.command != "concat":
        code = getattr(concat, args.command)(code, args.t)
    _emit_code(out, args.command, code)
    return 0


def cmd_audit(args, out: _Out) -> int:
    from .concat import audit_tables, load_bundled_tables, parse_table_file

    if args.tables is None:
        rows = load_bundled_tables()
    else:
        rows = parse_table_file(_read_text(args.tables))
    verdicts = audit_tables(rows)
    for verdict in verdicts:
        row = verdict.row
        mismatches = "; ".join(
            f"{m.field} expected={m.expected} published={m.published}"
            for m in verdict.mismatches
        )
        if verdict.consistent:
            status = "consistent"
        elif verdict.known:
            status = "MISMATCH (known) " + mismatches
        else:
            status = "MISMATCH " + mismatches
        out.line(f"{row.label()} {row.published.render()}: {status}")
        out.record(
            {
                "command": "audit",
                "table": row.table,
                "index": row.index,
                "published": row.published.render(),
                "consistent": verdict.consistent,
                "known": verdict.known,
                "mismatches": [
                    {"field": m.field, "expected": m.expected, "published": m.published}
                    for m in verdict.mismatches
                ],
            }
        )
    consistent = sum(v.consistent for v in verdicts)
    known = sum(v.known for v in verdicts)
    unexpected = len(verdicts) - consistent - known
    out.line(
        f"rows={len(verdicts)} consistent={consistent} "
        f"known_issues={known} unexpected={unexpected}"
    )
    return 1 if unexpected or (known and not args.allow_known) else 0


def _parse_m_range(text: str) -> range:
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError:
        raise ParseError(f"bad m range {text!r}; expected 'a..b'") from None
    if hi < lo:
        raise ParseError(f"empty m range {text!r}")
    return range(lo, hi + 1)


def cmd_bounds(args, out: _Out) -> int:
    from .bounds import (
        MAX_M,
        MAX_SAMPLES,
        curves_to_csv,
        delta_grid,
        envelope_curve,
        sample_curve,
    )

    grid = delta_grid(args.delta_step, min(args.delta_max, 0.75))
    curves = []
    if args.family == "GV":
        curves.append(sample_curve("GV", grid, ce=args.ce))
    elif args.m_range is not None:
        m_range = _parse_m_range(args.m_range)
        # every m outside [1, MAX_M] fails every family's check
        ms = range(max(m_range.start, 1), min(m_range.stop, MAX_M + 1))
        if len(ms) * len(grid) > MAX_SAMPLES:
            raise DomainError(
                f"{len(ms)} values of m on {len(grid)} grid points exceed "
                f"the cap of {MAX_SAMPLES} samples"
            )
        for m in ms:
            try:
                curves.append(sample_curve(args.family, grid, m=m))
            except BadFamilyParams:
                continue
        if not curves:
            raise BadFamilyParams(f"no valid m for {args.family} in {args.m_range}")
        curves.append(envelope_curve(curves))
    elif args.m is not None:
        curves.append(sample_curve(args.family, grid, m=args.m))
    else:
        raise BadFamilyParams("need --m or --m-range (or --family GV with --ce)")
    csv = curves_to_csv(grid, curves)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv)
        except OSError as e:
            raise ParseError(f"{args.out}: {e}") from None
        out.line(f"wrote {args.out}: {len(curves)} curve(s), {len(grid)} grid points")
    else:
        sys.stdout.write(csv)
    return 0


def cmd_gv(args, out: _Out) -> int:
    from .bounds import gv_root_x0
    from .ensemble import parse_spec, theorem2_probability_bound

    spec = parse_spec(args.spec)
    x0 = gv_root_x0(spec.rate, spec.ea_rate)
    b = None if args.delta is None else theorem2_probability_bound(spec, args.delta)
    out.line(
        f"spec n1={spec.n1} k1={spec.k1} n2={spec.n2} k2={spec.k2} "
        f"c1={spec.c1} c2={spec.c2}: R_e={spec.rate:.6g} C_e={spec.ea_rate:.6g} "
        f"net={spec.net_rate:.6g}"
    )
    out.line(f"x0={x0:.10f}")
    rec = {
        "command": "gv",
        "spec": [spec.n1, spec.k1, spec.n2, spec.k2, spec.c1, spec.c2],
        "R_e": spec.rate,
        "C_e": spec.ea_rate,
        "x0": x0,
    }
    if b is not None:
        out.line(
            f"delta_e={args.delta:.6g}: log2_bound={b.log2:.6f} tau={b.tau:.6f} "
            f"c={b.c_const:.6f} prefactor={b.prefactor:.6f}"
        )
        rec.update(
            {
                "delta_e": args.delta,
                "log2_bound": b.log2,
                "tau": b.tau,
                "c": b.c_const,
                "prefactor": b.prefactor,
            }
        )
    out.record(rec)
    return 0


def cmd_mindist(args, out: _Out) -> int:
    d = _code_from_file(args.code, args.budget).distance
    if d.is_known:
        out.line(f"d={d.value} exact")
        out.record({"command": "mindist", "d": d.value, "kind": "exact"})
    else:
        out.line("d=unknown (budget exceeded)")
        out.record({"command": "mindist", "d": None, "kind": "unknown"})
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress the banner")
    common.add_argument("--json", action="store_true", help="emit JSON-lines records")

    parser = argparse.ArgumentParser(
        prog="eaqec", description="entanglement-assisted code workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help=f"at most {DEFAULT_BUDGET}"
    )
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--inner", required=True, help="tuple n,k,d,c,q")
    pair.add_argument("--outer", required=True, help="tuple n,k,d,c,q")

    p = sub.add_parser("css", parents=[common, budget], help="CSS-type construction")
    p.add_argument("--c1", required=True, help="parity-check matrix file")
    p.add_argument("--c2", required=True, help="parity-check matrix file")
    p.set_defaults(func=cmd_css)

    p = sub.add_parser("hermitian", parents=[common, budget], help="Hermitian construction")
    p.add_argument("--code", required=True, help="parity-check matrix file over q^2")
    p.add_argument("--base", required=True, type=int, help="base field size q")
    p.set_defaults(func=cmd_hermitian)

    p = sub.add_parser("concat", parents=[common, pair], help="concatenate two codes")
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("extend", parents=[common, pair], help="concatenate then lengthen")
    p.add_argument("--t", required=True, type=int, help="positions to add")
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("expurgate", parents=[common, pair], help="concatenate then expurgate")
    p.add_argument("--t", required=True, type=int, help="inner blocks to replace")
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("audit", parents=[common], help="re-derive the parameter tables")
    p.add_argument("--tables", help="table file (default: bundled)")
    p.add_argument(
        "--allow-known",
        action="store_true",
        help="exit 0 when only the documented discrepancy is found",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("bounds", parents=[common], help="emit rate-curve CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--m-range", dest="m_range", help="a..b, envelope column included")
    p.add_argument("--ce", type=float, default=0.0, help="GV family C_e")
    p.add_argument("--delta-step", dest="delta_step", type=float, default=0.01)
    p.add_argument("--delta-max", dest="delta_max", type=float, default=0.75)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gv", parents=[common], help="ensemble bound report")
    p.add_argument("--spec", required=True, help="n1,k1,n2,k2[,c1,c2]")
    p.add_argument("--delta", type=float, help="evaluate the probability bound here")
    p.set_defaults(func=cmd_gv)

    p = sub.add_parser("mindist", parents=[common, budget], help="exact minimum distance")
    p.add_argument("--code", required=True, help="parity-check matrix file")
    p.set_defaults(func=cmd_mindist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Out(quiet=args.quiet, as_json=args.json)
    try:
        return args.func(args, out)
    except ParseError as e:
        print(f"error: ParseError: {e}", file=sys.stderr)
        return 2
    except EaqecError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: ValueError: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
