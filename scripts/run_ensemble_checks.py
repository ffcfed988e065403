#!/usr/bin/env python3
"""Exhaustive ensemble identity checks plus a probability-bound sweep.

First verifies, at every feasible tiny size, that the syndrome-kill
probabilities are exactly 0 (zero information part) or 4^-(parity count)
(nonzero), independent of vector weight.  Then evaluates the minimum-distance
probability bound for one ensemble spec over a relative-distance sweep.
"""

import argparse

from eaqec.ensemble import (
    ensemble_exhaustive,
    parse_spec,
    phi_upper_bound,
    theorem2_probability_bound,
)
from eaqec.errors import DomainError, ParseError

EXHAUSTIVE_SIZES = [(2, 1, 2, 1), (2, 1, 3, 2), (3, 2, 2, 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", default="4,2,8,4", help="n1,k1,n2,k2 for the sweep")
    ap.add_argument("--deltas", default="0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45")
    args = ap.parse_args(argv)
    # the sweep is cheap: evaluate it first, so bad input stops before any
    # enumeration and exit 1 keeps meaning a failed identity
    try:
        spec = parse_spec(args.spec)
        deltas = [float(tok) for tok in args.deltas.split(",")]
        sweep = [(d, theorem2_probability_bound(spec, d)) for d in deltas]
    except (ValueError, ParseError, DomainError) as e:
        ap.error(str(e))

    failed = False
    for size in EXHAUSTIVE_SIZES:
        report = ensemble_exhaustive(*size)
        print(report.render())
        print()
        failed = failed or not report.all_passed

    print(
        f"sweep for n1={spec.n1} k1={spec.k1} n2={spec.n2} k2={spec.k2}: "
        f"R_e={spec.rate:.4g} C_e={spec.ea_rate:.4g}"
    )
    print("delta_e  log2_bound        tau       c_const  prefactor")
    for d, b in sweep:
        print(
            f"{d:7.3f}  {b.log2:10.4f}  {b.tau:9.4f}  {b.c_const:12.4f}  {b.prefactor:9.4f}"
        )
    mid = phi_upper_bound(spec, 0.5)
    print(f"phi bound at x=1/2: log2={mid:.4f}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
