#!/usr/bin/env python3
"""Emit the asymptotic rate-curve CSV used for rate-vs-delta plots.

Samples the concatenated-code families together with the quaternary GV line,
appends their upper envelope, and leaves two labeled empty columns so
externally tabulated comparison curves can be pasted in next to the data.
"""

import argparse

from eaqec.bounds import curves_to_csv, delta_grid, envelope_curve, sample_curve
from eaqec.errors import DomainError

MEMBERS = [
    ("C5", {"m": 4}),
    ("C6", {"m": 5}),
    ("C7", {"m": 6}),
    ("C8", {"m": 7}),
    ("GV", {"ce": 0.0}),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="bound_curves.csv")
    ap.add_argument("--delta-max", type=float, default=0.35)
    ap.add_argument("--delta-step", type=float, default=0.002)
    args = ap.parse_args(argv)

    try:
        grid = delta_grid(args.delta_step, args.delta_max)
    except DomainError as e:
        ap.error(str(e))
    curves = [sample_curve(f, grid, **p) for f, p in MEMBERS]
    curves.append(envelope_curve(curves))
    csv = curves_to_csv(
        grid, curves, extra_columns=("external_lower", "external_upper")
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv)
    print(f"wrote {args.out}: {len(curves)} curves, {len(grid)} grid points")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
