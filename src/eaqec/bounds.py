"""Closed-form bound evaluators and asymptotic rate curves.

Covers the maximum-length bounds for almost-MDS constructions, exact
genus-2 rational-point counts N_q(2), the Weil upper bound, the
Tsfasman-Vladut-Zink rate line, the quaternary entropy function with its
GV-style root solver, and asymptotic rate curves with their CSV emission.
The C5-C8 families are one rule: an inner code concatenated with EA outer
codes on the TVZ line.  Their inner tuples are inferred from the families'
closed forms, since PAPER.md holds only the abstract.

All real arithmetic is binary64; integer bounds are exact.  The special-q
test in genus2_points uses the fractional part of 2*sqrt(q) against the
golden-ratio threshold (sqrt(5)-1)/2, decided exactly in integers.
"""

from __future__ import annotations

import math
from math import isqrt

from ._record import Record
from .errors import BadFamilyParams, DomainError, FieldTooLarge, NoRoot, NotSquare, integer
from .primes import MAX_FIELD_SIZE, is_prime, prime_power

LOG4_3 = math.log(3) / math.log(4)


def _checked_q(p: int, m: int) -> int:
    p, m = integer(p, "p", DomainError), integer(m, "m", DomainError, low=1)
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    q = p**m
    if q > MAX_FIELD_SIZE:
        raise FieldTooLarge(f"q = {p}^{m} exceeds {MAX_FIELD_SIZE}")
    return q


def amds_length_bound(p: int, m: int) -> int:
    """Max length for the almost-MDS family over GF(p^m).

    chi = q + floor(2*sqrt(q)); the bound is chi when p divides
    floor(2*sqrt(q)) and m >= 3 is odd, else chi + 1.
    """
    q = _checked_q(p, m)
    f = isqrt(4 * q)
    if f % p == 0 and m >= 3 and m % 2 == 1:
        return q + f
    return q + f + 1


def genus2_points(p: int, m: int) -> int:
    """Exact maximum number of rational points on a genus-2 curve over GF(p^m)."""
    q = _checked_q(p, m)
    if m % 2 == 0:
        if q == 4:
            return 10
        if q == 9:
            return 20
        return q + 1 + 4 * isqrt(q)
    f = isqrt(4 * q)
    special = (f + 1) % p == 0
    if not special:
        a = 0
        while a * a + a + 1 <= q:
            if q in (a * a + 1, a * a + a + 1, a * a + a + 2):
                special = True
                break
            a += 1
    if not special:
        return q + 1 + 2 * f
    # frac(2*sqrt(q)) > (sqrt(5)-1)/2, decided exactly: with x = 2f-1 the
    # condition is (16q+5-x^2)^2 > 320q (the left side is always positive).
    x = 2 * f - 1
    lhs = 16 * q + 5 - x * x
    if lhs > 0 and lhs * lhs > 320 * q:
        return q + 2 * f
    return q + 2 * f - 1


def weil_bound(q: int, g: int) -> int:
    """Weil upper bound q + 1 + g*floor(2*sqrt(q)) on rational-point counts."""
    q, g = integer(q, "q", DomainError), integer(g, "g", DomainError)
    if q < 2 or g < 0:
        raise DomainError("need q >= 2 and genus >= 0")
    return q + 1 + g * isqrt(4 * q)


def eaq_length_bounds(p: int, m: int) -> tuple[int, int]:
    """Lower bounds on the reachable lengths of the two EAQMDS/EAQAMDS families.

    Returns (q^2 + 2q + 1, N_{q^2}(2)); the second figure is q^2 + 4q + 1
    apart from the genus-2 exceptions at q = 2 and q = 3.
    """
    q = _checked_q(p, m)
    return (q * q + 2 * q + 1, genus2_points(p, 2 * m))


def entropy_q4(gamma: float) -> float:
    """Quaternary entropy H_4 on [0, 1], with H_4(0) = 0 and H_4(1) = log_4(3)."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {gamma}")
    if gamma == 0.0:
        return 0.0
    if gamma == 1.0:
        return LOG4_3
    ln4 = math.log(4)
    return (
        gamma * LOG4_3
        - gamma * math.log(gamma) / ln4
        - (1.0 - gamma) * math.log(1.0 - gamma) / ln4
    )


def _tvz_gap(q: int) -> float:
    """1/(sqrt(q) - 1), the TVZ line's gap below 1 - delta, for square prime powers q >= 4."""
    s = isqrt(q)
    if s * s != q:
        raise NotSquare(f"{q} is not a square")
    if prime_power(q) is None or q < 4:
        raise DomainError(f"{q} is not a prime power >= 4")
    return 1.0 / (s - 1)


def tvz_rate(q: int, delta: float) -> float:
    """Tsfasman-Vladut-Zink rate 1 - delta - 1/(sqrt(q) - 1) for square q >= 4."""
    gap = _tvz_gap(q)
    if not 0.0 <= delta <= 1.0 - gap:
        raise DomainError(f"delta {delta} outside [0, 1 - 1/{isqrt(q) - 1}]")
    return 1.0 - delta - gap


def gv_root_x0(r_e: float, c_e: float) -> float:
    """Root of 2*H_4(x) = 1 - R_e + C_e in [0, 3/4], bisected to 1e-12."""
    target = 1.0 - r_e + c_e
    if not 0.0 <= target <= 2.0:
        raise NoRoot(f"2*H_4(x) = {target} has no solution in [0, 3/4]")
    if target == 0.0:
        return 0.0
    if target == 2.0:
        return 0.75
    lo, hi = 0.0, 0.75
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if 2.0 * entropy_q4(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- asymptotic rate families ---

# Largest m the C5-C8 families take: 2 ** (m // 2) still converts to a float.
MAX_M = 2047

# C5-C8 as rows of one rule: (inner (n1, k1, d1) of m, parity of m, bound m
# must exceed, net rate, closed domain end), the inners [[m, m, 1; 0]]_2 and
# [[m, m-1, 2; 1]]_2.  C7's end is open as that family was first stated; the
# rule would close it.  P1a and P1b are the paper's names for C5 and C6.
_C5 = (lambda m: (m, m, 1), 0, 1, False, True)
_C6 = (lambda m: (m, m - 1, 2), 1, 2, False, True)
_ROWS = {
    "P1a": _C5, "P1b": _C6, "C5": _C5, "C6": _C6,
    "C7": (lambda m: (m, m, 1), 0, 3, True, False),
    "C8": (lambda m: (m, m - 1, 2), 1, 4, True, True),
}
FAMILY_NAMES = (*_ROWS, "GV")


def _checked_m(params: dict, parity: int, min_m: int) -> int:
    """m of the given parity (0 even, 1 odd) in (min_m, MAX_M]."""
    m = integer(params.get("m"), "family parameter m", BadFamilyParams)
    if m <= min_m or m % 2 != parity:
        word = ("even", "odd")[parity]
        raise BadFamilyParams(f"need {word} m > {min_m}, got {m}")
    if m > MAX_M:
        raise BadFamilyParams(f"m = {m} exceeds the cap {MAX_M}")
    return m


def _resolve(family: str, params: dict):
    """(rate, inside) of a family with checked parameters: the rate as a
    function of delta, and the test of a delta against the family's domain.

    A C5-C8 row concatenates its inner code with outer codes on the TVZ line
    over GF(2^k1), which multiplies rates and relative distances (Forney,
    1966): R = r1 * (1 - delta*n1/d1 - gap), or 2R - 1 (the rate under
    maximal entanglement) for a net row.  The domain ends at its zero.
    """
    if family in _ROWS:
        inner, parity, min_m, net, closed = _ROWS[family]
        n1, k1, d1 = inner(_checked_m(params, parity, min_m))
        # One gap per curve: tvz_rate at each delta would refuse closed ends
        # where delta*n1/d1 rounds past 1 - gap.  r1 and the ends are written in
        # the forms that give the closed forms' ends exactly and their printed samples.
        gap, r1 = _tvz_gap(2**k1), 1.0 - (n1 - k1) / n1
        if net:
            rate = lambda d: 2.0 * r1 * (1.0 - d * n1 / d1 - gap) - 1.0
            hi = (1.0 - (n1 - k1) / k1 - 2.0 * gap) * d1 / (2 * n1)
        else:
            rate = lambda d: r1 * (1.0 - d * n1 / d1 - gap)
            hi = (1.0 - gap) * d1 / n1
    elif family == "GV":
        ce = params.get("ce")
        if not isinstance(ce, float):
            ce = integer(ce, "GV family's ce", BadFamilyParams)
        if not 0.0 <= ce < 1.0:
            raise BadFamilyParams("GV family needs ce in [0, 1)")
        rate, hi, closed = (lambda d: 1.0 + ce - 2.0 * entropy_q4(d)), gv_root_x0(0.0, ce), True
    else:
        known = ", ".join(FAMILY_NAMES)
        raise BadFamilyParams(f"unknown family {family!r}; known: {known}")
    return rate, (lambda d: 0.0 <= d <= hi and (closed or d < hi))


def rate_value(family: str, delta: float, **params) -> float:
    """Rate of one family at one delta; DomainError outside the stated domain."""
    rate, inside = _resolve(family, params)
    if not inside(delta):
        raise DomainError(f"delta {delta} outside the domain of {family} {params}")
    return rate(delta)


class BoundCurve(Record):
    """A sampled rate curve: (delta, R) pairs within the family's domain."""

    family: str
    params: tuple[tuple[str, float], ...]
    samples: tuple[tuple[float, float], ...]

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ";".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}[{inner}]"


# Most samples a run may take: the points of one grid, or grid points times
# curves over an m range.  Larger requests are refused before any work.
MAX_SAMPLES = 10**6


def delta_grid(step: float, top: float) -> list[float]:
    """The sampling grid 0, step, 2*step, ... up to top (within a relative 1e-12)."""
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"delta step must be positive and finite, got {step:g}")
    if not (math.isfinite(top) and top >= 0):
        raise DomainError(f"delta max must be non-negative and finite, got {top:g}")
    # the grid has floor(span) + 1 points; the factor keeps a top that is a
    # rounding error short of a multiple of step on the grid
    span = top / step * (1 + 1e-12)
    if span >= MAX_SAMPLES:
        raise DomainError(
            f"delta step {step:g} gives {span + 1:.3g} "
            f"grid points, above the cap {MAX_SAMPLES}"
        )
    return [i * step for i in range(math.floor(span) + 1)]


def _check_grid(deltas) -> tuple[float, ...]:
    grid = tuple(float(d) for d in deltas)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta grid must be strictly increasing")
    return grid


def sample_curve(family: str, deltas, **params) -> BoundCurve:
    """Sample one family on a strictly increasing grid, keeping in-domain points."""
    rate, inside = _resolve(family, params)
    grid = _check_grid(deltas)
    samples = tuple((d, rate(d)) for d in grid if inside(d))
    return BoundCurve(
        family=family,
        params=tuple(sorted(params.items())),
        samples=samples,
    )


def envelope_curve(curves) -> BoundCurve:
    """Pointwise maximum of sampled curves, in delta order; a delta that no
    curve samples is dropped."""
    if not curves:
        raise BadFamilyParams("envelope needs at least one member")
    best: dict[float, float] = {}
    for curve in curves:
        for d, r in curve.samples:
            if d not in best or r > best[d]:
                best[d] = r
    return BoundCurve("envelope", (), tuple(sorted(best.items())))


def curves_to_csv(deltas, curves, extra_columns=()) -> str:
    """CSV with one row per grid delta; blank cells outside a curve's domain.

    Values carry 12 significant digits; lines end with LF.  extra_columns adds
    labeled empty columns (placeholders for externally supplied comparators).
    """
    grid = _check_grid(deltas)
    lookups = [dict(c.samples) for c in curves]
    header = ["delta"] + [c.label() for c in curves] + list(extra_columns)
    lines = [",".join(header)]
    for d in grid:
        cells = [f"{d:.12g}"]
        for lut in lookups:
            r = lut.get(d)
            cells.append("" if r is None else f"{r:.12g}")
        cells.extend("" for _ in extra_columns)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
