"""Closed-form bound evaluators and asymptotic rate curves.

Covers the maximum-length bounds for almost-MDS constructions, exact
genus-2 rational-point counts N_q(2), the Weil upper bound, the
Tsfasman-Vladut-Zink rate line, a small registry of asymptotic rate
families for concatenated entanglement-assisted codes, the quaternary
entropy function with its GV-style root solver, and CSV emission of
sampled curves.

All real arithmetic is binary64; integer bounds are exact.  The special-q
test in genus2_points uses the fractional part of 2*sqrt(q) against the
golden-ratio threshold (sqrt(5)-1)/2, decided exactly in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

from .errors import BadFamilyParams, DomainError, FieldTooLarge, NoRoot, NotSquare
from .primes import MAX_FIELD_SIZE, is_prime, prime_power

LOG4_3 = math.log(3) / math.log(4)


def _checked_q(p: int, m: int) -> int:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if m < 1:
        raise DomainError(f"degree must be >= 1, got {m}")
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


def tvz_rate(q: int, delta: float) -> float:
    """Tsfasman-Vladut-Zink rate 1 - delta - 1/(sqrt(q) - 1) for square q >= 4."""
    s = isqrt(q)
    if s * s != q:
        raise NotSquare(f"{q} is not a square")
    if prime_power(q) is None or q < 4:
        raise DomainError(f"{q} is not a prime power >= 4")
    a = s - 1
    if not 0.0 <= delta <= 1.0 - 1.0 / a:
        raise DomainError(f"delta {delta} outside [0, 1 - 1/{a}]")
    return 1.0 - delta - 1.0 / a


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

FAMILY_NAMES = ("P1a", "P1b", "C5", "C6", "C7", "C8", "GV")

# Largest m the C5-C8 families take: 2 ** (m // 2) still converts to a float.
MAX_M = 2047


def _need_m(params: dict) -> int:
    m = params.get("m")
    if not isinstance(m, int):
        raise BadFamilyParams("family needs an integer parameter m")
    return m


def _eps(m: int) -> float:
    """1 / (2^floor(m/2) - 1); for odd m, floor(m/2) = (m - 1)/2."""
    return 1.0 / (2 ** (m // 2) - 1)


class _Family:
    def __init__(self, check, rate, domain_hi, hi_open=False):
        self.check = check
        self.rate = rate
        self.domain_hi = domain_hi
        self.hi_open = hi_open


def _check_m(parity, min_m):
    """Check for an m of the given parity (0 even, 1 odd) in (min_m, MAX_M]."""
    word = ("even", "odd")[parity]

    def check(params):
        m = _need_m(params)
        if m <= min_m or m % 2 != parity:
            raise BadFamilyParams(f"need {word} m > {min_m}, got {m}")
        if m > MAX_M:
            raise BadFamilyParams(f"m = {m} exceeds the cap {MAX_M}")

    return check


def _check_gv(params):
    ce = params.get("ce")
    if not isinstance(ce, (int, float)) or not 0.0 <= ce < 1.0:
        raise BadFamilyParams("GV family needs ce in [0, 1)")


def _rate_c5(d, p):
    m = p["m"]
    return 1.0 - m * d - _eps(m)


def _hi_c5(p):
    m = p["m"]
    return (1.0 - _eps(m)) / m


def _rate_c6(d, p):
    m = p["m"]
    return (1.0 - 1.0 / m) * (1.0 - (m / 2.0) * d - _eps(m))


def _hi_c6(p):
    m = p["m"]
    return 2.0 * (1.0 - _eps(m)) / m


def _rate_c7(d, p):
    m = p["m"]
    return 1.0 - 2.0 * m * d - 2.0 * _eps(m)


def _hi_c7(p):
    m = p["m"]
    return (1.0 - 2.0 * _eps(m)) / (2.0 * m)


def _rate_c8(d, p):
    m = p["m"]
    return (2.0 - 2.0 / m) * (1.0 - (m / 2.0) * d - _eps(m)) - 1.0


def _hi_c8(p):
    m = p["m"]
    return (1.0 - 1.0 / (m - 1) - 2.0 * _eps(m)) / m


def _rate_gv(d, p):
    return 1.0 + p["ce"] - 2.0 * entropy_q4(d)


def _hi_gv(p):
    return gv_root_x0(0.0, p["ce"])


_FAMILIES = {
    "P1a": _Family(_check_m(0, 1), _rate_c5, _hi_c5),
    "C5": _Family(_check_m(0, 1), _rate_c5, _hi_c5),
    "P1b": _Family(_check_m(1, 2), _rate_c6, _hi_c6),
    "C6": _Family(_check_m(1, 2), _rate_c6, _hi_c6),
    "C7": _Family(_check_m(0, 3), _rate_c7, _hi_c7, hi_open=True),
    "C8": _Family(_check_m(1, 4), _rate_c8, _hi_c8),
    "GV": _Family(_check_gv, _rate_gv, _hi_gv),
}


def _family(name: str) -> _Family:
    fam = _FAMILIES.get(name)
    if fam is None:
        raise BadFamilyParams(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}")
    return fam


def family_domain(family: str, **params) -> tuple[float, float, bool]:
    """(delta_min, delta_max, max_included) for a validated family."""
    fam = _family(family)
    fam.check(params)
    return (0.0, fam.domain_hi(params), not fam.hi_open)


def _in_domain(fam: _Family, params: dict, delta: float) -> bool:
    hi = fam.domain_hi(params)
    if fam.hi_open:
        return 0.0 <= delta < hi
    return 0.0 <= delta <= hi


def rate_value(family: str, delta: float, **params) -> float:
    """Rate of one family at one delta; DomainError outside the stated domain."""
    fam = _family(family)
    fam.check(params)
    if not _in_domain(fam, params, delta):
        raise DomainError(f"delta {delta} outside the domain of {family} {params}")
    return fam.rate(delta, params)


@dataclass(frozen=True)
class BoundCurve:
    """A sampled rate curve: (delta, R) pairs within the family's domain."""

    family: str
    params: tuple[tuple[str, float], ...]
    samples: tuple[tuple[float, float], ...]
    domain: tuple[float, float]

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ";".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}[{inner}]"


# Most points delta_grid builds; larger grids are refused before any work.
_MAX_GRID_POINTS = 10**6


def delta_grid(step: float, top: float) -> list[float]:
    """The sampling grid 0, step, 2*step, ... up to top (within 1e-15)."""
    if not (math.isfinite(step) and step > 0):
        raise DomainError(f"delta step must be positive and finite, got {step:g}")
    if not (math.isfinite(top) and top >= 0):
        raise DomainError(f"delta max must be non-negative and finite, got {top:g}")
    if top / step >= _MAX_GRID_POINTS:
        raise DomainError(
            f"delta step {step:g} gives {top / step + 1:.3g} "
            f"grid points, above the cap {_MAX_GRID_POINTS}"
        )
    grid = []
    i = 0
    while i * step <= top + 1e-15:
        grid.append(i * step)
        i += 1
    return grid


def _check_grid(deltas) -> tuple[float, ...]:
    grid = tuple(float(d) for d in deltas)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta grid must be strictly increasing")
    return grid


def sample_curve(family: str, deltas, **params) -> BoundCurve:
    """Sample one family on a strictly increasing grid, keeping in-domain points."""
    fam = _family(family)
    fam.check(params)
    grid = _check_grid(deltas)
    samples = tuple(
        (d, fam.rate(d, params)) for d in grid if _in_domain(fam, params, d)
    )
    return BoundCurve(
        family=family,
        params=tuple(sorted(params.items())),
        samples=samples,
        domain=(0.0, fam.domain_hi(params)),
    )


def envelope_curve(deltas, members) -> BoundCurve:
    """Pointwise maximum over (family, params) members; points with no member in
    domain are dropped."""
    grid = _check_grid(deltas)
    checked = []
    for family, params in members:
        fam = _family(family)
        fam.check(params)
        checked.append((fam, dict(params)))
    if not checked:
        raise BadFamilyParams("envelope needs at least one member")
    samples = []
    for d in grid:
        rates = [f.rate(d, p) for f, p in checked if _in_domain(f, p, d)]
        if rates:
            samples.append((d, max(rates)))
    hi = max(f.domain_hi(p) for f, p in checked)
    return BoundCurve("envelope", (), tuple(samples), (0.0, hi))


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
