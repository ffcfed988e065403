"""Random concatenated-ensemble machinery: exact generating functions,
log-space probability bounds, and exhaustive small-size validation.

The ensemble draws systematic generator matrices G1 = [I P1] over GF(4)
(inner, length n1) and G2 = [I P2] over GF(4^kbar1) (outer, length n2)
with uniform P1, P2.  A nonzero quaternary vector with t nonzero inner
blocks lies in the sample code with probability 0 or exactly
4^(-t*r1 - kbar1*r2), which drives everything here:

* psi_t / WeightPolynomial: exact counts N_t(w) of length-n1*n2 vectors
  of weight w with exactly t nonzero blocks.
* phi_upper_bound / avg_codeword_bound / theorem2_probability_bound:
  closed-form upper bounds, returned on a log2 scale (coefficients
  overflow binary64 at modest sizes).
* phi_series_value: the exact rational sum over t of the per-class
  probability times Psi_t; sits between any exhaustive ensemble average
  and phi_upper_bound.
* ensemble_exhaustive: enumerates every systematic parity part at tiny
  sizes and verifies the per-vector syndrome probabilities as exact
  rationals.  No sampling, no RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import TYPE_CHECKING

from .bounds import entropy_q4
from .errors import DomainError, ParseError, TooLarge

if TYPE_CHECKING:
    import numpy as np

_MAX_COEFFS = 10**4
_MAX_ENSEMBLE = 1 << 24
_MAX_VECTOR_SPACE = 1 << 20


@dataclass(frozen=True)
class WeightPolynomial:
    """Nonnegative integer coefficients indexed by weight, degree <= n_e."""

    coefficients: tuple[int, ...]
    n_e: int

    def __post_init__(self):
        if len(self.coefficients) > self.n_e + 1:
            raise DomainError("degree exceeds the total length")
        if any(c < 0 for c in self.coefficients):
            raise DomainError("negative coefficient")

    def coefficient(self, w: int) -> int:
        if 0 <= w < len(self.coefficients):
            return self.coefficients[w]
        return 0

    def evaluate(self, x):
        """Horner evaluation; exact when x is int or Fraction."""
        acc = 0 * x
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    @property
    def total(self) -> int:
        return sum(self.coefficients)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def psi_t(n1: int, n2: int, t: int) -> WeightPolynomial:
    """Psi_t(x) = C(n2, t) * [(1+3x)^n1 - 1]^t, exact coefficients.

    The coefficient of x^w counts the quaternary vectors of length n1*n2
    with weight w and exactly t nonzero n1-blocks.
    """
    if n1 < 1 or n2 < 1:
        raise DomainError("need n1 >= 1 and n2 >= 1")
    if not 0 <= t <= n2:
        raise DomainError(f"block count t must lie in [0, {n2}], got {t}")
    if n1 * n2 > _MAX_COEFFS:
        raise DomainError(f"n1*n2 exceeds the coefficient cap {_MAX_COEFFS}")
    base = [math.comb(n1, i) * 3**i for i in range(n1 + 1)]
    base[0] -= 1
    acc = [1]
    for _ in range(t):
        acc = _poly_mul(acc, base)
    scale = math.comb(n2, t)
    return WeightPolynomial(tuple(scale * c for c in acc), n_e=n1 * n2)


def nt_w_bruteforce(n1: int, n2: int) -> np.ndarray:
    """Exhaustive (t, w) table over all 4^(n1*n2) quaternary vectors.

    Entry [t, w] counts vectors of weight w with exactly t nonzero blocks;
    must match psi_t coefficients exactly.  Each vector is its index in
    [0, 4^(n1*n2)), 2 bits per coordinate and n1 coordinates per block;
    folding each pair onto its low bit marks the nonzero coordinates, so w is
    a popcount and a block is nonzero when its mask meets the marks.
    """
    import numpy as np

    if n1 < 1 or n2 < 1:
        raise DomainError("need n1 >= 1 and n2 >= 1")
    ne = n1 * n2
    total = 4**ne
    if total > _MAX_ENSEMBLE:
        raise TooLarge(f"4^{ne} vectors exceed the enumeration cap")
    low_bits = np.uint32(0x55555555)
    block = (1 << 2 * n1) - 1
    masks = [low_bits & np.uint32(block << 2 * n1 * j) for j in range(n2)]
    table = np.zeros((n2 + 1) * (ne + 1), dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, total, chunk):
        x = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        marks = (x | (x >> 1)) & low_bits
        t = np.zeros(x.size, dtype=np.uint8)
        for mask in masks:
            t += (marks & mask) != 0
        key = t.astype(np.intp) * (ne + 1) + np.bitwise_count(marks)
        table += np.bincount(key, minlength=table.size)
    return table.reshape(n2 + 1, ne + 1)


@dataclass(frozen=True)
class EnsembleSpec:
    """Sizes of the concatenated ensemble; entanglement defaults to maximal.

    kbar1/kbar2 are the component EA dimensions 2k - n + c; with the
    maximal default c = n - k they coincide with k1/k2.
    """

    n1: int
    k1: int
    n2: int
    k2: int
    c1: int | None = None
    c2: int | None = None

    def __post_init__(self):
        if not (1 <= self.k1 <= self.n1 and 1 <= self.k2 <= self.n2):
            raise DomainError("need 1 <= k <= n for both components")
        if self.c1 is None:
            object.__setattr__(self, "c1", self.n1 - self.k1)
        if self.c2 is None:
            object.__setattr__(self, "c2", self.n2 - self.k2)
        if not 0 <= self.c1 <= self.n1 - self.k1:
            raise DomainError(f"c1 must lie in [0, {self.n1 - self.k1}]")
        if not 0 <= self.c2 <= self.n2 - self.k2:
            raise DomainError(f"c2 must lie in [0, {self.n2 - self.k2}]")
        if self.kbar1 < 0 or self.kbar2 < 0:
            raise DomainError("EA dimension 2k - n + c must be nonnegative")
        # exponent bookkeeping used throughout: 2^-(r_e+c_e) = 4^-(r1*n2+kbar1*r2)
        assert self.r_e + self.c_e == 2 * (self.r1 * self.n2 + self.kbar1 * self.r2)

    @property
    def r1(self) -> int:
        return self.n1 - self.k1

    @property
    def r2(self) -> int:
        return self.n2 - self.k2

    @property
    def kbar1(self) -> int:
        return 2 * self.k1 - self.n1 + self.c1

    @property
    def kbar2(self) -> int:
        return 2 * self.k2 - self.n2 + self.c2

    @property
    def n_e(self) -> int:
        return self.n1 * self.n2

    @property
    def k_e(self) -> int:
        return self.kbar1 * self.kbar2

    @property
    def r_e(self) -> int:
        return self.n_e - self.k_e

    @property
    def c_e(self) -> int:
        return self.c1 * self.n2 + self.c2 * self.kbar1

    @property
    def rate(self) -> float:
        return self.k_e / self.n_e

    @property
    def ea_rate(self) -> float:
        return self.c_e / self.n_e

    @property
    def net_rate(self) -> float:
        return self.rate - self.ea_rate


def parse_spec(text: str) -> EnsembleSpec:
    """Parse 'n1,k1,n2,k2' or 'n1,k1,n2,k2,c1,c2' into an EnsembleSpec."""
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ParseError(f"bad ensemble spec {text!r}") from None
    if len(parts) not in (4, 6):
        raise ParseError("ensemble spec needs 'n1,k1,n2,k2' or 'n1,k1,n2,k2,c1,c2'")
    return EnsembleSpec(*parts)


def _log2_1p_pow(log2_term: float) -> float:
    """log2(1 + 2^log2_term), stable for large |log2_term|."""
    if log2_term > 48.0:
        return log2_term + math.log1p(2.0 ** (-log2_term)) / math.log(2.0)
    return math.log1p(2.0**log2_term) / math.log(2.0)


@dataclass(frozen=True)
class PhiBound:
    log2: float
    value: float | None


def phi_upper_bound(spec: EnsembleSpec, x: float) -> PhiBound:
    """Closed-form bound 2^-(r_e+c_e) * [(1+3x)^n1 + 4^r1]^n2 on the weight series."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    la = spec.n1 * math.log2(1.0 + 3.0 * x)
    lb = 2.0 * spec.r1
    hi, lo = (la, lb) if la >= lb else (lb, la)
    log2_bracket = hi + _log2_1p_pow(lo - hi)
    log2 = -(spec.r_e + spec.c_e) + spec.n2 * log2_bracket
    value = 2.0**log2 if log2 < 1020.0 else None
    return PhiBound(log2=log2, value=value)


def phi_series_value(spec: EnsembleSpec, x) -> Fraction:
    """Exact rational sum over t of 4^(-t*r1 - kbar1*r2) * Psi_t(x).

    This is the per-class probability series that phi_upper_bound dominates;
    it in turn dominates any exhaustively computed ensemble average of the
    nonzero-codeword weight enumerator.
    """
    xf = Fraction(x)
    acc = Fraction(0)
    for t in range(spec.n2 + 1):
        scale = Fraction(1, 4 ** (t * spec.r1 + spec.kbar1 * spec.r2))
        acc += scale * psi_t(spec.n1, spec.n2, t).evaluate(xf)
    return acc


def avg_codeword_bound(spec: EnsembleSpec, gamma: float) -> float:
    """log2 of the bound on the expected number of codewords of weight gamma*n_e."""
    if not 0.0 < gamma <= 0.75:
        raise DomainError(f"gamma must lie in (0, 3/4], got {gamma}")
    exponent = spec.n_e * (spec.rate + 2.0 * entropy_q4(gamma) - 1.0 - spec.ea_rate)
    inner = 2.0 * spec.r1 + spec.n1 * math.log2(1.0 - gamma) if gamma < 1.0 else -math.inf
    return exponent + spec.n2 * _log2_1p_pow(inner)


@dataclass(frozen=True)
class Theorem2Bound:
    log2: float
    tau: float
    c_const: float
    prefactor: float


def theorem2_probability_bound(spec: EnsembleSpec, delta_e: float) -> Theorem2Bound:
    """log2 bound on Pr[minimum distance <= delta_e * n_e] over the ensemble.

    Also reports tau = 4^(1-R1) * (1-delta_e) and the proof constant
    c = tau^n1 * n2; the prefactor (1-delta)/(1-2*delta) forces delta_e < 1/2.
    A c that overflows binary64 is refused with DomainError.
    """
    if not 0.0 < delta_e < 0.5:
        raise DomainError(f"delta_e must lie in (0, 1/2), got {delta_e}")
    tau = 4.0 ** (spec.r1 / spec.n1) * (1.0 - delta_e)
    log2_c = spec.n1 * math.log2(tau) + math.log2(spec.n2)
    if log2_c >= 1024:
        raise DomainError(
            f"the constant c = tau^n1 * n2 is 2^{log2_c:.6g}, beyond binary64"
        )
    prefactor = (1.0 - delta_e) / (1.0 - 2.0 * delta_e)
    log2 = math.log2(prefactor) + avg_codeword_bound(spec, delta_e)
    c_const = tau**spec.n1 * spec.n2
    return Theorem2Bound(log2=log2, tau=tau, c_const=c_const, prefactor=prefactor)


# --- exhaustive validation of the syndrome probabilities ---


@dataclass(frozen=True)
class ClassStat:
    """Observed syndrome-kill frequencies for one class of test vectors."""

    experiment: str
    info_zero: bool
    vectors: int
    frequencies: tuple[Fraction, ...]
    expected: Fraction

    @property
    def passed(self) -> bool:
        return all(f == self.expected for f in self.frequencies)

    def render(self) -> str:
        part = "zero" if self.info_zero else "nonzero"
        freqs = ", ".join(str(f) for f in self.frequencies) or "-"
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"{self.experiment}: {part} info part: {self.vectors} vectors, "
            f"frequencies {{{freqs}}} (expected {self.expected}): {flag}"
        )


@dataclass(frozen=True)
class EnsembleReport:
    spec: EnsembleSpec
    inner_matrices: int
    outer_matrices: int
    classes: tuple[ClassStat, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.classes)

    def render(self) -> str:
        s = self.spec
        lines = [
            f"ensemble n1={s.n1} k1={s.k1} n2={s.n2} k2={s.k2} "
            f"(inner matrices={self.inner_matrices}, outer matrices={self.outer_matrices})"
        ]
        lines.extend(c.render() for c in self.classes)
        lines.append("all identities hold" if self.all_passed else "IDENTITY VIOLATION")
        return "\n".join(lines)


def _syndrome_classes(
    experiment: str, q: int, n: int, k: int
) -> tuple[ClassStat, ClassStat, int]:
    """Enumerate every P in GF(q)^(k x r) against every nonzero v in GF(q)^n.

    H = [-P^T I], so v is killed when P^T v_info equals v_par.  The count over
    all P factorizes over the r independent columns of P, so each column is
    enumerated in full and the per-vector matrix count is the product of
    per-column counts; results are exact.
    """
    import numpy as np

    from .gf import field_of_order

    spec = field_of_order(q)
    r = n - k
    if q**n > _MAX_VECTOR_SPACE:
        raise TooLarge(f"{q}^{n} test vectors exceed the enumeration cap")
    cols = np.array(list(iproduct(range(q), repeat=k)), dtype=np.int64)
    total = (q**k) ** r
    by_class: dict[bool, list[Fraction]] = {True: [], False: []}
    sizes = {True: 0, False: 0}
    for v in iproduct(range(q), repeat=n):
        if not any(v):
            continue
        info = np.array(v[:k], dtype=np.int64)
        dots = spec.vsum(spec.vmul(cols, info), axis=1)
        hits = 1
        for j in range(r):
            hits *= int(np.count_nonzero(dots == v[k + j]))
        info_zero = not any(v[:k])
        sizes[info_zero] += 1
        f = Fraction(hits, total)
        if f not in by_class[info_zero]:
            by_class[info_zero].append(f)
    zero_stat = ClassStat(
        experiment, True, sizes[True], tuple(sorted(by_class[True])), Fraction(0)
    )
    nonzero_stat = ClassStat(
        experiment, False, sizes[False], tuple(sorted(by_class[False])), Fraction(1, q**r)
    )
    return zero_stat, nonzero_stat, total


def ensemble_exhaustive(n1: int, k1: int, n2: int, k2: int) -> EnsembleReport:
    """Verify the per-vector syndrome probabilities by full enumeration.

    Checks, as exact rationals: a nonzero test vector with zero information
    part is never killed; one with nonzero information part is killed with
    probability exactly (field size)^-(parity count), independent of its
    weight.  Inner experiment over GF(4), outer over GF(4^k1).
    """
    if n1 > 3 or k1 > 2:
        raise TooLarge("inner experiment limited to n1 <= 3, k1 <= 2")
    spec = EnsembleSpec(n1, k1, n2, k2)
    q_outer = 4**spec.kbar1
    inner_total = 4 ** (k1 * spec.r1)
    outer_total = (q_outer**k2) ** spec.r2
    if inner_total * outer_total > _MAX_ENSEMBLE:
        raise TooLarge("ensemble larger than the enumeration cap")
    inner_zero, inner_nonzero, inner_n = _syndrome_classes("inner", 4, n1, k1)
    outer_zero, outer_nonzero, outer_n = _syndrome_classes("outer", q_outer, n2, k2)
    return EnsembleReport(
        spec=spec,
        inner_matrices=inner_n,
        outer_matrices=outer_n,
        classes=(inner_zero, inner_nonzero, outer_zero, outer_nonzero),
    )
