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
* ensemble_exhaustive: verifies the per-vector syndrome probabilities as
  exact rationals at tiny sizes, counting parity columns for a block of
  information parts at a time; every column and vector is visited, so the
  q^-r law is observed, not assumed, in arrays of at most
  max(_CHUNK, q^k * k, q^r) entries.  No RNG.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import Record
from .bounds import entropy_q4
from .errors import DomainError, ParseError, TooLarge, integer

if TYPE_CHECKING:
    import numpy as np

    from .gf import FieldSpec

_MAX_COEFFS = 10**4
# psi_t's recurrence steps; the slowest call it admits, psi_t(370, 27, 27) with
# coefficients near 2^20000, takes about 0.7 s (CPython 3.11, one Xeon core)
_MAX_PSI_WORK = 150_000
# Caps are base-2 exponents, compared before any power is taken
_MAX_ENSEMBLE_BITS = 24  # 4^(n1*n2) vectors in nt_w_bruteforce
_MAX_VECTOR_BITS = 20  # q^n test vectors in _syndrome_classes
_MAX_COLUMN_WORK_BITS = 27  # q^k * q^k * k column products there, all the work when r = 0
# GF(4) and GF(4^k1), built once: the inner limit k1 <= 2 makes them the only two
_FIELDS: dict[int, FieldSpec] = {}
# nt_w_bruteforce keys and bincounts this many vectors at a time (a power of
# two): a run of high index parts, each with every low part of the whole
# blocks that fit here.  Its arrays hold a few times this many bytes.
# _syndrome_classes takes as many information parts at a time as fit here.
_CHUNK = 1 << 16


class WeightPolynomial(Record):
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


def psi_t(n1: int, n2: int, t: int) -> WeightPolynomial:
    """Psi_t(x) = C(n2, t) * [(1+3x)^n1 - 1]^t, exact coefficients.

    The coefficient of x^w counts the quaternary vectors of length n1*n2
    with weight w and exactly t nonzero n1-blocks.  Expanded as
    sum_j C(t, j) (-1)^(t-j) (1+3x)^(n1*j), by an exact integer recurrence on
    C(n1*j, w) * 3^w: sum_j (n1*j + 1) steps, capped at _MAX_PSI_WORK.
    """
    n1, n2 = integer(n1, "n1", DomainError, low=1), integer(n2, "n2", DomainError, low=1)
    t = integer(t, "t", DomainError)
    if not 0 <= t <= n2:
        raise DomainError(f"block count t must lie in [0, {n2}], got {t}")
    if n1 * n2 > _MAX_COEFFS:
        raise DomainError(f"n1*n2 exceeds the coefficient cap {_MAX_COEFFS}")
    work = n1 * t * (t + 1) // 2 + t + 1
    if work > _MAX_PSI_WORK:
        raise DomainError(f"psi_t takes {work} steps, above the cap {_MAX_PSI_WORK}")
    acc = [0] * (n1 * t + 1)
    for j in range(t + 1):
        n = n1 * j
        c = math.comb(t, j) * (-1) ** (t - j)  # times C(n, w) * 3^w at step w
        for w in range(n + 1):
            acc[w] += c
            c = c * 3 * (n - w) // (w + 1)
    scale = math.comb(n2, t)
    return WeightPolynomial(tuple(scale * c for c in acc), n_e=n1 * n2)


def _block_keys(x, n1: int, blocks: int, width: int, marks) -> np.ndarray:
    """The keys t * width + w (uint8) of the indices in x (uint32).

    An index holds `blocks` blocks of n1 coordinates, 2 bits per coordinate
    and 2*n1 bits per block; t counts its nonzero blocks and w its nonzero
    coordinates.  Folding each pair onto its low bit, marks = (x | x >> 1) &
    0x55..55, marks the nonzero coordinates, so w = popcount(marks).  A
    block's marks sit on even bits below its top (odd) bit, which marks never
    sets.  Adding 2^(2*n1-1) - 1 to every block carries into that top bit
    exactly when the block has a mark, and the sum stays below 2^(2*n1), so no
    carry reaches the next block: t is the popcount of the top bits of
    marks + fill.  That is three array ops for any block count (Warren,
    Hacker's Delight, 2nd ed., section 6-1).  With no blocks, x holds only
    the empty index 0 and ones, fill and guards are 0, so its key is 0.
    marks, of x's length, is scratch; x is left as it was.
    """
    import numpy as np

    span = 2 * n1
    ones = ((1 << span * blocks) - 1) // ((1 << span) - 1)  # bit 0 of each block
    fill, guards = ((1 << span - 1) - 1) * ones, ones << span - 1
    np.right_shift(x, 1, out=marks)
    marks |= x
    marks &= 0x55555555
    keys = np.bitwise_count(marks)
    marks += fill
    marks &= guards
    t = np.bitwise_count(marks)
    t *= width
    t += keys
    return t


def nt_w_bruteforce(n1: int, n2: int) -> np.ndarray:
    """Exhaustive (t, w) table over all 4^(n1*n2) quaternary vectors.

    Entry [t, w] counts vectors of weight w with exactly t nonzero blocks;
    must match psi_t coefficients exactly.  Every vector is visited and
    counted from its own coordinates; psi_t is never consulted.

    Each vector is its index in [0, 4^(n1*n2)), 2 bits per coordinate, and
    its bincount key is t * (ne + 1) + w (_block_keys).  The index splits at
    a block boundary: the low part holds the most whole blocks, j, whose
    2^(2*n1*j) indices fit in _CHUNK, and the high part the other n2 - j.
    Both t and w are sums over blocks, so a vector's key is the sum of its
    two parts' keys; a split inside a block would break t.  The low part's
    keys are computed once.  Each chunk computes the keys of a run of
    _CHUNK / 4^(n1*j) high values, writes the key of every one of its
    vectors as high key + low key in one broadcast add, and bincounts them,
    so all 4^ne keys are still written out and counted; the low and high
    histograms are never multiplied, which is psi_t's own product formula.
    When no whole block fits (n1 >= 9 at 2^16) the low part is one empty
    index with key 0 and each chunk is _CHUNK indices keyed directly.

    Keys stay in uint8: the cap of 2^24 vectors (_MAX_ENSEMBLE_BITS) bounds
    ne by 12, so a key is at most 12*13 + 12 = 168 < 256, and so is each
    part's key.  Memory is a few arrays of at most _CHUNK entries, whatever
    the size: the low part's uint32 indices and scratch while its keys are
    computed, then the uint8 low keys and chunk keys, the high run's uint32
    indices and scratch, and bincount's own intp copy of a chunk (8 bytes a
    key, the largest).
    """
    n1, n2 = integer(n1, "n1", DomainError, low=1), integer(n2, "n2", DomainError, low=1)
    ne = n1 * n2
    if 2 * ne > _MAX_ENSEMBLE_BITS:
        raise TooLarge(f"4^{ne} vectors exceed the enumeration cap")
    import numpy as np

    width = ne + 1
    j = min(n2, (_CHUNK.bit_length() - 1) // (2 * n1))
    lows, highs = 4 ** (n1 * j), 4 ** (n1 * (n2 - j))
    low_keys = _block_keys(np.arange(lows, dtype=np.uint32), n1, j, width,
                           np.empty(lows, dtype=np.uint32))
    run = min(_CHUNK // lows, highs)
    x = np.arange(run, dtype=np.uint32)
    marks = np.empty(run, dtype=np.uint32)
    keys = np.empty(run * lows, dtype=np.uint8)
    rows = keys.reshape(run, lows)
    table = np.zeros((n2 + 1) * width, dtype=np.int64)
    for _ in range(0, highs, run):
        high_keys = _block_keys(x, n1, n2 - j, width, marks)
        np.add(high_keys[:, None], low_keys, out=rows)
        table += np.bincount(keys, minlength=table.size)
        x += run
    return table.reshape(n2 + 1, width)


class EnsembleSpec(Record):
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
        values = self.__dict__
        for name in ("n1", "k1", "n2", "k2"):
            values[name] = integer(values[name], name, DomainError)
        if not (1 <= self.k1 <= self.n1 and 1 <= self.k2 <= self.n2):
            raise DomainError("need 1 <= k <= n for both components")
        for name, maximal in (("c1", self.r1), ("c2", self.r2)):
            c = values.get(name)
            values[name] = maximal if c is None else integer(c, name, DomainError)
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


def phi_upper_bound(spec: EnsembleSpec, x: float) -> float:
    """log2 of the bound 2^-(r_e+c_e) * [(1+3x)^n1 + 4^r1]^n2 on the weight series."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    la = spec.n1 * math.log2(1.0 + 3.0 * x)
    lb = 2.0 * spec.r1
    hi, lo = (la, lb) if la >= lb else (lb, la)
    log2_bracket = hi + _log2_1p_pow(lo - hi)
    return -(spec.r_e + spec.c_e) + spec.n2 * log2_bracket


def phi_series_value(spec: EnsembleSpec, x) -> Fraction:
    """Exact rational sum over t of 4^(-t*r1 - kbar1*r2) * Psi_t(x).

    This is the per-class probability series that phi_upper_bound dominates;
    it in turn dominates any exhaustively computed ensemble average of the
    nonzero-codeword weight enumerator.
    """
    xf = Fraction(x)
    acc = Fraction(0)
    # largest t first: psi_t refuses it, if any, before other work is done
    for t in range(spec.n2, -1, -1):
        scale = Fraction(1, 4 ** (t * spec.r1 + spec.kbar1 * spec.r2))
        acc += scale * psi_t(spec.n1, spec.n2, t).evaluate(xf)
    return acc


def avg_codeword_bound(spec: EnsembleSpec, gamma: float) -> float:
    """log2 of the bound on the expected number of codewords of weight gamma*n_e."""
    if not 0.0 < gamma <= 0.75:
        raise DomainError(f"gamma must lie in (0, 3/4], got {gamma}")
    exponent = spec.n_e * (spec.rate + 2.0 * entropy_q4(gamma) - 1.0 - spec.ea_rate)
    inner = 2.0 * spec.r1 + spec.n1 * math.log2(1.0 - gamma)
    return exponent + spec.n2 * _log2_1p_pow(inner)


class Theorem2Bound(Record):
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


class ClassStat(Record):
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


class EnsembleReport(Record):
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


def _distinct(a) -> list[int]:
    """The distinct values of a, ascending: sorted, then each kept where it
    differs from the one before.  (np.unique hashes from numpy 2.3 on, which
    takes ~20 times as long on 2^18 equal kill counts.)"""
    import numpy as np

    s = np.sort(a, axis=None)
    return s[:1].tolist() + s[1:][s[1:] != s[:-1]].tolist()


def _syndrome_classes(experiment: str, field: FieldSpec, n: int, k: int) -> tuple[ClassStat, ...]:
    """Enumerate every P in GF(q)^(k x r) against every nonzero v = (u, s) in GF(q)^n.

    H = [-P^T I] kills v when c_j . u = s_j for each column c_j of P, so the
    number of P killing v is the product over j of #{c in GF(q)^k : c . u = s_j},
    which depends on u alone.  The information parts u, zero part first, are
    taken a block at a time: one vmul and vsum give c . u for every column c
    and every u of the block, one bincount (each u's values offset by q times
    its place in the block) counts them, and the r-fold products of each u's
    counts, broadcast, hold the kill counts of all q^r vectors (u, s).
    v = 0, entry 0 of the zero part, is dropped, and the distinct counts of
    the block (_distinct) join the observed set.  Every (u, c) pair and every
    vector is still visited, so the q^-r law is observed, not assumed.

    A block holds as many parts as fit in _CHUNK entries at q^k * k products
    and q^r kill counts each, and at least one, so no array exceeds
    max(_CHUNK, q^k * k, q^r) entries; the caller caps q^n and q^k * q^k * k.
    """
    q, r = field.q, n - k
    import numpy as np

    words = np.indices((q,) * k).reshape(k, -1).T  # every c (and u), in order
    total = len(words) ** r
    block = max(1, _CHUNK // max(len(words) * k, q**r))
    kills: dict[bool, set[int]] = {True: set(), False: set()}
    sizes = {True: 0, False: 0}
    for start in range(0, len(words), block):
        u = words[start : start + block]
        dots = field.vsum(field.vmul(words, u[:, None, :]), axis=2)
        dots += q * np.arange(len(u))[:, None]
        counts = np.bincount(dots.ravel(), minlength=len(u) * q).reshape(len(u), q)
        hits = np.ones((len(u), 1), dtype=np.int64)
        for _ in range(r):
            hits = (hits[:, :, None] * counts[:, None, :]).reshape(len(u), -1)
        if not start:  # u = 0 leads the first block
            zero, hits = hits[0, 1:], hits[1:]
            sizes[True] += zero.size
            kills[True].update(_distinct(zero))
        sizes[False] += hits.size
        kills[False].update(_distinct(hits))
    freqs = {z: tuple(Fraction(h, total) for h in sorted(kills[z])) for z in kills}
    return tuple(
        ClassStat(experiment, z, sizes[z], freqs[z], e)
        for z, e in ((True, Fraction(0)), (False, Fraction(1, q**r)))
    )


def ensemble_exhaustive(n1: int, k1: int, n2: int, k2: int) -> EnsembleReport:
    """Verify the per-vector syndrome probabilities by full enumeration.

    Checks, as exact rationals: a nonzero test vector with zero information
    part is never killed; one with nonzero information part is killed with
    probability exactly (field size)^-(parity count), independent of its
    weight.  Inner experiment over GF(4), outer over GF(4^k1).
    """
    spec = EnsembleSpec(n1, k1, n2, k2)
    if n1 > 3 or k1 > 2:
        raise TooLarge("inner experiment limited to n1 <= 3, k1 <= 2")
    q_outer = 4**spec.kbar1  # 4^(k1*r1) inner and q_outer^(k2*r2) outer matrices
    if 4 * spec.kbar1 * k2 > _MAX_COLUMN_WORK_BITS:
        raise TooLarge(f"{q_outer}^{2 * k2} * {k2} column products exceed the enumeration cap")
    if 2 * spec.kbar1 * n2 > _MAX_VECTOR_BITS:  # the inner 4^n1 <= 64 vectors pass
        raise TooLarge(f"{q_outer}^{n2} test vectors exceed the enumeration cap")
    from .gf import field_of_order

    _FIELDS.update({q: field_of_order(q) for q in {4, q_outer} - _FIELDS.keys()})
    inner_zero, inner_nonzero = _syndrome_classes("inner", _FIELDS[4], n1, k1)
    outer_zero, outer_nonzero = _syndrome_classes("outer", _FIELDS[q_outer], n2, k2)
    return EnsembleReport(
        spec=spec,
        inner_matrices=4 ** (k1 * spec.r1),
        outer_matrices=q_outer ** (k2 * spec.r2),
        classes=(inner_zero, inner_nonzero, outer_zero, outer_nonzero),
    )
