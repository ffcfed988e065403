"""Classical linear codes [n, k, d] over GF(q) with explicit distance status.

A code is built from one matrix, by from_generator or from_parity_check; its
nullspace gives the other, so a code carries a full-rank generator G (k x n)
and parity check H ((n-k) x n) with G @ H.T == 0.  Its minimum distance is
exact, a design lower bound, or unknown; a bound is never promoted to exact.
"""

from __future__ import annotations

import random
from itertools import product
from typing import TYPE_CHECKING

from ._record import Record
from .errors import DEFAULT_BUDGET, BudgetInvalid, DistanceUnknown, integer

if TYPE_CHECKING:
    from .gf import FieldSpec
    from .matrix import MatrixGF

# Entries (length x words) in min_distance's table of the last t rows.  A
# table of t >= 1 rows needs q^2 <= DEFAULT_BUDGET, so q <= 4096 and the
# table is uint8 or uint16.  tracemalloc peak at a full table, in bytes per
# entry: about 2 at t >= 4 in GF(2), GF(3) and GF(16) (the table and its
# bool buffer); 9 in GF(9), whose build holds an int64 copy of the table; at
# t = 1 the int64 multiples of the one row are the table's size, so 10 in an
# extension field and 16 in a prime field.  At most 16 MiB, besides the
# field's own cached tables.
_SPAN_ENTRIES = 1 << 20

# Budget of singleton_defect's dual-distance search (the NMDS test).
_DUAL_BUDGET = 1 << 16


class Distance(Record):
    """Minimum-distance status: 'exact', 'bound' (design lower bound), or 'unknown'."""

    kind: str
    value: int | None = None

    def __post_init__(self):
        if self.kind == "unknown":
            if self.value is not None:
                raise ValueError(f"an unknown distance has no value, got {self.value!r}")
        elif self.kind not in ("exact", "bound"):
            raise ValueError(f"distance kind must be exact, bound or unknown, got {self.kind!r}")
        else:
            self.__dict__["value"] = integer(self.value, "distance", low=1)

    @classmethod
    def exact(cls, d: int) -> "Distance":
        return cls("exact", d)

    @classmethod
    def lower_bound(cls, d: int) -> "Distance":
        return cls("bound", d)

    @staticmethod
    def unknown() -> "Distance":
        return _UNKNOWN

    @property
    def is_known(self) -> bool:
        return self.kind != "unknown"

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def require(self) -> int:
        if self.value is None:
            raise DistanceUnknown("operation needs a known distance or bound")
        return self.value

    def render(self) -> str:
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "bound":
            return f">={self.value}"
        return "?"

    @classmethod
    def parse(cls, token: str) -> "Distance":
        """Inverse of render() for known distances: 'd' is exact, '>=d' a bound."""
        if token.startswith(">="):
            return cls.lower_bound(int(token[2:]))
        return cls.exact(int(token))


# Every unknown distance is this one: ClassicalCode builds one per code.
_UNKNOWN = Distance("unknown")


class ClassicalCode:
    __slots__ = ("spec", "n", "k", "G", "H", "distance")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a ClassicalCode by from_generator(G) or from_parity_check(H)")

    @classmethod
    def _trusted(cls, G: MatrixGF, H: MatrixGF, distance: Distance) -> "ClassicalCode":
        """Wrap a pair already known to be full rank with G @ H.T == 0.

        For internal use only: a nullspace() basis against the matrix it came
        from, or matrices taken from an existing code.  Nothing is re-checked.
        """
        code = object.__new__(cls)
        code.spec = G.spec
        code.n = G.cols
        code.k = G.rows
        code.G = G
        code.H = H
        code.distance = distance
        return code

    @classmethod
    def from_generator(cls, G: MatrixGF) -> "ClassicalCode":
        H = G.nullspace()  # rank = cols - H.rows, from the same elimination
        if G.cols - H.rows != G.rows:
            raise ValueError("generator is not full rank")
        return cls._trusted(G, H, Distance.unknown())

    @classmethod
    def from_parity_check(cls, H: MatrixGF) -> "ClassicalCode":
        G = H.nullspace()
        if H.cols - G.rows != H.rows:
            raise ValueError("parity check is not full rank")
        return cls._trusted(G, H, Distance.unknown())

    def with_distance(self, distance: Distance) -> "ClassicalCode":
        return ClassicalCode._trusted(self.G, self.H, distance)

    def __repr__(self):
        return f"[{self.n},{self.k},{self.distance.render()}]_{self.spec.q}"

    def codewords(self):
        """Yield every codeword (as a tuple of encoded entries), zero included."""
        spec = self.spec
        rows = self.G.to_lists()
        scaled = [
            [tuple(spec.mul(a, x) for x in row) for a in range(spec.q)]
            for row in rows
        ]
        n = self.n

        def rec(depth, acc):
            if depth == self.k:
                yield tuple(acc)
                return
            for a in range(spec.q):
                if a == 0:
                    yield from rec(depth + 1, acc)
                else:
                    srow = scaled[depth][a]
                    yield from rec(depth + 1, [spec.add(x, y) for x, y in zip(acc, srow)])

        yield from rec(0, [0] * n)


def dual(code: ClassicalCode) -> ClassicalCode:
    """The dual code: generator is H, parity check is G; distance resets to unknown."""
    return ClassicalCode._trusted(code.H, code.G, Distance.unknown())


def conjugate(code: ClassicalCode) -> ClassicalCode:
    """The conjugate code over GF(r^2), x -> x^r entrywise: a field automorphism,
    so it keeps rank, G @ H.T == 0, every weight and the distance."""
    return ClassicalCode._trusted(code.G.conj(), code.H.conj(), code.distance)


def min_distance(code: ClassicalCode, budget: int = DEFAULT_BUDGET) -> Distance:
    """Brute-force minimum distance by message-space enumeration.

    When all q^k messages fit the budget, returns the exact distance;
    otherwise returns Distance.unknown().  Deterministic.  A budget may lower
    DEFAULT_BUDGET but not raise it.

    Every nonzero codeword is a nonzero multiple, of the same weight, of a
    word whose lead (first nonzero) message coefficient is 1.  The words of
    the last t rows (t <= k - 1, at most _SPAN_ENTRIES entries) form one
    table, one word per column, in the smallest unsigned dtype that holds
    2(q - 1); column sum_i a_i q^(t-1-i) is sum_i a_i G[k-t+i].  Its
    columns [1, 2q^(t-1)) hold a multiple of every nonzero word of those
    rows, and are weighed as they stand.  A lead row above the table walks
    its coefficient tuples for the rows between: each tuple's head v is
    added to every table word, weighed as the count of coordinates where
    the table differs from -v.  A weight of 1 ends the search.
    """
    import numpy as np

    budget = integer(budget, "budget", BudgetInvalid, low=1)
    if budget > DEFAULT_BUDGET:
        raise BudgetInvalid(f"budget must be at most {DEFAULT_BUDGET}, got {budget}")
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codeword")
    if code.spec.q ** code.k > budget:
        return Distance.unknown()
    spec, n, k, q = code.spec, code.n, code.k, code.spec.q
    G = code.G.array()
    dtype = np.min_scalar_type(2 * (q - 1))
    weights = np.min_scalar_type(n)
    t = 0
    while t < k - 1 and q ** (t + 1) * n <= _SPAN_ENTRIES:
        t += 1
    span = np.zeros((n, 1), dtype=dtype)
    multiples = spec.vmul(G[k - t:, :, None], np.arange(q)).astype(dtype)
    for row_multiples in multiples[::-1]:
        span = spec.vadd(row_multiples[:, :, None], span[:, None, :]).astype(dtype, copy=False)
        span = span.reshape(n, -1)
    differs = np.empty(span.shape, dtype=bool)
    best = n + 1
    if t:
        top = 2 * q ** (t - 1)
        np.not_equal(span[:, 1:top], 0, out=differs[:, 1:top])
        best = int(differs[:, 1:top].sum(axis=0, dtype=weights).min())
    for lead in range(k - t):
        head = G[lead + 1 : k - t]
        for coeffs in product(range(q), repeat=len(head)):
            if best == 1:
                return Distance.exact(1)
            v = G[lead]
            for c, row in zip(coeffs, head):
                if c:
                    v = spec.vadd(v, spec.vmul(c, row))
            np.not_equal(span, spec.vneg(v).astype(dtype)[:, None], out=differs)
            best = min(best, int(differs.sum(axis=0, dtype=weights).min()))
    return Distance.exact(best)


class Defect(Record):
    """A Singleton defect and its class label (classical or EA)."""

    value: int
    label: str


def singleton_defect(code: ClassicalCode) -> Defect:
    """Singleton defect h = n - k + 1 - d with its standard class label.

    Labels: MDS (h=0), AMDS (h=1), NMDS (h=1 and the dual's exact defect is
    also 1), and "h-MDS" for h >= 2.  When the stored distance is only a
    design bound, code.distance.is_exact says so, and NMDS is never given.
    """
    d = code.distance
    if not d.is_known:
        raise DistanceUnknown("singleton_defect needs a known distance or bound")
    h = code.n - code.k + 1 - d.value
    if h < 0:
        raise ValueError(f"distance {d.value} violates the Singleton bound")
    if h == 0:
        label = "MDS"
    elif h == 1:
        label = "AMDS"
        if d.is_exact and code.k > 0 and code.n - code.k > 0:
            dd = min_distance(dual(code), budget=_DUAL_BUDGET)
            if dd.is_exact and (code.k + 1 - dd.value) == 1:
                label = "NMDS"
    else:
        label = f"{h}-MDS"
    return Defect(h, label)


def random_code(spec: FieldSpec, n: int, k: int, rng: random.Random) -> ClassicalCode:
    """A uniformly sampled [n, k] code (full-rank random generator)."""
    from .matrix import MatrixGF

    n, k = integer(n, "n"), integer(k, "k")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return ClassicalCode.from_generator(MatrixGF.zeros(spec, 0, n))
    while True:
        g = MatrixGF(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(k)])
        h = g.nullspace()
        if n - h.rows == k:
            return ClassicalCode._trusted(g, h, Distance.unknown())
