"""Classical linear codes [n, k, d] over GF(q) with explicit distance status.

A code carries both a full-rank generator G (k x n) and a full-rank parity
check H ((n-k) x n) with G @ H.T == 0.  The minimum distance is tracked as a
three-state value: exactly known, a design lower bound, or unknown; nothing
ever silently promotes a bound to an exact value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from .errors import BudgetInvalid, DistanceUnknown, FieldMismatch

if TYPE_CHECKING:
    from .gf import FieldSpec
    from .matrix import MatrixGF

DEFAULT_BUDGET = 1 << 24

# Entries (words x length) in min_distance's table of low-row combinations.
_SPAN_ENTRIES = 1 << 20

# Budget of singleton_defect's dual-distance search (the NMDS test).
_DUAL_BUDGET = 1 << 16


@dataclass(frozen=True)
class Distance:
    """Minimum-distance status: 'exact', 'bound' (design lower bound), or 'unknown'."""

    kind: str
    value: int | None = None

    @classmethod
    def exact(cls, d: int) -> "Distance":
        if d < 1:
            raise ValueError(f"distance must be >= 1, got {d}")
        return cls("exact", d)

    @classmethod
    def lower_bound(cls, d: int) -> "Distance":
        if d < 1:
            raise ValueError(f"distance bound must be >= 1, got {d}")
        return cls("bound", d)

    @classmethod
    def unknown(cls) -> "Distance":
        return cls("unknown", None)

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


class ClassicalCode:
    __slots__ = ("spec", "n", "k", "G", "H", "distance")

    def __init__(self, spec: FieldSpec, G: MatrixGF, H: MatrixGF):
        if G.spec != spec or H.spec != spec:
            raise FieldMismatch("generator/parity field does not match the code field")
        if G.cols != H.cols:
            raise ValueError("generator and parity check disagree on length")
        n = G.cols
        k = G.rows
        if H.rows != n - k:
            raise ValueError(f"parity check must have {n - k} rows, has {H.rows}")
        if G.rank() != k:
            raise ValueError("generator is not full rank")
        if H.rows and H.rank() != H.rows:
            raise ValueError("parity check is not full rank")
        prod = G.mul(H.transpose())
        if prod.rows and prod.cols and prod.array().any():
            raise ValueError("G @ H.T != 0")
        self.spec = spec
        self.n = n
        self.k = k
        self.G = G
        self.H = H
        self.distance = Distance.unknown()

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
        rank, H = G.rank_and_nullspace()
        if rank != G.rows:
            raise ValueError("generator is not full rank")
        return cls._trusted(G, H, Distance.unknown())

    @classmethod
    def from_parity_check(cls, H: MatrixGF) -> "ClassicalCode":
        rank, G = H.rank_and_nullspace()
        if rank != H.rows:
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


def hermitian_dual(code: ClassicalCode, q0: int) -> ClassicalCode:
    """Dual under the form <u, v> = sum(u_i * v_i^q0), for codes over GF(q0^2).

    Equals the entrywise conjugate of the ordinary dual, so its generator is
    the conjugated parity check of the input.  Conjugation is a field
    automorphism, so it keeps both ranks and G @ H.T == 0.
    """
    if code.spec.q != q0 * q0:
        raise FieldMismatch(f"code field {code.spec!r} is not GF({q0}^2)")
    return ClassicalCode._trusted(
        code.H.frobenius_map(q0),
        code.G.frobenius_map(q0),
        Distance.unknown(),
    )


def min_distance(code: ClassicalCode, budget: int = DEFAULT_BUDGET) -> Distance:
    """Brute-force minimum distance by message-space enumeration.

    When all q^k messages fit the budget, returns the exact distance;
    otherwise returns Distance.unknown().  Deterministic.

    Only the messages whose first nonzero coordinate is 1 are visited: every
    nonzero codeword is a nonzero multiple of exactly one of their words, of
    the same weight.  Those with lead row i are G[i] plus each combination of
    the rows after it.  The combinations of the last t rows are one table,
    ordered so that its first q^r entries span the last r rows, with at most
    _SPAN_ENTRIES entries; the rows between the lead row and the table are
    walked one coefficient tuple at a time, each adding one vector to the
    whole table.  Memory stays at a few tables, whatever the budget.
    """
    import numpy as np

    if not isinstance(budget, int) or budget < 1:
        raise BudgetInvalid(f"budget must be a positive integer, got {budget!r}")
    if code.k == 0:
        raise ValueError("the zero code has no nonzero codeword")
    if code.spec.q ** code.k > budget:
        return Distance.unknown()
    spec, n, k, q = code.spec, code.n, code.k, code.spec.q
    G = code.G.array()
    t = 0
    while t < k - 1 and q ** (t + 1) * n <= _SPAN_ENTRIES:
        t += 1
    span = np.zeros((1, n), dtype=np.int64)
    scalars = np.arange(q, dtype=np.int64)[:, None]
    for row in G[k - t:][::-1]:
        multiples = spec.vmul(scalars, row[None, :])
        span = spec.vadd(multiples[:, None, :], span[None, :, :]).reshape(-1, n)
    best = n + 1
    for lead in range(k):
        table = span[: q ** min(k - 1 - lead, t)]
        head = G[lead + 1 : k - t]
        for coeffs in product(range(q), repeat=len(head)):
            v = G[lead]
            for c, row in zip(coeffs, head):
                if c:
                    v = spec.vadd(v, spec.vmul(c, row))
            best = min(best, int(np.count_nonzero(spec.vadd(table, v), axis=1).min()))
            if best == 1:
                return Distance.exact(1)
    return Distance.exact(best)


@dataclass(frozen=True)
class SingletonClass:
    defect: int
    label: str
    from_bound: bool


def singleton_defect(code: ClassicalCode) -> SingletonClass:
    """Singleton defect h = n - k + 1 - d with its standard class label.

    Labels: MDS (h=0), AMDS (h=1), NMDS (h=1 and the dual's exact defect is
    also 1), and "h-MDS" for h >= 2.  When the stored distance is only a
    design bound the result is flagged via from_bound.
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
    return SingletonClass(h, label, not d.is_exact)


def random_code(spec: FieldSpec, n: int, k: int, rng: random.Random) -> ClassicalCode:
    """A uniformly sampled [n, k] code (full-rank random generator)."""
    from .matrix import MatrixGF

    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return ClassicalCode.from_generator(MatrixGF.zeros(spec, 0, n))
    while True:
        g = MatrixGF(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(k)])
        rank, h = g.rank_and_nullspace()
        if rank == k:
            return ClassicalCode._trusted(g, h, Distance.unknown())
