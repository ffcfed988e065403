"""Entanglement-assisted quantum code parameters [[n, k, d; c]]_q.

Two constructions produce these from classical codes:

* css_construct(C1, C2): from two classical codes of the same length over
  GF(q), giving [[n, k1 + k2 - n + c, >= min(d1, d2); c]]_q where c counts the
  pre-shared entangled pairs.
* hermitian_construct(C, q0): from one classical code over GF(q0^2), giving
  [[n, 2k - n + c, >= d; c]]_{q0}.

In both cases c is computed along two independent routes, a Gram-matrix rank
and a dual-intersection dimension, and the construction refuses to return if
the routes disagree.  Constructed distances are stored as design lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .codes import Distance
from .errors import (
    DistanceUnknown,
    EntanglementFormulaMismatch,
    FieldMismatch,
    LengthMismatch,
)
from .primes import prime_power

if TYPE_CHECKING:
    from .codes import ClassicalCode
    from .matrix import MatrixGF


@dataclass(frozen=True)
class CssSource:
    c1: ClassicalCode
    c2: ClassicalCode


@dataclass(frozen=True)
class HermitianSource:
    code: ClassicalCode
    base_q: int


@dataclass(frozen=True)
class Concatenated:
    inner: "EaqeccParams"
    outer: "EaqeccParams"


@dataclass(frozen=True)
class Extended:
    base: "EaqeccParams"
    added: int


@dataclass(frozen=True)
class Expurgated:
    base: "EaqeccParams"
    removed: int


@dataclass(frozen=True)
class EaqeccParams:
    """[[n, k, d; c]]_q.  provenance None marks a literal parameter tuple.

    Literal tuples may carry suspicious values (e.g. negative net rate k - c)
    but never k > n; constructed codes are validated: 0 <= c <= n - k always
    holds for them.
    """

    q: int
    n: int
    k: int
    d: Distance
    c: int
    provenance: object | None = field(default=None, compare=False)

    def __post_init__(self):
        if prime_power(self.q) is None:
            raise ValueError(f"alphabet size {self.q} is not a prime power")
        if self.n < 1:
            raise ValueError(f"length must be >= 1, got {self.n}")
        if self.k < 0:
            raise ValueError(f"dimension must be >= 0, got {self.k}")
        if self.k > self.n:
            raise ValueError(f"dimension {self.k} exceeds the length {self.n}")
        if self.c < 0:
            raise ValueError(f"entanglement count must be >= 0, got {self.c}")
        if not self.d.is_known:
            raise DistanceUnknown("EaqeccParams needs an exact distance or a bound")
        if self.provenance is not None and self.c > self.n - self.k:
            raise ValueError(
                f"constructed code violates c <= n - k: c={self.c}, n-k={self.n - self.k}"
            )

    @property
    def net(self) -> int:
        """Net transmission k - c (may be negative for literal tuples)."""
        return self.k - self.c

    @property
    def is_maximal(self) -> bool:
        """True when the code consumes the maximum possible entanglement c = n - k."""
        return self.c == self.n - self.k

    def render(self) -> str:
        return f"[[{self.n},{self.k},{self.d.render()};{self.c}]]_{self.q}"

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class EaDefect:
    value: int
    label: str
    from_bound: bool
    negative: bool


def ea_singleton_defect(code: EaqeccParams) -> EaDefect:
    """Defect h_e = n - k - 2d + 2 + c with its class label.

    h_e = 0 is EAQMDS, h_e = 2 is EAQAMDS, other values are labelled
    "<h>-EAQMDS".  Negative values (possible for literal tuples) are returned
    with the negative flag set rather than rejected.
    """
    d = code.d.require()
    h = code.n - code.k - 2 * d + 2 + code.c
    if h == 0:
        label = "EAQMDS"
    elif h == 2:
        label = "EAQAMDS"
    else:
        label = f"{h}-EAQMDS"
    return EaDefect(h, label, not code.d.is_exact, h < 0)


def _rank_route(left: MatrixGF, right: MatrixGF) -> int:
    """c as the rank of the Gram matrix left @ right: one elimination."""
    return left.mul(right).rank()


def _dimension_route(dual_gen: MatrixGF, gen: MatrixGF) -> int:
    """c as dim(D) - dim(D ∩ C), D and C the row spaces of the two matrices.

    Both come from codes and are full rank (a parity check or its conjugate,
    and a generator), so their ranks are their row counts and
    dim(D ∩ C) = dim(D) + dim(C) - rank(D over C): one elimination, of the
    stacked matrix.
    """
    return dual_gen.stack(gen).rank() - gen.rows


def _agree(by_rank: int, by_dim: int) -> int:
    if by_rank != by_dim:
        raise EntanglementFormulaMismatch(
            f"rank route gave {by_rank}, dimension route gave {by_dim}"
        )
    return by_rank


def css_entanglement(c1: ClassicalCode, c2: ClassicalCode) -> int:
    """Entangled-pair count for the CSS-type pairing of two classical codes.

    Computed both as rank(H1 @ H2.T) and as dim(C2-dual) minus
    dim(C2-dual ∩ C1); the two must agree.  Each route eliminates one
    matrix of its own, two eliminations in all.
    """
    if c1.spec != c2.spec:
        raise FieldMismatch(f"{c1.spec!r} vs {c2.spec!r}")
    if c1.n != c2.n:
        raise LengthMismatch(f"code lengths differ: {c1.n} vs {c2.n}")
    return _agree(_rank_route(c1.H, c2.H.transpose()), _dimension_route(c2.H, c1.G))


def css_construct(c1: ClassicalCode, c2: ClassicalCode) -> EaqeccParams:
    """[[n, k1 + k2 - n + c, >= min(d1, d2); c]]_q from two classical codes."""
    if not (c1.distance.is_known and c2.distance.is_known):
        raise DistanceUnknown("both input distances must be exact or bounded")
    c = css_entanglement(c1, c2)
    k = c1.k + c2.k - c1.n + c
    d = min(c1.distance.require(), c2.distance.require())
    return EaqeccParams(
        q=c1.spec.q,
        n=c1.n,
        k=k,
        d=Distance.lower_bound(d),
        c=c,
        provenance=CssSource(c1, c2),
    )


def hermitian_entanglement(code: ClassicalCode, q0: int) -> int:
    """Entangled-pair count for the conjugate pairing of a code over GF(q0^2).

    Computed both as rank(H @ conj(H).T) and as dim(conjugate dual) minus
    dim(conjugate dual ∩ C); the two must agree.  Each route eliminates one
    matrix of its own, two eliminations in all.
    """
    if code.spec.q != q0 * q0:
        raise FieldMismatch(f"code field {code.spec!r} is not GF({q0}^2)")
    return _agree(
        _rank_route(code.H, code.H.conj_transpose(q0)),
        _dimension_route(code.H.frobenius_map(q0), code.G),
    )


def hermitian_construct(code: ClassicalCode, q0: int) -> EaqeccParams:
    """[[n, 2k - n + c, >= d; c]]_{q0} from one classical code over GF(q0^2)."""
    if not code.distance.is_known:
        raise DistanceUnknown("input distance must be exact or bounded")
    c = hermitian_entanglement(code, q0)
    k = 2 * code.k - code.n + c
    return EaqeccParams(
        q=q0,
        n=code.n,
        k=k,
        d=Distance.lower_bound(code.distance.require()),
        c=c,
        provenance=HermitianSource(code, q0),
    )


def parse_params(text: str) -> EaqeccParams:
    """Parse 'n,k,d,c,q' (d may carry a '>=' prefix) into a parameter tuple."""
    from .errors import ParseError

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ParseError(f"expected 'n,k,d,c,q', got {text!r}")
    try:
        n = int(parts[0])
        k = int(parts[1])
        d = Distance.parse(parts[2])
        c = int(parts[3])
        q = int(parts[4])
    except ValueError as e:
        raise ParseError(f"bad parameter tuple {text!r}: {e}") from None
    try:
        return EaqeccParams(q=q, n=n, k=k, d=d, c=c)
    except (ValueError, DistanceUnknown) as e:
        raise ParseError(f"bad parameter tuple {text!r}: {e}") from None


def format_params(code: EaqeccParams) -> str:
    """Serialize back to the 'n,k,d,c,q' form accepted by parse_params."""
    return f"{code.n},{code.k},{code.d.render()},{code.c},{code.q}"
