"""Entanglement-assisted quantum code parameters [[n, k, d; c]]_q.

One pairing rule: classical codes C1, C2 of length n over GF(q) give
[[n, k1 + k2 - n + c, >= min(d1, d2); c]], c = rank(H1 @ H2.T) the count of
pre-shared entangled pairs.  It has two entry points: css_construct(C1, C2)
over GF(q), and hermitian_construct(C, q0), which pairs C over GF(q0^2) with
its conjugate codes.conjugate(C) and gives [[n, 2k - n + c, >= d; c]]_{q0}.
c is computed along two independent routes, a Gram-matrix rank and a
dual-intersection dimension, and a construction refuses to return if they
disagree.  Constructed distances are stored as design lower bounds.

A constructed code records its last step as Provenance(op, args), op the CLI
subcommand: "css" (c1, c2), "hermitian" (code, q0), and from eaqec.concat
"concat" (inner, outer), "extend" and "expurgate" (base, t).  The args lead
back down the chain; provenance None marks a literal tuple.

TableTuple is the one codec of the printed tuple text 'n,k,d,c,q', where a
table may star k as the net k - c and print c as '?'; parse_params reads a
fully specified tuple through it, and format_params writes one back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._record import Record
from .codes import Defect, Distance, conjugate
from .errors import (
    DistanceUnknown,
    EntanglementFormulaMismatch,
    FieldMismatch,
    LengthMismatch,
    ParseError,
    integer,
)
from .primes import prime_power

if TYPE_CHECKING:
    from .codes import ClassicalCode
    from .matrix import MatrixGF


class Provenance(Record):
    """One construction step: op is the CLI subcommand, args its inputs."""

    op: str
    args: tuple


class EaqeccParams(Record, uncompared=("provenance",)):
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
    provenance: Provenance | None = None

    def __post_init__(self):
        values = self.__dict__
        for name in ("q", "n", "k", "c"):
            values[name] = integer(values[name], name)
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
        if not isinstance(self.d, Distance):
            raise ValueError(f"d must be a Distance, got {self.d!r}")
        if not self.d.is_known:
            raise DistanceUnknown("EaqeccParams needs an exact distance or a bound")
        if self.d.value > self.n:
            raise ValueError(f"distance {self.d.value} exceeds the length {self.n}")
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


def ea_singleton_defect(code: EaqeccParams) -> Defect:
    """Defect h_e = n - k - 2d + 2 + c with its class label.

    h_e = 0 is EAQMDS, h_e = 2 is EAQAMDS, other values are labelled
    "<h>-EAQMDS".  Negative values (possible for literal tuples) are returned
    as they are, not rejected.
    """
    d = code.d.require()
    h = code.n - code.k - 2 * d + 2 + code.c
    if h == 0:
        label = "EAQMDS"
    elif h == 2:
        label = "EAQAMDS"
    else:
        label = f"{h}-EAQMDS"
    return Defect(h, label)


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


def _paired(c1: ClassicalCode, c2: ClassicalCode, q: int, provenance: Provenance) -> EaqeccParams:
    """The pairing rule [[n, k1 + k2 - n + c, >= min(d1, d2); c]]_q."""
    c = css_entanglement(c1, c2)
    d = Distance.lower_bound(min(c1.distance.require(), c2.distance.require()))
    return EaqeccParams(q=q, n=c1.n, k=c1.k + c2.k - c1.n + c, d=d, c=c, provenance=provenance)


def css_construct(c1: ClassicalCode, c2: ClassicalCode) -> EaqeccParams:
    """[[n, k1 + k2 - n + c, >= min(d1, d2); c]]_q from two classical codes."""
    if not (c1.distance.is_known and c2.distance.is_known):
        raise DistanceUnknown("both input distances must be exact or bounded")
    return _paired(c1, c2, c1.spec.q, Provenance("css", (c1, c2)))


def _base(code: ClassicalCode, q0) -> int:
    """q0 as a plain int, when code's field is GF(q0^2)."""
    q0 = integer(q0, "base field size", FieldMismatch)
    if not (q0 >= 2 and q0 * q0 == code.spec.q):
        raise FieldMismatch(f"code field {code.spec!r} is not GF({q0}^2)")
    return q0


def hermitian_entanglement(code: ClassicalCode, q0: int) -> int:
    """Entangled-pair count for the conjugate pairing of a code over GF(q0^2):
    the CSS count of the code and its conjugate, rank(H @ conj(H).T)."""
    _base(code, q0)
    return css_entanglement(code, conjugate(code))


def hermitian_construct(code: ClassicalCode, q0: int) -> EaqeccParams:
    """[[n, 2k - n + c, >= d; c]]_{q0} from one classical code over GF(q0^2)."""
    if not code.distance.is_known:
        raise DistanceUnknown("input distance must be exact or bounded")
    q0 = _base(code, q0)
    return _paired(code, conjugate(code), q0, Provenance("hermitian", (code, q0)))


class TableTuple(Record):
    """A printed tuple 'n,k,d,c,q' as it stands, before it is built.

    k may carry a '*' marking it as the net transmission k - c, d a '>='
    prefix, and c may be '?' where the source does not print it.
    """

    n: int
    k: int
    k_is_net: bool
    d: Distance
    c: int | None
    q: int

    @classmethod
    def parse(cls, text: str, where: str = "") -> TableTuple:
        """The one parser of 'n,k,d,c,q' text; errors name `where` when given."""
        at = f"{where}: " if where else ""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 5:
            raise ParseError(f"{at}expected 'n,k,d,c,q', got {text!r}")
        try:
            n = int(parts[0])
            k_is_net = parts[1].endswith("*")
            k = int(parts[1].removesuffix("*"))
            d = Distance.parse(parts[2])
            c = None if parts[3] == "?" else int(parts[3])
            q = int(parts[4])
        except ValueError as e:
            raise ParseError(f"{at}bad tuple {text!r} ({e})") from None
        if n < 1 or q < 2:
            raise ParseError(f"{at}bad tuple {text!r}")
        return cls(n=n, k=k, k_is_net=k_is_net, d=d, c=c, q=q)

    def render(self) -> str:
        star = "*" if self.k_is_net else ""
        body = f"{self.n},{self.k}{star},{self.d.render()}"
        if self.c is not None:
            body += f";{self.c}"
        return f"[[{body}]]_{self.q}"

    def build(self, c: int | None = None) -> EaqeccParams:
        """The literal parameters; c, when given, stands in for the printed one."""
        c = self.c if c is None else c
        k = self.k + (c if self.k_is_net else 0)
        return EaqeccParams(q=self.q, n=self.n, k=k, d=self.d, c=c)


def parse_params(text: str) -> EaqeccParams:
    """Parse a fully specified 'n,k,d,c,q' (d may carry '>=') into a parameter tuple."""
    tt = TableTuple.parse(text)
    if tt.k_is_net or tt.c is None:
        raise ParseError(f"parameter tuple {text!r} must be fully specified")
    try:
        return tt.build()
    except (ValueError, DistanceUnknown) as e:
        raise ParseError(f"bad parameter tuple {text!r}: {e}") from None


def format_params(code: EaqeccParams) -> str:
    """Serialize back to the 'n,k,d,c,q' form accepted by parse_params."""
    return f"{code.n},{code.k},{code.d.render()},{code.c},{code.q}"
