"""Concatenation of entanglement-assisted codes, transforms, and table audits.

Concatenating an inner [[n1, k1, d1; c1]]_q block with an outer
[[n2, k2, d2; c2]] code over GF(q^k1) yields

    [[n1*n2, k1*k2, >= d1*d2; c1*n2 + c2*k1]]_q.

Two length transforms used by the bundled parameter tables are provided:
extension (pad t positions: n+t, same k, same c, distance kept as a bound)
and expurgation (replace t inner [[4,2,2;0]]_2 blocks by [[3,2,2;1]]_2:
n-t, same k, c+t, so the net rate drops by t).

The bundled tables (see data/concat_tables.txt) are audited by re-deriving
every row from its stated components and transform.  Rows whose outer code is
given in net form (k marked with '*', c not printed) are re-derived for two
sample values of the outer entanglement; the printed columns are invariant in
that parameter, which is itself checked.

Table file format, one row per line, '#' starts a comment:

    table-id|inner|outer|transform|published|comparator|comparator

with tuples serialized as 'n,k,d,c,q' where k may carry a '*' net marker,
d may carry a '>=' prefix, and c may be '?' when the source does not print it.
transform is 'base', 'extend+t', or 'expurgate-t' (t cumulative from the
block's base row).  Comparator fields are carried verbatim and not audited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from .codes import Distance
from .eaqecc import Concatenated, EaqeccParams, Expurgated, Extended
from .errors import (
    AlphabetMismatch,
    EaqecError,
    ParseError,
    ProvenanceMismatch,
    TooManyBlocks,
)

TABLE_IDS = ("I", "II", "III", "IV")


def concatenate(inner: EaqeccParams, outer: EaqeccParams) -> EaqeccParams:
    """Concatenate an inner q-ary block code with an outer code over GF(q^k1)."""
    # q >= 2, so q^k1 >= 2^k1 > outer.q once k1 passes outer.q's bit length;
    # that case is refused without taking the power, which may be astronomical
    small = inner.k <= outer.q.bit_length()
    if not (small and inner.q ** inner.k == outer.q):
        value = f" = {inner.q ** inner.k}" if small else ""
        raise AlphabetMismatch(
            f"outer alphabet must be q^k1 = {inner.q}^{inner.k}{value}, got {outer.q}"
        )
    d = inner.d.require() * outer.d.require()
    return EaqeccParams(
        q=inner.q,
        n=inner.n * outer.n,
        k=inner.k * outer.k,
        d=Distance.lower_bound(d),
        c=inner.c * outer.n + outer.c * inner.k,
        provenance=Concatenated(inner, outer),
    )


def maximal_entanglement_closure_check(inner: EaqeccParams, outer: EaqeccParams) -> bool:
    """If both components are maximal-entanglement, so is the concatenation.

    Returns True when the law holds (vacuously when a component is not
    maximal), i.e. checks c_e = n1*n2 - k1*k2 under the maximal hypothesis.
    """
    result = concatenate(inner, outer)
    if inner.is_maximal and outer.is_maximal:
        return result.c == result.n - result.k
    return True


def extend(code: EaqeccParams, t: int) -> EaqeccParams:
    """Lengthen by t positions: [[n+t, k, >=d; c]]; net transmission unchanged."""
    if not isinstance(t, int) or t < 0:
        raise ValueError(f"extension amount must be a non-negative integer, got {t!r}")
    if t == 0:
        return code
    return EaqeccParams(
        q=code.q,
        n=code.n + t,
        k=code.k,
        d=Distance.lower_bound(code.d.require()),
        c=code.c,
        provenance=Extended(code, t),
    )


_EXPURGATION_INNER = (4, 2, 2, 0, 2)


def expurgate(code: EaqeccParams, t: int) -> EaqeccParams:
    """Replace t inner [[4,2,2;0]]_2 blocks of a concatenation by [[3,2,2;1]]_2.

    Only defined on concatenations whose inner code is [[4,2,2;0]]_2; yields
    [[n-t, k, >=d; c+t]], dropping the net rate by t.  Requires 1 <= t <= n2.
    """
    prov = code.provenance
    if not isinstance(prov, Concatenated):
        raise ProvenanceMismatch("expurgation applies only to concatenated codes")
    inner = prov.inner
    if (inner.n, inner.k, inner.d.require(), inner.c, inner.q) != _EXPURGATION_INNER:
        raise ProvenanceMismatch(
            f"expurgation needs inner [[4,2,2;0]]_2, found {inner.render()}"
        )
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"expurgation amount must be a positive integer, got {t!r}")
    if t > prov.outer.n:
        raise TooManyBlocks(f"cannot replace {t} of {prov.outer.n} inner blocks")
    return EaqeccParams(
        q=code.q,
        n=code.n - t,
        k=code.k,
        d=Distance.lower_bound(code.d.require()),
        c=code.c + t,
        provenance=Expurgated(code, t),
    )


# --- table rows ---


@dataclass(frozen=True)
class TableTuple:
    """One serialized parameter tuple from a table row."""

    n: int
    k: int
    k_is_net: bool
    d: Distance
    c: int | None
    q: int

    def render(self) -> str:
        star = "*" if self.k_is_net else ""
        body = f"{self.n},{self.k}{star},{self.d.render()}"
        if self.c is not None:
            body += f";{self.c}"
        return f"[[{body}]]_{self.q}"


@dataclass(frozen=True)
class TableRow:
    table: str
    index: int
    inner: TableTuple
    outer: TableTuple
    transform: tuple[str, int]
    published: TableTuple
    comparators: tuple[str, ...]

    def label(self) -> str:
        name, t = self.transform
        tr = name if name == "base" else f"{name}{'+' if name == 'extend' else '-'}{t}"
        return f"{self.table}:{self.index:03d} {tr}"

    @cached_property
    def derived(self) -> EaqeccParams:
        """derive_row(self), computed once."""
        return derive_row(self)


def _parse_tuple(tok: str, where: str) -> TableTuple:
    parts = [p.strip() for p in tok.split(",")]
    if len(parts) != 5:
        raise ParseError(f"{where}: expected 'n,k,d,c,q', got {tok!r}")
    try:
        n = int(parts[0])
        ktok = parts[1]
        k_is_net = ktok.endswith("*")
        k = int(ktok[:-1] if k_is_net else ktok)
        d = Distance.parse(parts[2])
        c = None if parts[3] == "?" else int(parts[3])
        q = int(parts[4])
    except ValueError as e:
        raise ParseError(f"{where}: bad tuple {tok!r} ({e})") from None
    if n < 1 or q < 2:
        raise ParseError(f"{where}: bad tuple {tok!r}")
    return TableTuple(n=n, k=k, k_is_net=k_is_net, d=d, c=c, q=q)


def _parse_transform(tok: str, where: str) -> tuple[str, int]:
    if tok == "base":
        return ("base", 0)
    for name, sign in (("extend", "+"), ("expurgate", "-")):
        prefix = name + sign
        if tok.startswith(prefix):
            try:
                t = int(tok[len(prefix):])
            except ValueError:
                raise ParseError(f"{where}: bad transform {tok!r}") from None
            if t < 1:
                raise ParseError(f"{where}: transform amount must be >= 1 in {tok!r}")
            return (name, t)
    raise ParseError(f"{where}: unknown transform {tok!r}")


def parse_table_file(text: str) -> list[TableRow]:
    rows: list[TableRow] = []
    counters = {t: 0 for t in TABLE_IDS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"line {lineno}"
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 7:
            raise ParseError(f"{where}: expected 7 '|'-separated fields, got {len(fields)}")
        table = fields[0]
        if table not in TABLE_IDS:
            raise ParseError(f"{where}: unknown table id {table!r}")
        inner = _parse_tuple(fields[1], where)
        if inner.k_is_net or inner.c is None:
            raise ParseError(f"{where}: inner tuple must be fully specified")
        outer = _parse_tuple(fields[2], where)
        if not outer.k_is_net and outer.c is None:
            raise ParseError(f"{where}: outer tuple needs either plain k with c, or net k")
        transform = _parse_transform(fields[3], where)
        published = _parse_tuple(fields[4], where)
        counters[table] += 1
        row = TableRow(
            table=table,
            index=counters[table],
            inner=inner,
            outer=outer,
            transform=transform,
            published=published,
            comparators=(fields[5], fields[6]),
        )
        try:
            row.derived  # derive now: an underivable row is refused with its line
        except (ValueError, EaqecError) as e:
            raise ParseError(f"{where}: {e}") from None
        rows.append(row)
    return rows


def load_bundled_tables() -> list[TableRow]:
    text = resources.files("eaqec").joinpath("data/concat_tables.txt").read_text("utf-8")
    return parse_table_file(text)


# --- auditing ---


@dataclass(frozen=True)
class Mismatch:
    field: str
    expected: int
    published: int


@dataclass(frozen=True)
class RowVerdict:
    row: TableRow
    mismatches: tuple[Mismatch, ...]

    @property
    def consistent(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class AuditReport:
    verdicts: tuple[RowVerdict, ...]

    @property
    def total(self) -> int:
        return len(self.verdicts)

    @property
    def consistent(self) -> int:
        return sum(1 for v in self.verdicts if v.consistent)

    @property
    def failures(self) -> tuple[RowVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.consistent)


def _literal(tt: TableTuple, c_override: int | None = None) -> EaqeccParams:
    c = tt.c if c_override is None else c_override
    k = tt.k + (c if tt.k_is_net else 0)
    return EaqeccParams(q=tt.q, n=tt.n, k=k, d=tt.d, c=c)


def _apply_transform(base: EaqeccParams, transform: tuple[str, int]) -> EaqeccParams:
    name, t = transform
    if name == "base":
        return base
    if name == "extend":
        return extend(base, t)
    return expurgate(base, t)


def derive_row(row: TableRow) -> EaqeccParams:
    """Re-derive a row's published parameters from its components and transform.

    Net-form outers (k starred, c not printed) are instantiated at two sample
    entanglement values; the derivable columns must not depend on the choice.
    """
    inner = _literal(row.inner)
    if row.outer.k_is_net:
        variants = []
        for c2 in (0, 1):
            outer = _literal(row.outer, c_override=c2)
            variants.append(_apply_transform(concatenate(inner, outer), row.transform))
        a, b = variants
        if (a.n, a.net, a.d) != (b.n, b.net, b.d):
            raise AssertionError("net-form derivation depends on the outer entanglement")
        return a
    outer = _literal(row.outer)
    return _apply_transform(concatenate(inner, outer), row.transform)


def audit_row(row: TableRow) -> RowVerdict:
    derived = row.derived
    pub = row.published
    mismatches = []
    if derived.n != pub.n:
        mismatches.append(Mismatch("n", derived.n, pub.n))
    if pub.k_is_net:
        if derived.net != pub.k:
            mismatches.append(Mismatch("net", derived.net, pub.k))
    else:
        if derived.k != pub.k:
            mismatches.append(Mismatch("k", derived.k, pub.k))
    if derived.d.require() != pub.d.require():
        mismatches.append(Mismatch("d", derived.d.require(), pub.d.require()))
    if pub.c is not None and derived.c != pub.c:
        mismatches.append(Mismatch("c", derived.c, pub.c))
    return RowVerdict(row, tuple(mismatches))


def audit_tables(rows) -> AuditReport:
    """Audit rows in order; deterministic, machine-readable report."""
    return AuditReport(tuple(audit_row(r) for r in rows))


# The one documented inconsistency in the bundled tables: row IV [[46,2,36;34]]
# prints an entanglement figure of 34 where the block accounting gives 44.
_KNOWN = (("IV", (46, 2, 36, 34, 2), "c", 44),)


def is_known_discrepancy(verdict: RowVerdict) -> bool:
    pub = verdict.row.published
    key = (verdict.row.table, (pub.n, pub.k, pub.d.require(), pub.c, pub.q))
    for table, pubkey, fieldname, expected in _KNOWN:
        if key == (table, pubkey):
            return all(
                m.field == fieldname and m.expected == expected
                for m in verdict.mismatches
            )
    return False
