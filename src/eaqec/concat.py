"""Concatenation of entanglement-assisted codes, transforms, and table audits.

Concatenating an inner [[n1, k1, d1; c1]]_q block with an outer
[[n2, k2, d2; c2]] code over GF(q^k1) yields

    [[n1*n2, k1*k2, >= d1*d2; c1*n2 + c2*k1]]_q.

Two length transforms used by the bundled parameter tables are provided:
extension (pad t positions: n+t, same k, same c, distance kept as a bound)
and expurgation (replace t inner [[4,2,2;0]]_2 blocks by [[3,2,2;1]]_2:
n-t, same k, c+t, so the net rate drops by t).  Provenance ops: "concat"
(inner, outer), "extend" and "expurgate" (base, t); expurgation reads its
inner block back from a "concat" provenance and refuses any other.

The bundled tables (see data/concat_tables.txt) are audited by re-deriving
every row from its stated components and transform.  Rows whose outer code is
given in net form (k marked with '*', c not printed) are re-derived for two
sample values of the outer entanglement; the printed columns are invariant in
that parameter, which is itself checked.  audit_tables returns one RowVerdict
per row: its mismatches, and whether they are exactly the one documented
discrepancy (known).

Table file format, one row per line, '#' starts a comment:

    table-id|inner|outer|transform|published|comparator|comparator

with each tuple in the 'n,k,d,c,q' text of eaqecc.TableTuple, the one codec
shared with the CLI's --inner/--outer: k may carry a '*' net marker, d a '>='
prefix, and c may be '?' when the source does not print it.  transform is
'base', 'extend+t', or 'expurgate-t' (t cumulative from the block's base
row).  The two comparator fields must be present; they are read past and
not audited.
"""

from __future__ import annotations

from functools import cached_property
from importlib import resources

from ._record import Record
from .codes import Distance
from .eaqecc import EaqeccParams, Provenance, TableTuple
from .errors import (
    AlphabetMismatch,
    EaqecError,
    ParseError,
    ProvenanceMismatch,
    TooManyBlocks,
    integer,
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
        provenance=Provenance("concat", (inner, outer)),
    )


def extend(code: EaqeccParams, t: int) -> EaqeccParams:
    """Lengthen by t positions: [[n+t, k, >=d; c]]; net transmission unchanged."""
    t = integer(t, "extension amount", low=0)
    if t == 0:
        return code
    return EaqeccParams(
        q=code.q,
        n=code.n + t,
        k=code.k,
        d=Distance.lower_bound(code.d.require()),
        c=code.c,
        provenance=Provenance("extend", (code, t)),
    )


_EXPURGATION_INNER = (4, 2, 2, 0, 2)


def expurgate(code: EaqeccParams, t: int) -> EaqeccParams:
    """Replace t inner [[4,2,2;0]]_2 blocks of a concatenation by [[3,2,2;1]]_2.

    Only defined on concatenations whose inner code is [[4,2,2;0]]_2; yields
    [[n-t, k, >=d; c+t]], dropping the net rate by t.  Requires 1 <= t <= n2.
    """
    prov = code.provenance
    if prov is None or prov.op != "concat":
        raise ProvenanceMismatch("expurgation applies only to concatenated codes")
    inner, outer = prov.args
    if (inner.n, inner.k, inner.d.require(), inner.c, inner.q) != _EXPURGATION_INNER:
        raise ProvenanceMismatch(
            f"expurgation needs inner [[4,2,2;0]]_2, found {inner.render()}"
        )
    t = integer(t, "expurgation amount", low=1)
    if t > outer.n:
        raise TooManyBlocks(f"cannot replace {t} of {outer.n} inner blocks")
    return EaqeccParams(
        q=code.q,
        n=code.n - t,
        k=code.k,
        d=Distance.lower_bound(code.d.require()),
        c=code.c + t,
        provenance=Provenance("expurgate", (code, t)),
    )


# --- table rows ---


class TableRow(Record):
    table: str
    index: int
    inner: TableTuple
    outer: TableTuple
    transform: tuple[str, int]
    published: TableTuple

    def label(self) -> str:
        name, t = self.transform
        tr = name if name == "base" else f"{name}{'+' if name == 'extend' else '-'}{t}"
        return f"{self.table}:{self.index:03d} {tr}"

    @cached_property
    def derived(self) -> EaqeccParams:
        """The published parameters re-derived from components and transform, once.

        A net-form outer (k starred, c not printed) is built at two sample
        entanglements c2 = 0 and 1; the derivable columns must not depend on
        the choice.
        """
        inner = self.inner.build()
        name, t = self.transform
        codes = []
        for c2 in (0, 1) if self.outer.k_is_net else (None,):
            code = concatenate(inner, self.outer.build(c2))
            # extend(code, 0) is code itself, so "base" takes that branch
            codes.append(expurgate(code, t) if name == "expurgate" else extend(code, t))
        a, b = codes[0], codes[-1]
        if (a.n, a.net, a.d) != (b.n, b.net, b.d):
            raise AssertionError("net-form derivation depends on the outer entanglement")
        return a


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
        inner = TableTuple.parse(fields[1], where)
        if inner.k_is_net or inner.c is None:
            raise ParseError(f"{where}: inner tuple must be fully specified")
        outer = TableTuple.parse(fields[2], where)
        if not outer.k_is_net and outer.c is None:
            raise ParseError(f"{where}: outer tuple needs either plain k with c, or net k")
        transform = _parse_transform(fields[3], where)
        published = TableTuple.parse(fields[4], where)
        counters[table] += 1
        row = TableRow(
            table=table,
            index=counters[table],
            inner=inner,
            outer=outer,
            transform=transform,
            published=published,
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


class Mismatch(Record):
    field: str
    expected: int
    published: int


class RowVerdict(Record):
    """A row's mismatches; known marks exactly the one documented discrepancy."""

    row: TableRow
    mismatches: tuple[Mismatch, ...]
    known: bool

    @property
    def consistent(self) -> bool:
        return not self.mismatches


# The one documented inconsistency in the bundled tables: row IV [[46,2,36;34]]
# prints an entanglement figure of 34 where the block accounting gives 44.
_KNOWN_PUBLISHED = TableTuple(n=46, k=2, k_is_net=False, d=Distance.exact(36), c=34, q=2)
_KNOWN = ((Mismatch("c", 44, 34),), "IV", _KNOWN_PUBLISHED)


def audit_tables(rows) -> tuple[RowVerdict, ...]:
    """Audit rows in order: one verdict per row."""
    verdicts = []
    for row in rows:
        derived, pub = row.derived, row.published
        checks = (
            ("n", derived.n, pub.n),
            ("net", derived.net, pub.k) if pub.k_is_net else ("k", derived.k, pub.k),
            ("d", derived.d.require(), pub.d.require()),
            ("c", derived.c, pub.c),  # None when the row does not print c
        )
        mismatches = tuple([Mismatch(*m) for m in checks if m[2] is not None and m[1] != m[2]])
        verdicts.append(RowVerdict(row, mismatches, (mismatches, row.table, pub) == _KNOWN))
    return tuple(verdicts)
