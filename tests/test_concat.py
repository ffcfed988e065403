"""Concatenation, length transforms, and the bundled-table audit."""

import pytest

from eaqec import concat
from eaqec.codes import ClassicalCode, Distance, min_distance
from eaqec.concat import (
    TableRow,
    audit_tables,
    concatenate,
    expurgate,
    extend,
    load_bundled_tables,
    parse_table_file,
)
from eaqec.eaqecc import (
    EaqeccParams,
    Provenance,
    TableTuple,
    css_construct,
    ea_singleton_defect,
    hermitian_construct,
    parse_params,
)
from eaqec.errors import (
    AlphabetMismatch,
    ParseError,
    ProvenanceMismatch,
    TooManyBlocks,
)
from eaqec.gf import FieldSpec
from eaqec.matrix import MatrixGF

INNER422 = parse_params("4,2,2,0,2")


def outer4(text):
    code = parse_params(text)
    assert code.q == 4
    return code


class TestConcatenate:
    def test_worked_example(self):
        # [[4,2,2;0]]_2 block inside a maximal [[25,13,12;12]]_4 code
        outer = outer4("25,13,>=12,12,4")
        code = concatenate(INNER422, outer)
        assert code.render() == "[[100,26,>=24;24]]_2"
        assert code.net == 2
        assert not code.is_maximal
        defect = ea_singleton_defect(code)
        assert (defect.value, defect.label) == (52, "52-EAQMDS")
        assert code.provenance == Provenance("concat", (INNER422, outer))
        assert code.provenance.args[0] is INNER422 and code.provenance.args[1] is outer

    def test_parameter_arithmetic(self):
        inner = parse_params("3,2,2,1,2")
        outer = outer4("5,3,2,1,4")
        code = concatenate(inner, outer)
        assert (code.n, code.k) == (15, 6)
        assert code.c == 1 * 5 + 1 * 2
        assert code.d == Distance.lower_bound(4)

    def test_distance_always_a_bound(self):
        outer = outer4("5,3,3,2,4")  # exact outer distance
        assert concatenate(INNER422, outer).d.kind == "bound"

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch, match=r"2\^2 = 4, got 2"):
            concatenate(INNER422, parse_params("5,3,2,1,2"))
        with pytest.raises(AlphabetMismatch):
            concatenate(parse_params("3,2,2,1,2"), parse_params("5,3,2,1,8"))

    def test_alphabet_refused_before_the_power(self):
        # 2^(10^11) is never built: 2^k1 > 4 once k1 passes 4's bit length
        inner = EaqeccParams(q=2, n=10**11, k=10**11, d=Distance.exact(1), c=0)
        with pytest.raises(AlphabetMismatch, match=r"= 2\^100000000000, got 4$"):
            concatenate(inner, outer4("5,3,2,1,4"))

    def test_maximal_closure_exhaustive(self):
        # maximal components concatenate to a maximal code
        for n1, k1 in ((2, 1), (3, 1), (3, 2), (4, 2)):
            inner = EaqeccParams(
                q=2, n=n1, k=k1, d=Distance.lower_bound(2), c=n1 - k1
            )
            for n2 in range(1, 7):
                for k2 in range(0, n2 + 1):
                    outer = EaqeccParams(
                        q=2 ** k1, n=n2, k=k2,
                        d=Distance.lower_bound(1), c=n2 - k2,
                    )
                    code = concatenate(inner, outer)
                    assert code.c == n1 * n2 - k1 * k2
                    assert code.is_maximal


class TestExtend:
    def test_basic(self):
        base = concatenate(INNER422, outer4("5,3,2,1,4"))
        out = extend(base, 3)
        assert (out.n, out.k, out.c) == (base.n + 3, base.k, base.c)
        assert out.net == base.net
        assert out.d == Distance.lower_bound(base.d.require())
        assert out.provenance == Provenance("extend", (base, 3))

    def test_zero_is_identity(self):
        base = concatenate(INNER422, outer4("5,3,2,1,4"))
        assert extend(base, 0) is base

    def test_validation(self):
        base = parse_params("3,2,2,1,2")
        with pytest.raises(ValueError):
            extend(base, -1)
        with pytest.raises(ValueError):
            extend(base, 1.5)
        with pytest.raises(ValueError):
            extend(base, True)  # bool subclasses int; it is not t = 1

    def test_on_literal_tuple(self):
        out = extend(parse_params("3,2,2,1,2"), 2)
        assert out.render() == "[[5,2,>=2;1]]_2"


class TestExpurgate:
    def test_basic(self):
        base = concatenate(INNER422, outer4("23,1,>=11,22,4"))
        out = expurgate(base, 2)
        assert (out.n, out.k, out.c) == (base.n - 2, base.k, base.c + 2)
        assert out.net == base.net - 2
        assert out.d.require() == base.d.require()
        assert out.provenance == Provenance("expurgate", (base, 2))

    def test_needs_concatenation(self):
        with pytest.raises(ProvenanceMismatch):
            expurgate(parse_params("92,2,>=22,0,2"), 1)

    def test_needs_the_standard_inner(self):
        base = concatenate(parse_params("3,2,2,1,2"), outer4("5,3,2,1,4"))
        with pytest.raises(ProvenanceMismatch, match=r"4,2,2;0"):
            expurgate(base, 1)

    def test_block_budget(self):
        base = concatenate(INNER422, outer4("5,3,2,1,4"))
        assert expurgate(base, 5).n == base.n - 5
        with pytest.raises(TooManyBlocks):
            expurgate(base, 6)

    def test_amount_validation(self):
        base = concatenate(INNER422, outer4("5,3,2,1,4"))
        with pytest.raises(ValueError):
            expurgate(base, 0)
        with pytest.raises(ValueError):
            expurgate(base, -2)
        with pytest.raises(ValueError):
            expurgate(base, True)


def classical(spec, parity_check):
    code = ClassicalCode.from_parity_check(MatrixGF(spec, parity_check))
    return code.with_distance(min_distance(code))


def provenance_case(op):
    """(builder, args) for one op: the code builder(*args) must record both."""
    rep2 = classical(FieldSpec(2, 1), [[1, 1]])  # [2,1,2]_2
    base = concatenate(INNER422, outer4("5,3,2,1,4"))
    return {
        "css": (css_construct, (rep2, rep2)),
        "hermitian": (hermitian_construct, (classical(FieldSpec(2, 2), [[1, 1, 2]]), 2)),
        "concat": (concatenate, (INNER422, outer4("5,3,2,1,4"))),
        "extend": (extend, (base, 3)),
        "expurgate": (expurgate, (base, 2)),
    }[op]


class TestProvenance:
    @pytest.mark.parametrize("op", ["css", "hermitian", "concat", "extend", "expurgate"])
    def test_each_builder_records_its_op_and_args(self, op):
        build, args = provenance_case(op)
        code = build(*args)
        assert type(code.provenance) is Provenance
        assert code.provenance == Provenance(op, args)
        assert all(a is b for a, b in zip(code.provenance.args, args, strict=True))
        assert extend(code, 0) is code

    @pytest.mark.parametrize("op", ["css", "hermitian", "extend", "literal"])
    def test_expurgate_needs_a_concat_provenance(self, op):
        if op == "literal":
            # the numbers of a valid concatenation, without its provenance
            base = concatenate(INNER422, outer4("5,3,2,1,4"))
            code = EaqeccParams(q=base.q, n=base.n, k=base.k, d=base.d, c=base.c)
        else:
            build, args = provenance_case(op)
            code = build(*args)
        with pytest.raises(ProvenanceMismatch, match="only to concatenated codes"):
            expurgate(code, 1)


GOOD_LINE = "I|4,2,2,0,2|23,1*,11,?,4|base|92,2*,>=22,?,2|[[92,2*,21]]|[[92,2,20]]"


class TestParseTableFile:
    def test_single_row(self):
        (row,) = parse_table_file(GOOD_LINE)
        assert row.table == "I" and row.index == 1
        assert row.inner.render() == "[[4,2,2;0]]_2"
        assert row.outer.k_is_net and row.outer.c is None
        assert row.transform == ("base", 0)
        assert row.published.render() == "[[92,2*,>=22]]_2"
        assert row.label() == "I:001 base"

    def test_comments_and_blanks_skipped(self):
        text = "# heading\n\n" + GOOD_LINE + "\n   \n"
        assert len(parse_table_file(text)) == 1

    def test_indices_count_per_table(self):
        iv = "IV|3,2,2,1,2|2,1,2,1,4|base|6,2,4,4,2|opt_d=4|"
        rows = parse_table_file("\n".join([GOOD_LINE, iv, GOOD_LINE]))
        assert [(r.table, r.index) for r in rows] == [("I", 1), ("IV", 1), ("I", 2)]

    def test_transform_labels(self):
        ext = GOOD_LINE.replace("|base|", "|extend+2|")
        exp = GOOD_LINE.replace("|base|", "|expurgate-1|")
        assert parse_table_file(ext)[0].label() == "I:001 extend+2"
        assert parse_table_file(exp)[0].label() == "I:001 expurgate-1"

    @pytest.mark.parametrize(
        "line, match",
        [
            ("I|4,2,2,0,2|23,1*,11,?,4|base|92,2*,>=22,?,2|x", "7 '|'-separated"),
            (GOOD_LINE.replace("I|", "V|", 1), "unknown table"),
            (GOOD_LINE.replace("4,2,2,0,2", "4,2*,2,0,2"), "fully specified"),
            (GOOD_LINE.replace("4,2,2,0,2", "4,2,2,?,2"), "fully specified"),
            (GOOD_LINE.replace("23,1*,11,?,4", "23,1,11,?,4"), "plain k with c"),
            (GOOD_LINE.replace("|base|", "|shorten-1|"), "unknown transform"),
            (GOOD_LINE.replace("|base|", "|extend+0|"), ">= 1"),
            (GOOD_LINE.replace("|base|", "|extend+x|"), "bad transform"),
            (GOOD_LINE.replace("4,2,2,0,2", "4,2,2,0"), "n,k,d,c,q"),
            (GOOD_LINE.replace("4,2,2,0,2", "4,two,2,0,2"), "bad tuple"),
            # tuples that parse but cannot be built, refused with their line
            (
                "I|4,9,2,0,2|25,13,12,12,4|base|100,26,24,24,2|x|y",
                "line 1: dimension 9 exceeds the length 4",
            ),
            (GOOD_LINE.replace("4,2,2,0,2", "4,2,2,0,6"), "line 1: alphabet size 6"),
            (GOOD_LINE.replace("23,1*,11,?,4", "23,2,11,1,6"), "line 1: alphabet size 6"),
            # a net-form outer is built at c2 = 0 and 1; k = 23 + 1 exceeds n
            (GOOD_LINE.replace("23,1*,11,?,4", "23,23*,11,?,4"), "line 1: dimension 24"),
            # rows that parse but cannot be derived, refused with their line
            (
                "I|4,2,2,0,2|23,1*,11,?,4|expurgate-30|62,1*,>=22,?,2|x|y",
                "line 1: cannot replace 30 of 23 inner blocks",
            ),
            (
                "IV|3,2,2,1,2|5,3,2,1,8|base|15,6,4,8,2|x|y",
                "line 1: outer alphabet must be q\\^k1",
            ),
            (
                "IV|3,2,2,1,2|5,3,2,1,4|expurgate-1|14,6,4,8,2|x|y",
                "line 1: expurgation needs inner",
            ),
        ],
    )
    def test_rejects(self, line, match):
        with pytest.raises(ParseError, match=match):
            parse_table_file(line)

    def test_error_carries_line_number(self):
        text = GOOD_LINE + "\n# ok\nI|bad\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_table_file(text)


@pytest.fixture(scope="module")
def rows():
    return load_bundled_tables()


@pytest.fixture(scope="module")
def report(rows):
    return audit_tables(rows)


def republished(row, published):
    """The row with another published tuple; derived is computed afresh."""
    return TableRow(
        table=row.table,
        index=row.index,
        inner=row.inner,
        outer=row.outer,
        transform=row.transform,
        published=published,
    )


class TestBundledTables:
    def test_row_counts(self, rows):
        assert len(rows) == 141
        per = {}
        for r in rows:
            per[r.table] = per.get(r.table, 0) + 1
        assert per == {"I": 33, "II": 68, "III": 26, "IV": 14}

    def test_net_form_tables_use_the_standard_inner(self, rows):
        for r in rows:
            if r.table != "IV":
                t = r.inner
                assert (t.n, t.k, t.d.require(), t.c, t.q) == (4, 2, 2, 0, 2)
                assert r.outer.k_is_net and r.outer.q == 4
                assert r.published.k_is_net and r.published.c is None

    def test_table_iv_prints_everything(self, rows):
        for r in rows:
            if r.table == "IV":
                assert r.transform == ("base", 0)
                assert not r.published.k_is_net and r.published.c is not None

    def test_audit_summary(self, report):
        assert isinstance(report, tuple) and len(report) == 141
        assert sum(v.consistent for v in report) == 140
        assert sum(v.known for v in report) == 1

    def test_single_failure_is_the_known_one(self, report):
        (bad,) = [v for v in report if not v.consistent]
        assert bad.known
        assert bad.row.table == "IV"
        assert bad.row.published.render() == "[[46,2,36;34]]_2"
        (mm,) = bad.mismatches
        assert (mm.field, mm.expected, mm.published) == ("c", 44, 34)

    def test_base_row_identities(self, rows):
        # doubling map onto the outer parameters for the net-form tables
        for r in rows:
            if r.table == "IV" or r.transform != ("base", 0):
                continue
            assert r.published.n == 4 * r.outer.n
            assert r.published.k == 2 * r.outer.k
            assert r.published.d.require() == 2 * r.outer.d.require()

    def test_transform_rows_track_their_base(self, rows):
        base = {}
        for r in rows:
            if r.table == "IV":
                continue
            name, t = r.transform
            if name == "base":
                base[r.table] = r
                continue
            b = base[r.table].published
            p = r.published
            assert r.outer == base[r.table].outer
            assert p.d.require() == b.d.require()
            if name == "extend":
                assert (p.n, p.k) == (b.n + t, b.k)
            else:
                assert (p.n, p.k) == (b.n - t, b.k - t)

    def test_net_form_invariance_explicit(self, rows):
        # the printed columns cannot depend on the unprinted outer entanglement
        sample = [r for r in rows if r.table == "II"][:10]
        for r in sample:
            derived = r.derived
            for c2 in (0, 1, 2):
                outer = EaqeccParams(
                    q=4, n=r.outer.n, k=r.outer.k + c2, d=r.outer.d, c=c2
                )
                code = concatenate(parse_params("4,2,2,0,2"), outer)
                name, t = r.transform
                if name == "extend":
                    code = extend(code, t)
                elif name == "expurgate":
                    code = expurgate(code, t)
                assert (code.n, code.net, code.d.require()) == (
                    derived.n, derived.net, derived.d.require()
                )

    def test_each_row_is_derived_once(self, monkeypatch):
        calls = []
        real = concat.concatenate
        monkeypatch.setattr(
            concat, "concatenate", lambda inner, outer: calls.append(1) or real(inner, outer)
        )
        audit_tables(load_bundled_tables())
        # two outer entanglements for each of the 127 net-form rows, one for
        # each of the 14 rows of table IV
        assert len(calls) == 2 * 127 + 14

    def test_derive_row_table_iv(self, rows):
        row = next(r for r in rows if r.table == "IV")
        code = row.derived
        assert (code.n, code.k, code.c) == (6, 2, 4)

    def test_corrupted_row_is_flagged_as_unknown(self, rows):
        row = next(r for r in rows if r.table == "I")
        broken = TableTuple(
            n=row.published.n + 1,
            k=row.published.k,
            k_is_net=row.published.k_is_net,
            d=row.published.d,
            c=row.published.c,
            q=row.published.q,
        )
        (verdict,) = audit_tables([republished(row, broken)])
        assert not verdict.consistent
        assert [m.field for m in verdict.mismatches] == ["n"]
        assert not verdict.known

    @pytest.mark.parametrize(
        "table, field",
        [("I", "net"), ("II", "net"), ("III", "net"), ("IV", "k"), ("I", "d"), ("IV", "d")],
    )
    def test_corrupted_count_is_flagged_as_unknown(self, rows, table, field):
        row = next(r for r in rows if r.table == table)
        pub = row.published
        d = Distance(pub.d.kind, pub.d.value + 1) if field == "d" else pub.d
        k = pub.k if field == "d" else pub.k + 1
        broken = TableTuple(n=pub.n, k=k, k_is_net=pub.k_is_net, d=d, c=pub.c, q=pub.q)
        (verdict,) = audit_tables([republished(row, broken)])
        assert [m.field for m in verdict.mismatches] == [field]
        assert not verdict.known


KNOWN_LINE = "IV|23,2,18,21,2|2,1,2,1,4|base|46,2,36,34,2|opt_d=36|"


class TestKnownDiscrepancy:
    """Only the documented row with exactly its documented mismatch is known."""

    def test_the_documented_row(self):
        (verdict,) = audit_tables(parse_table_file(KNOWN_LINE))
        assert verdict.known and not verdict.consistent
        assert verdict.mismatches == (concat.Mismatch("c", 44, 34),)

    @pytest.mark.parametrize(
        "old, new, fields",
        [
            ("46,2,36,34,2", "46,2,36,35,2", ["c"]),  # published c = 35
            ("46,2,36,34,2", "47,2,36,34,2", ["n", "c"]),  # published n = 47
            ("46,2,36,34,2", "46,2,>=36,34,2", ["c"]),  # published d as a bound
            ("IV|", "III|", ["c"]),  # the same tuple in another table
            ("23,2,18,21,2", "23,2,18,20,2", ["c"]),  # components give c = 42
        ],
    )
    def test_any_other_mismatch_is_unexpected(self, old, new, fields):
        (verdict,) = audit_tables(parse_table_file(KNOWN_LINE.replace(old, new, 1)))
        assert [m.field for m in verdict.mismatches] == fields
        assert not verdict.known

    def test_documented_tuple_without_its_mismatch_is_not_known(self):
        # inner c1 = 16 gives c = 16 * 2 + 1 * 2 = 34, as printed
        (verdict,) = audit_tables(parse_table_file(KNOWN_LINE.replace(",21,", ",16,", 1)))
        assert verdict.consistent and not verdict.known
