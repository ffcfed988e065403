"""Entanglement-assisted constructions: CSS-type pairs and conjugate pairing."""

import random
from functools import reduce
from itertools import product

import pytest

from eaqec import eaqecc
from eaqec.codes import ClassicalCode, Defect, Distance, dual, min_distance, random_code
from eaqec.eaqecc import (
    EaqeccParams,
    TableTuple,
    css_construct,
    css_entanglement,
    ea_singleton_defect,
    format_params,
    hermitian_construct,
    hermitian_entanglement,
    parse_params,
)
from eaqec.errors import (
    DistanceUnknown,
    EntanglementFormulaMismatch,
    FieldMismatch,
    LengthMismatch,
    ParseError,
)
from eaqec.gf import FieldSpec
from eaqec.matrix import MatrixGF

GF2 = FieldSpec(2, 1)
GF3 = FieldSpec(3, 1)
GF4 = FieldSpec(2, 2)
GF9 = FieldSpec(3, 2)
GF16 = FieldSpec(2, 4)

HAMMING_H = [
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]


def with_d(code):
    return code.with_distance(min_distance(code))


def rep2():
    return with_d(ClassicalCode.from_parity_check(MatrixGF(GF2, [[1, 1]])))


class TestParams:
    def test_render_and_net(self):
        p = EaqeccParams(q=2, n=3, k=2, d=Distance.lower_bound(2), c=1)
        assert p.render() == "[[3,2,>=2;1]]_2"
        assert str(p) == p.render()
        assert p.net == 1
        assert p.is_maximal

    def test_not_maximal(self):
        p = EaqeccParams(q=2, n=7, k=1, d=Distance.lower_bound(3), c=0)
        assert not p.is_maximal

    def test_literal_tuple_allows_negative_net(self):
        p = EaqeccParams(q=2, n=4, k=1, d=Distance.exact(4), c=3)
        assert p.net == -2

    def test_validation(self):
        d = Distance.exact(2)
        with pytest.raises(ValueError, match="prime power"):
            EaqeccParams(q=6, n=3, k=1, d=d, c=0)
        with pytest.raises(ValueError, match="length"):
            EaqeccParams(q=2, n=0, k=0, d=d, c=0)
        with pytest.raises(ValueError, match="dimension"):
            EaqeccParams(q=2, n=3, k=-1, d=d, c=0)
        with pytest.raises(ValueError, match="entanglement"):
            EaqeccParams(q=2, n=3, k=1, d=d, c=-1)
        with pytest.raises(DistanceUnknown):
            EaqeccParams(q=2, n=3, k=1, d=Distance.unknown(), c=0)
        # integer fields are refused as non-integers before any range check:
        # True would pass as 1, 2.5 would render, 4.0 would reach prime_power
        for name, fields in (("n", dict(q=2, n=True, k=0, d=Distance.exact(1), c=0)),
                             ("k", dict(q=2, n=4, k=2.5, d=d, c=0)),
                             ("q", dict(q=4.0, n=3, k=1, d=d, c=0)),
                             ("q", dict(q=True, n=3, k=1, d=d, c=0)),
                             ("c", dict(q=2, n=3, k=1, d=d, c=False)),
                             ("c", dict(q=2, n=3, k=1, d=d, c="0"))):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                EaqeccParams(**fields)
        # a bare int for d raised AttributeError from d.is_known
        with pytest.raises(ValueError, match="^d must be a Distance, got 3$"):
            EaqeccParams(q=2, n=3, k=1, d=3, c=0)

    def test_dimension_above_length_rejected(self):
        with pytest.raises(ValueError, match="exceeds the length"):
            EaqeccParams(q=2, n=3, k=5, d=Distance.exact(1), c=0)
        # k == n is possible (the whole space, d = 1)
        assert EaqeccParams(q=2, n=3, k=3, d=Distance.exact(1), c=0).net == 3

    @pytest.mark.parametrize("d", [Distance.exact(5), Distance.lower_bound(5)])
    def test_distance_above_length_rejected(self, d):
        with pytest.raises(ValueError, match="distance 5 exceeds the length 4"):
            EaqeccParams(q=2, n=4, k=0, d=d, c=1)
        # d == n is possible (the repetition code)
        assert EaqeccParams(q=2, n=4, k=1, d=Distance.exact(4), c=0).d.value == 4

    def test_constructed_code_caps_c(self):
        # any non-None provenance turns on the c <= n - k check
        with pytest.raises(ValueError, match="c <= n - k"):
            EaqeccParams(q=2, n=4, k=2, d=Distance.exact(2), c=3,
                         provenance="literal-but-marked")


class TestCssConstruct:
    def test_repetition_pair(self):
        code = css_construct(rep2(), rep2())
        assert code.render() == "[[2,0,>=2;0]]_2"
        assert code.provenance.op == "css"

    def test_steane_parameters(self):
        ham = with_d(ClassicalCode.from_parity_check(MatrixGF(GF2, HAMMING_H)))
        code = css_construct(ham, ham)
        assert code.render() == "[[7,1,>=3;0]]_2"
        assert ea_singleton_defect(code).label == "EAQAMDS"

    def test_code_with_dual_needs_no_entanglement(self):
        rng = random.Random(2)
        for spec in (GF2, GF3):
            for _ in range(8):
                n = rng.randrange(3, 7)
                k = rng.randrange(1, n)
                c1 = random_code(spec, n, k, rng)
                assert css_entanglement(c1, dual(c1)) == 0

    def test_entanglement_oracle_small(self):
        # c == dim(C2-dual) - dim(C2-dual ∩ C1), checked on full codeword sets
        rng = random.Random(9)
        for spec in (GF2, GF3):
            for _ in range(12):
                n = rng.randrange(2, 6)
                c1 = random_code(spec, n, rng.randrange(1, n + 1), rng)
                c2 = random_code(spec, n, rng.randrange(1, n + 1), rng)
                got = css_entanglement(c1, c2)
                dual2 = set(dual(c2).codewords()) if c2.k < n else {(0,) * n}
                inter = dual2 & set(c1.codewords())
                import math
                expect = round(math.log(len(dual2), spec.q)) - round(
                    math.log(len(inter), spec.q)
                )
                assert got == expect

    def test_random_pairs_are_valid_codes(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randrange(2, 8)
            c1 = with_d(random_code(GF2, n, rng.randrange(1, n), rng))
            c2 = with_d(random_code(GF2, n, rng.randrange(1, n), rng))
            code = css_construct(c1, c2)
            assert code.k == c1.k + c2.k - n + code.c
            assert 0 <= code.c <= code.n - code.k
            assert code.d.kind == "bound"
            assert code.d.value == min(c1.distance.value, c2.distance.value)

    def test_length_mismatch(self):
        short = with_d(ClassicalCode.from_parity_check(MatrixGF(GF2, [[1, 1, 1]])))
        with pytest.raises(LengthMismatch):
            css_construct(rep2(), short)

    def test_field_mismatch(self):
        tern = with_d(ClassicalCode.from_parity_check(MatrixGF(GF3, [[1, 2]])))
        with pytest.raises(FieldMismatch):
            css_construct(rep2(), tern)

    def test_distance_required(self):
        bare = ClassicalCode.from_parity_check(MatrixGF(GF2, [[1, 1]]))
        with pytest.raises(DistanceUnknown):
            css_construct(bare, rep2())


def conjugate_dual(code, r):
    """C^⊥h: every v of GF(r^2)^n with sum_i g_i * v_i^r = 0 for every generator row g."""
    spec, rows = code.spec, code.G.to_lists()
    found = set()
    for v in product(range(spec.q), repeat=code.n):
        vbar = [spec.pow(x, r) for x in v]
        if all(reduce(spec.add, map(spec.mul, g, vbar), 0) == 0 for g in rows):
            found.add(v)
    return found


class TestHermitianConstruct:
    def test_three_qubit_maximal(self):
        h = MatrixGF(GF4, [[1, 1, 2]])
        code = hermitian_construct(
            with_d(ClassicalCode.from_parity_check(h)), 2
        )
        assert code.render() == "[[3,2,>=2;1]]_2"
        assert code.is_maximal
        assert ea_singleton_defect(code).label == "EAQMDS"
        assert code.provenance.op == "hermitian"

    def test_self_orthogonal_row_needs_none(self):
        h = MatrixGF(GF4, [[1, 1]])
        assert hermitian_entanglement(ClassicalCode.from_parity_check(h), 2) == 0
        code = hermitian_construct(
            with_d(ClassicalCode.from_parity_check(h)), 2
        )
        assert code.render() == "[[2,0,>=2;0]]_2"

    def test_result_is_over_base_field(self):
        h = MatrixGF(GF4, [[1, 2, 3, 0], [0, 1, 1, 1]])
        code = hermitian_construct(
            with_d(ClassicalCode.from_parity_check(h)), 2
        )
        assert code.q == 2
        assert code.k == 2 * 2 - 4 + code.c

    def test_random_codes_are_valid(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randrange(2, 6)
            k = rng.randrange(1, n)
            code = hermitian_construct(with_d(random_code(GF4, n, k, rng)), 2)
            assert 0 <= code.c <= code.n - code.k
            assert code.q == 2

    def test_base_field_check(self):
        with pytest.raises(FieldMismatch):
            hermitian_entanglement(rep2(), 2)

    @pytest.mark.parametrize("base", [-2, 0, 4, 2.0])
    def test_base_must_be_the_square_root(self, base):
        # only base 2 is GF(4)'s; -2 and 2.0 square to 4 too but are no field size
        code = with_d(ClassicalCode.from_parity_check(MatrixGF(GF4, [[1, 1, 2]])))
        with pytest.raises(FieldMismatch):
            hermitian_entanglement(code, base)
        with pytest.raises(FieldMismatch):
            hermitian_construct(code, base)

    def test_distance_required(self):
        bare = ClassicalCode.from_parity_check(MatrixGF(GF4, [[1, 1, 2]]))
        with pytest.raises(DistanceUnknown):
            hermitian_construct(bare, 2)

    def test_count_by_brute_force(self):
        # c = (n - k) - log_q |C^⊥h ∩ C|, where C^⊥h = {v : sum_i g_i v_i^r = 0
        # for every generator row g}, both sets enumerated with scalar field ops
        rng = random.Random(36)
        for spec, r, top in ((GF4, 2, 5), (GF9, 3, 4), (GF16, 4, 3)):
            for _ in range(12):
                n = rng.randrange(2, top + 1)
                code = random_code(spec, n, rng.randrange(1, n + 1), rng)
                hull = conjugate_dual(code, r) & set(code.codewords())
                dim = next(e for e in range(n + 1) if spec.q ** e >= len(hull))
                assert spec.q ** dim == len(hull)
                assert hermitian_entanglement(code, r) == code.n - code.k - dim


def gf9_css_pair():
    c1 = ClassicalCode.from_generator(MatrixGF(GF9, [[1, 0, 2, 5, 7], [0, 1, 4, 8, 3]]))
    c2 = ClassicalCode.from_parity_check(MatrixGF(GF9, [[1, 6, 0, 2, 1], [0, 3, 1, 1, 5]]))
    return c1, c2


def gf9_hermitian_code():
    return ClassicalCode.from_parity_check(MatrixGF(GF9, [[1, 2, 3, 4], [0, 1, 5, 7]]))


class TestTwoRoutes:
    """c comes from two independent routes, each eliminating its own matrix."""

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("route", ["_rank_route", "_dimension_route"])
    def test_off_by_one_route_is_caught(self, monkeypatch, route, delta):
        c1, c2 = gf9_css_pair()
        code = gf9_hermitian_code()
        css_entanglement(c1, c2)
        hermitian_entanglement(code, 3)
        real = getattr(eaqecc, route)
        monkeypatch.setattr(eaqecc, route, lambda *args: real(*args) + delta)
        with pytest.raises(EntanglementFormulaMismatch):
            css_entanglement(c1, c2)
        with pytest.raises(EntanglementFormulaMismatch):
            hermitian_entanglement(code, 3)

    def test_exactly_two_eliminations_per_call(self, monkeypatch):
        c1, c2 = gf9_css_pair()
        code = gf9_hermitian_code()
        shapes = []
        real = MatrixGF.rref

        def counting(self):
            shapes.append(self.shape)
            return real(self)

        monkeypatch.setattr(MatrixGF, "rref", counting)
        css_entanglement(c1, c2)
        # the Gram matrix H1 @ H2.T, and H2 stacked over G1
        assert sorted(shapes) == sorted([(c1.n - c1.k, c2.n - c2.k), (c2.n - c2.k + c1.k, c1.n)])
        shapes.clear()
        hermitian_entanglement(code, 3)
        r = code.n - code.k
        assert sorted(shapes) == sorted([(r, r), (r + code.k, code.n)])


class TestDefect:
    def test_known_labels(self):
        cases = [
            ((3, 2, 2, 1), 0, "EAQMDS"),
            ((6, 2, 4, 4), 2, "EAQAMDS"),
            ((100, 26, 24, 24), 52, "52-EAQMDS"),
            ((4, 1, 2, 0), 1, "1-EAQMDS"),
        ]
        for (n, k, d, c), h, label in cases:
            p = EaqeccParams(q=2, n=n, k=k, d=Distance.exact(d), c=c)
            assert ea_singleton_defect(p) == Defect(h, label)

    def test_negative_flagged(self):
        p = EaqeccParams(q=2, n=4, k=0, d=Distance.exact(4), c=1)
        # returned as it is, not rejected; the sign is the value's own
        assert ea_singleton_defect(p) == Defect(-1, "-1-EAQMDS")

    def test_bound_flagged(self):
        # a bound gives the same record as the exact value; p.d says which it is
        p = EaqeccParams(q=2, n=3, k=2, d=Distance.lower_bound(2), c=1)
        exact = EaqeccParams(q=2, n=3, k=2, d=Distance.exact(2), c=1)
        assert not p.d.is_exact
        assert ea_singleton_defect(p) == ea_singleton_defect(exact) == Defect(0, "EAQMDS")


class TestParseFormat:
    def test_round_trip(self):
        for text in ("3,2,2,1,2", "7,1,>=3,0,2", "46,2,36,34,2", "24,4,>=10,20,2"):
            code = parse_params(text)
            assert format_params(code) == text
            assert parse_params(format_params(code)) == code

    def test_exact_vs_bound(self):
        assert parse_params("3,2,2,1,2").d.is_exact
        assert parse_params("3,2,>=2,1,2").d.kind == "bound"

    def test_whitespace_tolerated(self):
        assert parse_params(" 3 , 2 , 2 , 1 , 2 ").n == 3

    def test_errors(self):
        for bad in (
            "3,2,2,1",          # missing field
            "3,2,2,1,2,9",      # extra field
            "x,2,2,1,2",        # not an integer
            "3,2,>=x,1,2",      # bad bound
            "3,2,0,1,2",        # nonpositive distance
            "3,2,2,1,6",        # alphabet not a prime power
            "0,0,1,0,2",        # zero length
        ):
            with pytest.raises(ParseError):
                parse_params(bad)

    def test_net_marker_and_unprinted_c_need_a_full_tuple(self):
        for bad in ("3,2*,2,1,2", "3,2,2,?,2", "3,2*,2,?,2"):
            with pytest.raises(ParseError, match="must be fully specified"):
                parse_params(bad)


class TestTableTuple:
    def test_parse_render_build(self):
        tt = TableTuple.parse("23, 1*, >=11, ?, 4")
        bound = Distance.lower_bound(11)
        assert tt == TableTuple(n=23, k=1, k_is_net=True, d=bound, c=None, q=4)
        assert tt.render() == "[[23,1*,>=11]]_4"
        # a net-form k is completed by the entanglement it is built with
        assert tt.build(3) == EaqeccParams(q=4, n=23, k=4, d=bound, c=3)
        plain = TableTuple.parse("46,2,36,34,2")
        assert plain.render() == "[[46,2,36;34]]_2"
        assert plain.build() == parse_params("46,2,36,34,2")

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ("4,2,2,0", "line 7", "line 7: expected 'n,k,d,c,q', got '4,2,2,0'"),
            ("4,2,2,0", "", "expected 'n,k,d,c,q', got '4,2,2,0'"),
            ("4,two,2,0,2", "line 7", "line 7: bad tuple '4,two,2,0,2' (invalid literal"),
            ("0,0,1,0,2", "", "bad tuple '0,0,1,0,2'"),
            ("4,2,2,0,1", "", "bad tuple '4,2,2,0,1'"),
        ],
    )
    def test_errors_name_where(self, text, where, message):
        with pytest.raises(ParseError) as info:
            TableTuple.parse(text, where)
        assert str(info.value).startswith(message)
