"""Classical code layer: distance search, duals, Singleton classes."""

from itertools import product
import random
import time
import tracemalloc

import pytest

from eaqec import codes
from eaqec.codes import (
    DEFAULT_BUDGET,
    ClassicalCode,
    Defect,
    Distance,
    conjugate,
    dual,
    min_distance,
    random_code,
    singleton_defect,
)
from eaqec.eaqecc import css_entanglement
from eaqec.errors import BudgetInvalid, DistanceUnknown
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


def hamming():
    return ClassicalCode.from_parity_check(MatrixGF(GF2, HAMMING_H))


def span(code):
    return set(code.codewords())


def weight(word):
    return sum(1 for v in word if v)


def oracle_distance(code):
    """Least nonzero weight over every codeword, by codewords()."""
    return min(weight(w) for w in code.codewords() if any(w))


def cyclic(n, gpoly):
    """Generator rows of the cyclic code of length n with generator
    polynomial gpoly, coefficients from degree 0 up."""
    k = n - len(gpoly) + 1
    return [[0] * i + list(gpoly) + [0] * (k - 1 - i) for i in range(k)]


GOLAY23 = cyclic(23, [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1])


def monomial_image(code, rng):
    """The code under a random column permutation and nonzero column scaling."""
    spec, n = code.spec, code.n
    perm = rng.sample(range(n), n)
    scale = [rng.randrange(1, spec.q) for _ in range(n)]
    rows = [[spec.mul(row[perm[j]], scale[j]) for j in range(n)] for row in code.G.to_lists()]
    return ClassicalCode.from_generator(MatrixGF(spec, rows))


class TestDistance:
    def test_constructors_and_render(self):
        assert Distance.exact(3).render() == "3"
        assert Distance.lower_bound(4).render() == ">=4"
        assert Distance.unknown().render() == "?"
        assert Distance.exact(3).is_exact
        assert Distance.lower_bound(4).is_known
        assert not Distance.lower_bound(4).is_exact
        assert not Distance.unknown().is_known
        for d in (Distance.exact(3), Distance.lower_bound(4), Distance.exact(12)):
            assert Distance.parse(d.render()) == d
        for token in ("0", ">=0", "x"):
            with pytest.raises(ValueError):
                Distance.parse(token)

    def test_require(self):
        assert Distance.exact(5).require() == 5
        assert Distance.lower_bound(2).require() == 2
        with pytest.raises(DistanceUnknown):
            Distance.unknown().require()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Distance.exact(0)
        with pytest.raises(ValueError):
            Distance.lower_bound(-1)

    @pytest.mark.parametrize("kind, value", [
        ("exact", 0), ("bound", None), ("bound", True), ("unknown", 3), ("maybe", 2),
    ])
    def test_direct_construction_is_checked(self, kind, value):
        with pytest.raises(ValueError):
            Distance(kind, value)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            Distance.exact(2.5)


class TestConstruction:
    def test_from_parity_check_hamming(self):
        code = hamming()
        assert (code.n, code.k) == (7, 4)
        assert not code.G.mul(code.H.transpose()).array().any()

    def test_from_generator_roundtrip(self):
        g = MatrixGF(GF3, [[1, 0, 2, 1], [0, 1, 1, 1]])
        code = ClassicalCode.from_generator(g)
        assert (code.n, code.k) == (4, 2)
        # same codeword set when rebuilt from the parity check
        again = ClassicalCode.from_parity_check(code.H)
        assert span(code) == span(again)

    def test_no_pair_constructor(self):
        # a code comes from one matrix; the other is its nullspace
        g = MatrixGF(GF2, [[1, 0, 0]])
        with pytest.raises(TypeError, match="from_generator.*from_parity_check"):
            ClassicalCode(g, MatrixGF(GF2, [[0, 1, 0], [0, 0, 1]]))

    @pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF9, GF16], ids=lambda s: f"q{s.q}")
    def test_rank_deficient_user_matrix_rejected(self, spec):
        # second row is a nonzero multiple of the first
        row = [1, 0, spec.q - 1, 1]
        scaled = [spec.mul(spec.q - 1, x) for x in row]
        m = MatrixGF(spec, [row, scaled])
        with pytest.raises(ValueError, match="full rank"):
            ClassicalCode.from_generator(m)
        with pytest.raises(ValueError, match="full rank"):
            ClassicalCode.from_parity_check(m)

    @pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF9, GF16], ids=lambda s: f"q{s.q}")
    def test_built_codes_are_consistent(self, spec):
        def check(code, n, k):
            assert (code.n, code.k) == (n, k)
            assert code.G.shape == (k, n) and code.H.shape == (n - k, n)
            assert not code.G.mul(code.H.transpose()).array().any()
            assert code.G.rank() == k
            assert code.H.rank() == n - k

        rng = random.Random(spec.q)
        built = 0
        for _ in range(40):
            n = rng.randrange(1, 9)
            k = rng.randrange(0, n + 1)
            check(random_code(spec, n, k, rng), n, k)
            for make, rows in (
                (ClassicalCode.from_generator, k),
                (ClassicalCode.from_parity_check, n - k),
            ):
                m = MatrixGF.zeros(spec, 0, n) if rows == 0 else MatrixGF(
                    spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(rows)]
                )
                if m.rank() == rows:
                    check(make(m), n, k)
                    built += 1
                else:
                    with pytest.raises(ValueError):
                        make(m)
        assert built > 0

    def test_with_distance_is_fresh(self):
        code = hamming()
        coded = code.with_distance(Distance.exact(3))
        assert code.distance.kind == "unknown"
        assert coded.distance == Distance.exact(3)
        assert coded.G is code.G

    def test_repr(self):
        code = hamming().with_distance(Distance.exact(3))
        assert repr(code) == "[7,4,3]_2"


class TestCodewords:
    def test_count_and_linearity(self):
        code = hamming()
        words = span(code)
        assert len(words) == 2 ** 4
        assert (0,) * 7 in words
        # closed under addition (GF(2): XOR)
        sample = sorted(words)[:6]
        for u in sample:
            for v in sample:
                assert tuple(a ^ b for a, b in zip(u, v)) in words

    def test_matches_parity_check(self):
        g = MatrixGF(GF3, [[1, 2, 0, 1], [0, 1, 1, 2]])
        code = ClassicalCode.from_generator(g)
        for w in code.codewords():
            assert not MatrixGF(GF3, list(w)).mul(code.H.transpose()).array().any()

    def test_zero_code(self):
        code = random_code(GF2, 4, 0, random.Random(0))
        assert list(code.codewords()) == [(0, 0, 0, 0)]


class TestMinDistance:
    def test_hamming_is_3(self):
        assert min_distance(hamming()) == Distance.exact(3)

    def test_gf4_mds(self):
        g = MatrixGF(GF4, [[1, 0, 1], [0, 1, 1]])
        code = ClassicalCode.from_generator(g)
        assert min_distance(code) == Distance.exact(2)

    @pytest.mark.parametrize("spec, rows, d", [
        (GF2, [row + [sum(row) % 2] for row in GOLAY23], 8),
        (GF3, cyclic(11, [2, 0, 1, 2, 1, 1]), 5),
        (GF4, [[1, 0, 0, 1, 2, 2], [0, 1, 0, 2, 1, 2], [0, 0, 1, 2, 2, 1]], 4),
    ], ids=["golay-24-12-8", "golay-11-6-5-q3", "hexacode-6-3-4-q4"])
    def test_anchor_codes(self, spec, rows, d):
        # codes of known minimum distance, under a seeded monomial map
        code = monomial_image(ClassicalCode.from_generator(MatrixGF(spec, rows)),
                              random.Random(d))
        assert (code.n, code.k) == (len(rows[0]), len(rows))
        assert min_distance(code) == Distance.exact(d)

    def test_exhaustive_oracle(self):
        rng = random.Random(11)
        for spec in (GF2, GF3, GF4):
            for _ in range(20):
                n = rng.randrange(3, 7)
                k = rng.randrange(1, n)
                code = random_code(spec, n, k, rng)
                truth = min(
                    sum(1 for v in w if v) for w in code.codewords() if any(w)
                )
                assert min_distance(code) == Distance.exact(truth)

    def test_budget_exceeded_is_unknown(self):
        code = hamming()
        assert min_distance(code, budget=15) == Distance.unknown()
        assert min_distance(code, budget=16) == Distance.exact(3)

    def test_budget_validation(self):
        code = hamming()
        for bad in (0, -3, 2.5, "big", 2**24 + 1):
            with pytest.raises(BudgetInvalid):
                min_distance(code, budget=bad)

    def test_bool_budget_rejected(self):
        # True is an int equal to 1, not a budget
        for bad in (True, False):
            with pytest.raises(BudgetInvalid):
                min_distance(hamming(), budget=bad)

    def test_zero_code_rejected(self):
        code = random_code(GF2, 4, 0, random.Random(0))
        with pytest.raises(ValueError):
            min_distance(code)

    def test_default_budget(self):
        assert DEFAULT_BUDGET == 1 << 24

    @pytest.mark.parametrize("spec", [GF9, GF16], ids=repr)
    def test_oracle_extension_fields(self, spec):
        rng = random.Random(spec.q)
        for _ in range(8):
            n = rng.randrange(3, 8)
            k = rng.randrange(1, 4)
            code = random_code(spec, n, min(k, n - 1), rng)
            assert min_distance(code) == Distance.exact(oracle_distance(code))

    def test_oracle_above_table_cap(self):
        # GF(23^2), a tabled extension field with a caller-supplied modulus
        spec = FieldSpec(23, 2, modulus=(1, 0, 1))
        rng = random.Random(529)
        for n, k in ((5, 1), (4, 2)):
            code = random_code(spec, n, k, rng)
            assert min_distance(code) == Distance.exact(oracle_distance(code))

    @pytest.mark.parametrize("entries", [codes._SPAN_ENTRIES, 7], ids=["table", "rows"])
    def test_minimum_needs_coefficients_other_than_one(self, monkeypatch, entries):
        # over GF(5), w0 = r0 + 2 r1 + 3 r2 has weight 2 and every word with
        # message coefficients in {0, 1} is heavier; a monomial map hides it.
        # Found through the table of low rows, or (7 entries) row by row.
        monkeypatch.setattr(codes, "_SPAN_ENTRIES", entries)
        spec = FieldSpec(5, 1)
        rng = random.Random(5)
        n = 7
        w0 = [1, 4, 0, 0, 0, 0, 0]
        while True:
            r1, r2 = ([rng.randrange(1, 5) for _ in range(n)] for _ in range(2))
            r0 = [(a - 2 * b - 3 * c) % 5 for a, b, c in zip(w0, r1, r2)]
            g = MatrixGF(spec, [r0, r1, r2])
            if g.rank() < 3:
                continue
            code = monomial_image(ClassicalCode.from_generator(g), rng)
            d = oracle_distance(code)
            binary = min(weight(word) for m, word in zip(product(range(5), repeat=3),
                                                         code.codewords())
                         if any(m) and set(m) <= {0, 1})
            if d == 2 and binary > 2:
                break
        assert min_distance(code) == Distance.exact(2)

    def test_table_of_low_rows_exceeded(self):
        # [18,17,2] even-weight code: 2^17 messages do not fit one table of
        # low-row combinations, so the lead rows walk the rows above it
        rows = [[1 if j in (i, 17) else 0 for j in range(18)] for i in range(17)]
        code = monomial_image(ClassicalCode.from_generator(MatrixGF(GF2, rows)),
                              random.Random(18))
        assert 2 ** code.k > 1 << 16
        assert oracle_distance(code) == 2
        assert min_distance(code) == Distance.exact(2)

    @pytest.mark.parametrize("entries", [1, 12, 100])
    def test_oracle_with_small_tables(self, monkeypatch, entries):
        # tables of a few words force many steps of the loop over higher rows
        monkeypatch.setattr(codes, "_SPAN_ENTRIES", entries)
        rng = random.Random(entries)
        for spec in (GF2, GF3, GF4, GF9, GF16):
            for _ in range(4):
                n = rng.randrange(3, 9)
                k = rng.choice([k for k in range(1, n) if spec.q ** k <= 1 << 12])
                code = monomial_image(random_code(spec, n, k, rng), rng)
                assert min_distance(code) == Distance.exact(oracle_distance(code))

    @pytest.mark.parametrize("entries", [codes._SPAN_ENTRIES, 56, 40],
                             ids=["no-heads", "some-heads", "all-heads"])
    def test_every_lead_row_is_weighed(self, monkeypatch, entries):
        # the one weight-2 word is a generator row, put at each place in turn;
        # every other word has weight 4 or more.  Each lead row's words are
        # weighed, whether they are table columns or walk a head above it
        monkeypatch.setattr(codes, "_SPAN_ENTRIES", entries)
        light = [1, 1] + [0] * 12
        heavy = [[0] * (2 + 4 * i) + [1] * 4 + [0] * (8 - 4 * i) for i in range(3)]
        for j in range(4):
            code = ClassicalCode.from_generator(MatrixGF(GF2, heavy[:j] + [light] + heavy[j:]))
            assert min_distance(code) == Distance.exact(2)

    @pytest.mark.parametrize("entries", [codes._SPAN_ENTRIES, 126, 42],
                             ids=["no-heads", "some-heads", "all-heads"])
    def test_every_lead_row_is_weighed_gf3(self, monkeypatch, entries):
        # over GF(3) the one weight-2 word, up to a scalar, is [1, 1, 0, ...],
        # twice the generator row [2, 2, 0, ...], put at each place in turn;
        # the other rows have disjoint supports of 4.  A [14, 4]_3 table
        # spans the last 3, 2 or 1 rows at these sizes
        monkeypatch.setattr(codes, "_SPAN_ENTRIES", entries)
        light = [2, 2] + [0] * 12
        heavy = [[0] * (2 + 4 * i) + [1, 2, 2, 1] + [0] * (8 - 4 * i) for i in range(3)]
        for j in range(4):
            code = ClassicalCode.from_generator(MatrixGF(GF3, heavy[:j] + [light] + heavy[j:]))
            assert min_distance(code) == Distance.exact(2)

    # the table's dtype holds 2(q - 1): uint8 up to q = 128, then uint16 or uint32
    @pytest.mark.parametrize("spec", [FieldSpec(127, 1), FieldSpec(2, 7), FieldSpec(2, 8)],
                             ids=repr)
    def test_dtype_boundaries(self, spec):
        rng = random.Random(spec.q)
        for n, k in ((5, 1), (5, 2), (6, 2)):
            code = monomial_image(random_code(spec, n, k, rng), rng)
            assert min_distance(code) == Distance.exact(oracle_distance(code))
        # a Reed-Solomon [8, 3, 6] code walks a table of q^2 words
        rows = [[spec.pow(x, i) for x in range(1, 9)] for i in range(3)]
        code = monomial_image(ClassicalCode.from_generator(MatrixGF(spec, rows)), rng)
        assert min_distance(code) == Distance.exact(6)

    def test_largest_prime_field(self):
        # GF(1048573), below the 2^20 field cap, needs uint32; a [6, 1] code
        # with no zero entry is MDS
        spec = FieldSpec(1048573, 1)
        code = ClassicalCode.from_generator(MatrixGF(spec, [[1, 2, 3, spec.q - 1, 7, 1 << 19]]))
        assert min_distance(code) == Distance.exact(6)

    def test_weights_past_255(self):
        # word weights are counted in the smallest dtype that holds n
        code = ClassicalCode.from_generator(MatrixGF(GF2, [[1] * 300]))
        assert min_distance(code) == Distance.exact(300)

    def test_low_row_sums_past_255(self):
        # over GF(131) the table's build adds multiples of the low rows whose
        # sum passes 255 before it is reduced; a table that wraps at 256 reads
        # 3.  d = 4 by codewords(), which takes seconds over 131^3 words.
        spec = FieldSpec(131, 1)
        g = [[1, 0, 0, 130, 130, 130, 6], [0, 1, 0, 127, 128, 127, 16],
             [0, 0, 1, 130, 129, 130, 109]]
        code = ClassicalCode.from_generator(MatrixGF(spec, g))
        assert min_distance(code) == Distance.exact(4)

    # The largest table each field admits at t = k - 1: q^(k-1) n entries,
    # and n + 1 would not fit.  Peaks in bytes per entry, as _SPAN_ENTRIES
    # states them; GF(4093) [256, 2] is the one-row table of a prime field.
    @pytest.mark.parametrize("spec, n, k, per_entry", [
        (GF2, 32, 16, 2.5), (GF3, 53, 10, 2.5), (GF16, 16, 5, 2.5), (GF9, 159, 5, 10),
        (FieldSpec(4093, 1), 256, 2, 16.5),
    ], ids=["q2", "q3", "q16", "q9", "q4093"])
    def test_memory_is_a_few_tables(self, monkeypatch, spec, n, k, per_entry):
        entries = spec.q ** (k - 1) * n
        assert entries <= codes._SPAN_ENTRIES < entries + spec.q ** (k - 1)
        code = random_code(spec, n, k, random.Random(n))
        tracemalloc.start()
        try:
            d = min_distance(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.is_exact
        assert peak <= per_entry * entries
        # the same code through a table one row shorter and a walked head
        monkeypatch.setattr(codes, "_SPAN_ENTRIES", entries // spec.q)
        assert min_distance(code) == d

    @pytest.mark.parametrize("spec, k", [(GF2, 25), (GF3, 16), (GF16, 7), (GF9, 8)],
                             ids=["q2", "q3", "q16", "q9"])
    def test_refused_before_any_table(self, spec, k):
        # q^k one step above the budget is refused before the table is built
        assert spec.q ** (k - 1) <= DEFAULT_BUDGET < spec.q ** k
        code = random_code(spec, k + 1, k, random.Random(k))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            d = min_distance(code)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == Distance.unknown()
        assert peak < 1 << 20 and elapsed < 0.01

    def test_does_not_walk_codewords(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("min_distance must not use codewords()")
        code = hamming()
        monkeypatch.setattr(ClassicalCode, "codewords", forbidden)
        assert min_distance(code) == Distance.exact(3)


class TestDuals:
    def test_dual_params_and_orthogonality(self):
        code = hamming()
        dd = dual(code)
        assert (dd.n, dd.k) == (7, 3)
        assert dd.distance.kind == "unknown"
        for u in code.codewords():
            for v in dd.codewords():
                assert sum(a & b for a, b in zip(u, v)) % 2 == 0

    def test_dual_involution(self):
        code = hamming()
        back = dual(dual(code))
        assert span(back) == span(code)

    def test_simplex_distance(self):
        # dual of the [7,4] Hamming code: every nonzero word has weight 4
        assert min_distance(dual(hamming())) == Distance.exact(4)

    def test_hermitian_dual_orthogonality(self):
        # the rows of conj(H) span C's dual under <u, v> = sum(u_i * conj(v_i)):
        # the premise of the Hermitian dimension route
        g = MatrixGF(GF4, [[1, 0, 2], [0, 1, 3]])
        code = ClassicalCode.from_generator(g)
        hc = code.H.conj()
        assert (hc.shape, hc.rank()) == ((1, 3), 1)
        for u in code.codewords():
            for v in ClassicalCode.from_generator(hc).codewords():
                acc = 0
                for a, b in zip(u, v):
                    acc = GF4.add(acc, GF4.mul(a, GF4.pow(b, 2)))
                assert acc == 0

    @pytest.mark.parametrize("spec, r", [(GF4, 2), (GF9, 3), (GF16, 4)], ids=["q4", "q9", "q16"])
    def test_conjugate(self, spec, r):
        rng = random.Random(spec.q)
        for _ in range(6):
            n = rng.randrange(2, 5)
            code = random_code(spec, n, rng.randrange(1, n), rng)
            code = code.with_distance(min_distance(code))
            bar = conjugate(code)
            # the codewords are the entrywise images x -> x^r, G @ H.T == 0 holds,
            # conjugating twice gives the matrices back, and d is kept
            assert span(bar) == {tuple(spec.pow(x, r) for x in w) for w in span(code)}
            assert not bar.G.mul(bar.H.transpose()).array().any()
            again = conjugate(bar)
            assert (again.G, again.H) == (code.G, code.H)
            assert bar.distance == code.distance == min_distance(bar)

    def test_hull_dimension_oracle(self):
        rng = random.Random(5)
        for spec in (GF2, GF3):
            for _ in range(10):
                n = rng.randrange(3, 6)
                k = rng.randrange(1, n)
                code = random_code(spec, n, k, rng)
                hull = span(code) & span(dual(code))
                # c = dim(dual) - dim(hull) for the CSS pairing of a code with itself
                assert len(hull) == spec.q ** (n - k - css_entanglement(code, code))


class TestSingletonClass:
    def test_mds(self):
        g = MatrixGF(GF4, [[1, 0, 1], [0, 1, 1]])
        code = ClassicalCode.from_generator(g).with_distance(Distance.exact(2))
        assert singleton_defect(code) == Defect(0, "MDS")

    def test_repetition_is_mds(self):
        g = MatrixGF(GF2, [[1, 1, 1, 1, 1]])
        code = ClassicalCode.from_generator(g).with_distance(Distance.exact(5))
        assert singleton_defect(code).label == "MDS"

    def test_hamming_is_nmds(self):
        # defect 1 on both sides: dual simplex [7,3,4] also has defect 1
        code = hamming().with_distance(min_distance(hamming()))
        assert singleton_defect(code) == Defect(1, "NMDS")

    def test_amds_not_nmds(self):
        # dead 4th coordinate forces a weight-1 dual word, dual defect 2
        g = MatrixGF(GF2, [[1, 0, 1, 0], [0, 1, 1, 0]])
        code = ClassicalCode.from_generator(g).with_distance(Distance.exact(2))
        assert singleton_defect(code) == Defect(1, "AMDS")

    def test_deep_defect_label(self):
        g = MatrixGF(GF2, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]])
        code = ClassicalCode.from_generator(g).with_distance(Distance.exact(2))
        assert singleton_defect(code).label == "3-MDS"

    def test_bound_distance_flagged(self):
        # the bound is read off the code itself; the record holds no flag
        code = hamming().with_distance(Distance.lower_bound(3))
        assert not code.distance.is_exact
        # defect-1 bound stays AMDS; the NMDS upgrade needs an exact value
        assert singleton_defect(code) == Defect(1, "AMDS")

    def test_unknown_distance_rejected(self):
        with pytest.raises(DistanceUnknown):
            singleton_defect(hamming())

    def test_singleton_violation_rejected(self):
        code = hamming().with_distance(Distance.exact(5))
        with pytest.raises(ValueError):
            singleton_defect(code)


class TestOneElimination:
    """A code is built from one elimination of the matrix it is given."""

    @pytest.fixture
    def eliminated(self, monkeypatch):
        shapes = []
        real = MatrixGF.rref

        def counting(self):
            shapes.append(self.shape)
            return real(self)

        monkeypatch.setattr(MatrixGF, "rref", counting)
        return shapes

    def test_from_generator(self, eliminated):
        ClassicalCode.from_generator(MatrixGF(GF2, HAMMING_H))
        assert eliminated == [(3, 7)]

    def test_from_parity_check(self, eliminated):
        ClassicalCode.from_parity_check(MatrixGF(GF2, HAMMING_H))
        assert eliminated == [(3, 7)]

    def test_random_code_once_per_draw(self, eliminated):
        # seed 1 draws a full-rank 3 x 3 matrix first; seed 6 needs three draws
        random_code(GF2, 3, 3, random.Random(1))
        assert eliminated == [(3, 3)]
        eliminated.clear()
        random_code(GF2, 3, 3, random.Random(6))
        assert eliminated == [(3, 3)] * 3


class TestRandomCode:
    def test_shapes_and_rank(self):
        rng = random.Random(7)
        for spec in (GF2, GF3, GF4):
            for _ in range(15):
                n = rng.randrange(1, 9)
                k = rng.randrange(0, n + 1)
                code = random_code(spec, n, k, rng)
                assert (code.n, code.k) == (n, k)
                assert code.G.rank() == k

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            random_code(GF2, 3, 4, random.Random(0))
        with pytest.raises(ValueError):
            random_code(GF2, 3, -1, random.Random(0))

    def test_non_integer_sizes(self):
        # k = True sampled a [4, 1] code; k = 2.0 died in range with a bare TypeError
        for n, k in ((4, True), (4, 2.0), (4.0, 2)):
            with pytest.raises(ValueError, match="must be an integer"):
                random_code(GF2, n, k, random.Random(0))

    def test_full_code(self):
        code = random_code(GF2, 4, 4, random.Random(3))
        assert len(span(code)) == 16
        assert code.H.rows == 0

    def test_reproducible(self):
        a = random_code(GF3, 6, 3, random.Random(42))
        b = random_code(GF3, 6, 3, random.Random(42))
        assert a.G == b.G
