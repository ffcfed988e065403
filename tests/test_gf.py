"""Field kernel: axioms, the shipped moduli, conjugation, vector ops."""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import gf
from eaqec.errors import (
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NoBuiltinModulus,
    NotIrreducible,
    NotPrime,
)
from eaqec.gf import FieldSpec, field_of_order
from eaqec.primes import MAX_FIELD_SIZE, is_prime, prime_power

SMALL_SPECS = [
    FieldSpec(2, 1),
    FieldSpec(3, 1),
    FieldSpec(5, 1),
    FieldSpec(2, 2),
    FieldSpec(2, 3),
    FieldSpec(3, 2),
    FieldSpec(2, 4),
]

LARGE_SPECS = [FieldSpec(2, 7), FieldSpec(2, 8), FieldSpec(3, 4), FieldSpec(7, 2)]


def test_prime_power_decomposition():
    assert prime_power(4) == (2, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(729) == (3, 6)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    assert {n for n in range(2, 25) if is_prime(n)} == primes


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: f"q{s.q}")
def test_additive_group_exhaustive(spec):
    # -x is (p - 1) x: the integer p - 1 encodes the constant -1
    q, minus = spec.q, spec.p - 1
    diff = spec.vsub(*np.indices((q, q)))
    for a in range(q):
        assert spec.add(a, 0) == a
        assert spec.add(a, spec.mul(minus, a)) == 0
        for b in range(q):
            assert spec.add(a, b) == spec.add(b, a)
            assert diff[a, b] == spec.add(a, spec.mul(minus, b))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: f"q{s.q}")
def test_multiplicative_structure_exhaustive(spec):
    q = spec.q
    for a in range(q):
        assert spec.mul(a, 1) == a
        assert spec.mul(a, 0) == 0
        if a:
            assert spec.mul(a, spec.inv(a)) == 1
            assert spec.pow(a, q - 1) == 1
        for b in range(q):
            assert spec.mul(a, b) == spec.mul(b, a)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: f"q{s.q}")
def test_distributivity_exhaustive_small(spec):
    q = spec.q
    triples = (
        [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
        if q <= 8
        else [
            (rng.randrange(q), rng.randrange(q), rng.randrange(q))
            for rng in [random.Random(1)]
            for _ in range(2000)
        ]
    )
    for a, b, c in triples:
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))


@pytest.mark.parametrize("spec", LARGE_SPECS, ids=lambda s: f"q{s.q}")
def test_axioms_randomized_large(spec):
    rng = random.Random(spec.q)
    q = spec.q
    for _ in range(10_000):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        if a:
            assert spec.mul(a, spec.inv(a)) == 1


def test_pow_negative_exponent():
    spec = FieldSpec(2, 4)
    for a in range(1, 16):
        assert spec.mul(spec.pow(a, -1), a) == 1
        assert spec.pow(a, -3) == spec.inv(spec.pow(a, 3))


def test_gf4_structure():
    gf4 = FieldSpec(2, 2)
    w = 2
    assert gf4.mul(w, w) == 3
    assert gf4.mul(w, 3) == 1
    assert gf4.add(w, 3) == 1
    assert gf4.inv(w) == 3


def test_frobenius_involution_and_fixed_field():
    for base_p, base_m in [(2, 1), (2, 2), (3, 1)]:
        q0 = base_p**base_m
        spec = FieldSpec(base_p, 2 * base_m)
        conj = spec.vconj(np.arange(spec.q))
        fixed = 0
        for a in range(spec.q):
            assert conj[a] == spec.pow(a, q0)
            assert conj[conj[a]] == a
            if conj[a] == a:
                fixed += 1
        assert fixed == q0


def test_frobenius_requires_square_extension():
    # the conjugation x -> x^(p^(m/2)) exists only for even degree m
    for spec in (FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 3)):
        with pytest.raises(FieldMismatch):
            spec.vconj(np.arange(spec.q))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        FieldSpec(2, 2).inv(0)
    with pytest.raises(ZeroDivisionError):
        FieldSpec(3, 1).inv(0)


def test_constructor_errors():
    with pytest.raises(NotPrime):
        FieldSpec(4, 1)
    with pytest.raises(NotPrime):
        FieldSpec(1, 1)
    with pytest.raises(FieldTooLarge):
        FieldSpec(2, 21)
    # an extension field above the table cap is refused when built, before
    # its modulus is looked up or checked; prime fields keep the 2^20 cap
    with pytest.raises(FieldTooLarge, match="table cap"):
        FieldSpec(727, 2, modulus=(1, 0, 1))
    with pytest.raises(FieldTooLarge, match="table cap"):
        FieldSpec(2, 11)
    with pytest.raises(FieldTooLarge, match="table cap"):
        FieldSpec(2, 11, modulus=(1, 0, 1) + (0,) * 8 + (1,))
    assert FieldSpec(1048573, 1).q == 1048573
    with pytest.raises(NoBuiltinModulus):
        FieldSpec(2, 9)
    with pytest.raises(NotIrreducible):
        FieldSpec(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)


def test_largest_tabled_field_builds_every_table():
    # GF(2^10), q = _TABLE_CAP, built afresh under the modulus of CAP_SPECS: the
    # constructor checks it through the product table, then every other table
    # is read once
    assert 2**10 == gf._TABLE_CAP
    tracemalloc.start()
    try:
        start = time.perf_counter()
        spec = FieldSpec(2, 10, modulus=CAP_SPECS[1].modulus)
        for name in ("_digits", "_place", "_mul_table", "_inv_table", "_add_table",
                     "_neg_table", "_conj_table"):
            getattr(spec, name)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 << 20 and elapsed < 0.5


@pytest.mark.parametrize("build", [lambda: FieldSpec(2, 11), lambda: field_of_order(2048)],
                         ids=["FieldSpec", "field_of_order"])
def test_smallest_field_above_the_table_cap_is_refused(build):
    # q = 2048, the least extension field above the cap: refused before any table
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(FieldTooLarge, match="exceeds the table cap 1024"):
            build()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and elapsed < 0.01


def test_linear_modulus_is_canonical():
    # prime-field arithmetic never reads the modulus: any monic linear one is x
    assert FieldSpec(3, 1, (1, 1)) == FieldSpec(3, 1)
    assert hash(FieldSpec(3, 1, (1, 1))) == hash(FieldSpec(3, 1))
    assert FieldSpec(2, 1, (1, 1)).modulus == (0, 1)
    with pytest.raises(NotIrreducible):
        FieldSpec(3, 1, (1, 2))  # not monic


def test_constructor_refuses_non_integers():
    # a bool degree or coefficient, and a coefficient that is not an integer,
    # is refused rather than coerced; numpy integers are integers
    with pytest.raises(NotIrreducible):
        FieldSpec(2, True)
    for p, m, modulus in [(2, 2, (1, 1, 1.9)), (2, 2, ("1", "1", "1")), (2, 2, (1, True, 1)),
                          (2, 2, (1, 1, np.True_)), (3, 1, (2.5, 1))]:
        with pytest.raises(NotIrreducible, match="integers"):
            FieldSpec(p, m, modulus)
    assert FieldSpec(2, 2, np.array([1, 1, 1])) == FieldSpec(2, 2)
    assert FieldSpec(3, 1, (np.int64(2), np.uint8(1))) == FieldSpec(3, 1)


def test_modulus_coefficients_lie_in_the_prime_field():
    for p, m, modulus in [(2, 2, (1, 2, 1)), (3, 2, (-1, 0, 1)), (3, 1, (3, 1))]:
        with pytest.raises(NotIrreducible, match=r"lie in \[0, p\)"):
            FieldSpec(p, m, modulus)


def monic(p, deg):
    """Every monic polynomial of degree deg over GF(p), lowest degree first."""
    return [low + (1,) for low in itertools.product(range(p), repeat=deg)]


def reducible(p, m):
    """The monic polynomials of degree m over GF(p) that are a product of two
    monic polynomials of lower degree, found by multiplying out every pair."""
    found = set()
    for d in range(1, m // 2 + 1):
        for f in monic(p, d):
            for g in monic(p, m - d):
                prod = [0] * (m + 1)
                for i, a in enumerate(f):
                    for j, b in enumerate(g):
                        prod[i + j] = (prod[i + j] + a * b) % p
                found.add(tuple(prod))
    return found


@pytest.mark.parametrize(
    "p, m",
    [(2, m) for m in range(2, 7)] + [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)],
    ids=lambda v: str(v),
)
def test_caller_modulus_accepted_exactly_when_irreducible(p, m):
    products = reducible(p, m)
    for f in monic(p, m):
        try:
            FieldSpec(p, m, modulus=f)
        except NotIrreducible:
            assert f in products, f
        else:
            assert f not in products, f


@pytest.mark.parametrize("p, m", sorted(gf._BUILTIN_MODULI), ids=lambda v: str(v))
def test_builtin_moduli_are_irreducible(p, m):
    # a built-in modulus skips the constructor's check, so its tables stay
    # unbuilt until first use; it is checked here once instead
    modulus = gf._BUILTIN_MODULI[p, m]
    assert modulus not in reducible(p, m)
    spec = FieldSpec(p, m)
    assert not vars(spec).keys() & {"_mul_table", "_add_table", "_digits"}
    assert spec._mul_table[1:, 1:].all()
    assert FieldSpec(p, m, modulus=modulus) == spec


def test_gf4_unique_irreducible_quadratic():
    good = []
    for c0 in range(2):
        for c1 in range(2):
            try:
                FieldSpec(2, 2, modulus=(c0, c1, 1))
                good.append((c0, c1, 1))
            except NotIrreducible:
                pass
    assert good == [(1, 1, 1)]


def test_custom_modulus_still_a_field():
    # x^3 + x^2 + 1 is the other irreducible cubic over GF(2)
    spec = FieldSpec(2, 3, modulus=(1, 0, 1, 1))
    assert spec != FieldSpec(2, 3)
    for a in range(1, 8):
        assert spec.mul(a, spec.inv(a)) == 1


def test_field_of_order():
    assert field_of_order(9).q == 9
    assert field_of_order(8) == FieldSpec(2, 3)
    with pytest.raises(NotPrime):
        field_of_order(6)


def test_field_of_order_takes_integers_only():
    # 4.0 and np.int64(4) ended in a bare AttributeError from bit_length,
    # and "4" in a bare TypeError
    assert field_of_order(np.int64(4)) == FieldSpec(2, 2)
    for q in (4.0, "4"):
        with pytest.raises(NotPrime, match="q must be an integer"):
            field_of_order(q)


def test_field_of_order_checks_the_cap_before_factoring(monkeypatch):
    # factoring tries an integer root per exponent up to the bit length of q,
    # seconds for a q of thousands of digits; the cap must refuse it first
    def no_factoring(q):
        raise AssertionError(f"prime_power({q}) called above the cap")

    monkeypatch.setattr(gf, "prime_power", no_factoring)
    with pytest.raises(FieldTooLarge, match="exceeds the cap"):
        field_of_order(2**21)
    with pytest.raises(FieldTooLarge, match="exceeds the cap"):
        field_of_order(100000000000031)


# GF(3^6) and GF(2^10) (x^10 + x^3 + 1), the largest tabled extension fields
# of odd and even characteristic, with moduli that have no built-in entry.
# The constructor checks that each modulus is irreducible.
CAP_SPECS = [
    FieldSpec(3, 6, modulus=(2, 2, 1, 0, 2, 0, 1)),
    FieldSpec(2, 10, modulus=(1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("spec", SMALL_SPECS + LARGE_SPECS + CAP_SPECS)
def test_vector_ops_match_scalar(spec):
    rng = np.random.default_rng(11)
    a = rng.integers(0, spec.q, size=(5, 7))
    b = rng.integers(0, spec.q, size=(5, 7))
    va = spec.vadd(a, b)
    vs = spec.vsub(a, b)
    vm = spec.vmul(a, b)
    vn = spec.vneg(a)
    for i in range(5):
        for j in range(7):
            x, y = int(a[i, j]), int(b[i, j])
            assert va[i, j] == spec.add(x, y)
            assert vs[i, j] == spec.add(x, spec.mul(spec.p - 1, y))
            assert vm[i, j] == spec.mul(x, y)
            assert vn[i, j] == spec.mul(spec.p - 1, x)
    vs = spec.vsum(a, axis=1)
    for i in range(5):
        acc = 0
        for j in range(7):
            acc = spec.add(acc, int(a[i, j]))
        assert vs[i] == acc


# the fields of the elimination tests, up to the largest prime field, whose
# rank-1 products come closest to int64 overflow
OUTER_SPECS = [FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2), FieldSpec(3, 2),
               FieldSpec(2, 4),
               FieldSpec(next(p for p in range(MAX_FIELD_SIZE, 1, -1) if is_prime(p)))]


@pytest.mark.parametrize("spec", OUTER_SPECS, ids=lambda s: f"q{s.q}")
def test_vsub_outer_matches_vsub_of_vmul(spec):
    rng = np.random.default_rng(12)
    for rows, cols in ((1, 1), (1, 9), (7, 1), (6, 11)):
        a = rng.integers(0, spec.q, (rows, cols))
        f = rng.integers(0, spec.q, rows)
        f[0] = 0
        row = rng.integers(0, spec.q, cols)
        want = spec.vsub(a, spec.vmul(f[:, None], row))
        got = spec.vsub_outer(a.copy(), f, row)
        assert got.shape == want.shape and np.array_equal(got, want)


# every field with a built-in modulus, the prime fields up to the largest,
# and the CAP_SPECS fields
KERNEL_SPECS = ([FieldSpec(p) for p in (2, 3, 5, 7)] + OUTER_SPECS[-1:]
                + [FieldSpec(p, m) for p, m in gf._BUILTIN_MODULI] + CAP_SPECS)


def scalar_outer_update(spec, a, f, row):
    """a - f (x) row entry by entry on the scalar ops; -x is (p - 1) x."""
    return [[spec.add(x, spec.mul(spec.p - 1, spec.mul(fi, y))) for x, y in zip(ai, row)]
            for ai, fi in zip(a, f)]


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=repr)
def test_vsub_outer_matches_scalar_ops(spec):
    # len(f) below, equal to and above len(row), zero rows and zero columns;
    # the row is also passed as a view of a's row 0, whose entry in f is 0,
    # as elimination passes its pivot row
    rng = np.random.default_rng(spec.q + 3)
    for rows, cols in ((2, 9), (6, 6), (9, 2), (1, 1), (0, 5), (4, 0)):
        a = rng.integers(0, spec.q, (rows, cols))
        f = rng.integers(0, spec.q, rows)
        row = rng.integers(0, spec.q, cols)
        want = scalar_outer_update(spec, a.tolist(), f.tolist(), row.tolist())
        got = spec.vsub_outer(a.copy(), f, row)
        assert got.shape == (rows, cols) and got.tolist() == want
        if rows:
            f[0] = 0
            want = scalar_outer_update(spec, a.tolist(), f.tolist(), a[0].tolist())
            work = a.copy()
            assert spec.vsub_outer(work, f, work[0]).tolist() == want


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=repr)
def test_unary_kernels_match_scalar_ops(spec):
    # vmul by a scalar (a Python or numpy integer), vneg and vconj on 1-D,
    # 2-D and empty arrays; vconj only in even degree
    rng = np.random.default_rng(spec.q + 4)
    scalars = sorted({0, 1, spec.q - 1, int(rng.integers(0, spec.q))})
    r = spec.p ** (spec.m // 2)
    for x in (rng.integers(0, spec.q, 11), rng.integers(0, spec.q, (3, 5)),
              np.zeros((0, 4), dtype=np.int64)):
        flat = x.ravel().tolist()
        for c in scalars:
            for scalar in (c, np.int64(c)):
                got = spec.vmul(x, scalar)
                assert got.shape == x.shape
                assert got.ravel().tolist() == [spec.mul(v, c) for v in flat]
        assert spec.vneg(x).shape == x.shape
        assert spec.vneg(x).ravel().tolist() == [spec.mul(spec.p - 1, v) for v in flat]
        if spec.m % 2 == 0:
            assert spec.vconj(x).shape == x.shape
            assert spec.vconj(x).ravel().tolist() == [spec.pow(v, r) for v in flat]


@pytest.mark.parametrize("spec", [FieldSpec(3, 2), FieldSpec(3, 4), CAP_SPECS[0]],
                         ids=lambda s: f"q{s.q}")
def test_vsum_matches_scalar_fold(spec):
    # axes of 301 terms sum digits past 255, beyond uint8; negative axes
    # count from the end, as in numpy
    fold = np.frompyfunc(spec.add, 2, 1)
    rng = np.random.default_rng(spec.q)
    for shape in [(301, 2, 3), (3, 2, 301)]:
        arr = rng.integers(0, spec.q, shape)
        for axis in (0, 1, -1):
            want = fold.reduce(arr, axis=axis).astype(np.int64)
            assert np.array_equal(spec.vsum(arr, axis=axis), want), (shape, axis)
        for axis in (3, -4):  # as in numpy, not the digit axis of the sum
            with pytest.raises(np.exceptions.AxisError):
                spec.vsum(arr, axis=axis)


@pytest.mark.parametrize("spec", SMALL_SPECS + LARGE_SPECS, ids=lambda s: f"q{s.q}")
def test_inv_matches_fermat_power(spec):
    for a in range(1, spec.q):
        assert spec.inv(a) == spec.pow(a, spec.q - 2)


TABLES = {"_mul_table", "_inv_table", "_add_table", "_neg_table", "_conj_table"}


def test_tables_built_on_first_use():
    # a cached property stores its table in the instance dict when first read
    prime = FieldSpec(5, 1)
    assert (prime.add(4, 3), prime.mul(2, 4), prime.inv(2)) == (2, 3, 3)
    assert not TABLES & vars(prime).keys()
    char2 = FieldSpec(2, 4)
    assert char2.add(3, 5) == 6 and char2.vneg(7) == 7
    assert not TABLES & vars(char2).keys()
    spec = FieldSpec(3, 2)
    assert not TABLES & vars(spec).keys()
    spec.add(1, 5)
    assert TABLES & vars(spec).keys() == {"_add_table"}
    spec.inv(2)
    assert TABLES & vars(spec).keys() == {"_add_table", "_mul_table", "_inv_table"}
    spec.vneg(np.arange(9))
    assert "_neg_table" in vars(spec)
    assert "_conj_table" not in vars(spec)
    spec.vconj(np.arange(9))
    assert "_conj_table" in vars(spec)
    # a modulus from the caller is checked through the product table at once
    assert "_mul_table" in vars(FieldSpec(3, 2, modulus=(2, 2, 1)))


def schoolbook(p, m, modulus, rows):
    """(mul, add, neg) rows of GF(p^m) for the elements in rows, by schoolbook
    arithmetic on digit arrays: the polynomial product reduced by long
    division by the modulus, and digit-wise addition and negation mod p."""
    q = p**m
    place = p ** np.arange(m)
    da = (np.asarray(rows)[:, None] // place) % p
    db = (np.arange(q)[:, None] // place) % p
    conv = np.zeros((len(da), q, 2 * m - 1), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            conv[:, :, i + j] += da[:, None, i] * db[None, :, j]
    for k in range(2 * m - 2, m - 1, -1):
        lead = conv[:, :, k] % p
        for i, c in enumerate(modulus):
            conv[:, :, k - m + i] -= lead * c
    mul = (conv[:, :, :m] % p) @ place
    add = ((da[:, None, :] + db[None, :, :]) % p) @ place
    neg = ((-da) % p) @ place
    return mul, add, neg


# moduli whose root x is not primitive (order 5 in GF(16), 4 in GF(9)), so
# a table read off the powers of x would miss elements
NON_PRIMITIVE_X = [
    pytest.param(FieldSpec(2, 4, modulus=(1, 1, 1, 1, 1)), id="GF(2^4)-x4+x3+x2+x+1"),
    pytest.param(FieldSpec(3, 2, modulus=(1, 0, 1)), id="GF(3^2)-x2+1"),
]


@pytest.mark.parametrize(
    "spec",
    [pytest.param(FieldSpec(p, m), id=f"GF({p}^{m})") for p, m in gf._BUILTIN_MODULI]
    + NON_PRIMITIVE_X,
)
def test_tables_match_scalar_reference(spec):
    # every entry of every table the field builds, and the scalar ops that
    # read them, against the schoolbook reference, which shares no code with
    # the field; the conjugation table exists only in even degree
    q = spec.q
    mul, add, neg = schoolbook(spec.p, spec.m, spec.modulus, range(q))
    assert np.array_equal(spec._mul_table, mul)
    assert np.array_equal(spec._add_table, add)
    assert np.array_equal(spec._neg_table, neg)
    inv = spec._inv_table
    assert all(mul[a, inv[a]] == 1 for a in range(1, q))
    for a in range(q):
        assert [spec.mul(a, b) for b in range(q)] == mul[a].tolist()
        assert [spec.add(a, b) for b in range(q)] == add[a].tolist()
        assert spec.mul(spec.p - 1, a) == neg[a]
    if spec.m % 2 == 0:
        elements = np.arange(q)
        conj = elements
        for _ in range(spec.p ** (spec.m // 2) - 1):
            conj = mul[conj, elements]
        assert np.array_equal(spec._conj_table, conj)


def test_tables_match_scalar_reference_above_builtins():
    # sampled rows of the CAP_SPECS fields, under user moduli: GF(3^6) and
    # GF(2^10) (x^10 + x^3 + 1)
    for spec in CAP_SPECS:
        p, m, q = spec.p, spec.m, spec.q
        fixed = sorted({0, 1, 2, 3, p, q // p, q - 1})
        rest = [a for a in range(q) if a not in fixed]
        rows = fixed + random.Random(q).sample(rest, 24 - len(fixed))
        mul, add, neg = schoolbook(p, m, spec.modulus, rows)
        assert np.array_equal(spec._mul_table[rows], mul)
        assert np.array_equal(spec._add_table[rows], add)
        assert np.array_equal(spec._neg_table[rows], neg)
        inv = spec._inv_table
        assert all(spec._mul_table[a, inv[a]] == 1 for a in rows if a)
        want = rows
        for _ in range(m // 2):  # a -> a^p m/2 times: a^r, r = p^(m/2), the conjugate
            powers = want
            for _ in range(p - 1):
                powers = [schoolbook(p, m, spec.modulus, [x])[0][0, a] for x, a in zip(powers, want)]
            want = powers
        assert spec._conj_table[rows].tolist() == want


def test_vmul_broadcasting():
    spec = FieldSpec(2, 2)
    a = np.array([[1, 2, 3], [0, 1, 2]])
    b = np.array([2, 2, 2])
    out = spec.vmul(a, b)
    assert out.shape == (2, 3)
    assert out[0, 1] == spec.mul(2, 2)


def test_vconj_matches_scalar_power():
    spec = FieldSpec(2, 4)
    out = spec.vconj(np.arange(16).reshape(4, 4))
    assert out.shape == (4, 4)
    for a in range(16):
        assert out.flat[a] == spec.pow(a, 4)


@given(st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=200)
def test_char2_freshman_dream(a, b):
    spec = FieldSpec(2, 4)
    lhs = spec.pow(spec.add(a, b), 2)
    rhs = spec.add(spec.pow(a, 2), spec.pow(b, 2))
    assert lhs == rhs
