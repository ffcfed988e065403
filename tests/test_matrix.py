"""Matrix kernel: rref/rank/nullspace against exhaustive oracles."""

import random
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import matrix
from eaqec.errors import DimensionMismatch, FieldMismatch, TooLarge
from eaqec.gf import FieldSpec
from eaqec.matrix import MatrixGF
from eaqec.primes import MAX_FIELD_SIZE, is_prime

GF2 = FieldSpec(2, 1)
GF3 = FieldSpec(3, 1)
GF4 = FieldSpec(2, 2)
GF9 = FieldSpec(3, 2)
GF16 = FieldSpec(2, 4)
# the largest prime field: its rank-1 products come closest to int64 overflow
GF_TOP = FieldSpec(next(p for p in range(MAX_FIELD_SIZE, 1, -1) if is_prime(p)))


def random_matrix(spec, rows, cols, rng):
    return MatrixGF(spec, [[rng.randrange(spec.q) for _ in range(cols)] for _ in range(rows)])


def span(spec, mat):
    """All q^rank row-space vectors, as a set of tuples (exhaustive oracle)."""
    vecs = {(0,) * mat.shape[1]}
    for row in mat.to_lists():
        new = set()
        for v in vecs:
            for s in range(spec.q):
                new.add(tuple(spec.add(x, spec.mul(s, r)) for x, r in zip(v, row)))
        vecs = new
    return vecs


def test_construction_and_validation():
    m = MatrixGF(GF4, [[0, 1], [2, 3]])
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        MatrixGF(GF4, [[0, 4]])
    with pytest.raises(ValueError):
        MatrixGF(GF4, [[0, -1]])
    row = MatrixGF(GF4, [1, 2, 3])
    assert row.shape == (1, 3)


def test_float_entries_rejected():
    # not truncated to [[0, 1]]
    with pytest.raises(ValueError, match="integers"):
        MatrixGF(GF3, [[0.5, 1.9]])


def test_string_entries_rejected():
    with pytest.raises(ValueError, match="integers"):
        MatrixGF(GF3, [["1", "0"]])


def test_entries_beyond_int64_rejected():
    # numpy holds such ints in an object array
    with pytest.raises(ValueError, match="integers"):
        MatrixGF(GF3, [[2**70]])


def test_empty_data_accepted():
    assert MatrixGF(GF3, []).shape == (0, 0)
    assert MatrixGF(GF3, np.zeros((0, 3))).shape == (0, 3)


def test_zeros():
    z = MatrixGF.zeros(GF3, 2, 3)
    assert z.shape == (2, 3) and not z.array().any()


def test_rank_frozen_example():
    m = MatrixGF(GF4, [[1, 2], [2, 3]])
    assert m.rank() == 1


def test_conj_transpose_frozen_example():
    h = MatrixGF(GF4, [[1, 1, 2]])
    prod = h.mul(h.conj().transpose())
    assert prod.to_lists() == [[1]]
    assert prod.rank() == 1


def test_rref_canonical_shape():
    rng = random.Random(5)
    for spec in (GF2, GF3, GF4):
        for _ in range(40):
            m = random_matrix(spec, rng.randrange(1, 5), rng.randrange(1, 6), rng)
            r, pivots = m.rref()
            assert list(pivots) == sorted(pivots)
            arr = r.array()
            for i, p in enumerate(pivots):
                col = arr[:, p]
                assert col[i] == 1 and not np.delete(col, i).any()
            # row space unchanged
            assert m.stack(r).rank() == m.rank() == len(pivots)


def rref_reference(spec, rows):
    """Scalar Gauss-Jordan elimination with the kernel's pivot rule (the first
    nonzero entry at or below the current row), on the scalar ops; the inverse
    is the power a^(q-2), and -x is (p - 1) x."""
    a = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(len(a[0])):
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = spec.pow(a[r][c], spec.q - 2)
        a[r] = [spec.mul(inv, x) for x in a[r]]
        for j, row in enumerate(a):
            if j != r and row[c]:
                f = spec.mul(spec.p - 1, row[c])
                a[j] = [spec.add(x, spec.mul(f, y)) for x, y in zip(row, a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, tuple(pivots)


def _oracle_cases(spec, rng):
    """Uniform and rank-deficient (product) matrices up to 16 x 30, some with
    zero columns, plus the 1 x n, n x 1 and all-zero edges, and a permuted
    identity whose every pivot but the last needs a row swap."""
    q = spec.q
    # row i holds its nonzero at column i + 1 (mod 9): each pivot c < 8
    # finds its entry in the last row and swaps it up, then 3 random columns
    shifted = np.roll(np.diag(rng.integers(1, q, 9)), 1, axis=1)
    cases = [rng.integers(0, q, (1, 30)), rng.integers(0, q, (16, 1)),
             rng.integers(0, q, (16, 30)), np.zeros((3, 5), dtype=np.int64),
             np.hstack([shifted, rng.integers(0, q, (9, 3))])]
    for t in range(12):
        rows, cols = int(rng.integers(1, 17)), int(rng.integers(1, 31))
        if t % 2:
            inner = int(rng.integers(1, min(rows, cols) + 1))
            left = MatrixGF(spec, rng.integers(0, q, (rows, inner)))
            a = (left @ MatrixGF(spec, rng.integers(0, q, (inner, cols)))).array().copy()
        else:
            a = rng.integers(0, q, (rows, cols))
        if t % 3 == 0:
            a[:, rng.integers(0, cols, 1 + cols // 4)] = 0
        cases.append(a)
    return cases


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF9, GF16, GF_TOP], ids=repr)
def test_rref_matches_scalar_reference(spec):
    rng = np.random.default_rng(spec.q)
    for data in _oracle_cases(spec, rng):
        m = MatrixGF(spec, data)
        before = m.array().copy()
        r, pivots = m.rref()
        want, want_pivots = rref_reference(spec, data.tolist())
        assert pivots == want_pivots
        assert r.to_lists() == want
        assert np.array_equal(m.array(), before)


@pytest.mark.parametrize("spec", [GF3, GF16], ids=repr)
def test_rref_memory_is_bounded(spec):
    # the working copy, one rank-1 product and a few rows: under 3 matrices
    rng = np.random.default_rng(13)
    m = MatrixGF(spec, rng.integers(0, spec.q, (200, 400)))
    cap = 3 * m.array().nbytes
    tracemalloc.start()
    try:
        m.rref()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap


def test_nullspace_is_exact_kernel():
    rng = random.Random(6)
    for spec in (GF2, GF3, GF4):
        for _ in range(40):
            n = rng.randrange(1, 6)
            m = random_matrix(spec, rng.randrange(1, 5), n, rng)
            ns = m.nullspace()
            assert ns.shape[0] == n - m.rank()
            if ns.shape[0]:
                assert not m.mul(ns.transpose()).array().any()
                assert ns.rank() == ns.shape[0]


def test_nullspace_canonical_example():
    h = MatrixGF(GF2, [[1, 1]])
    assert h.nullspace().to_lists() == [[1, 1]]


def test_nullspace_exhaustive_oracle():
    rng = random.Random(7)
    for spec in (GF2, GF3):
        for _ in range(25):
            n = rng.randrange(1, 5)
            m = random_matrix(spec, rng.randrange(1, 4), n, rng)
            ns = m.nullspace()
            kernel = span(spec, ns) if ns.shape[0] else {(0,) * n}
            direct = {
                v
                for v in product(range(spec.q), repeat=n)
                if not MatrixGF(spec, list(v)).mul(m.transpose()).array().any()
            }
            assert kernel == direct


def at_the_nullspace_cap(rank, extra):
    """Columns of the widest rank-`rank` matrix whose basis fits the cap, plus extra."""
    cols = rank
    while (cols + 1 - rank) * (cols + 1) <= matrix._NULLSPACE_ENTRIES:
        cols += 1
    return cols + extra


@pytest.mark.parametrize("spec, rows", [(GF2, 1), (GF3, 32)], ids=["q2-one-row", "q3-32-rows"])
def test_nullspace_largest_admitted_basis(spec, rows):
    # the basis (8 MiB at the cap) plus two rows x free blocks: under 10 MiB
    cols = at_the_nullspace_cap(rows, 0)
    m = random_matrix(spec, rows, cols, random.Random(cols))
    assert m.rank() == rows
    tracemalloc.start()
    try:
        start = time.perf_counter()
        basis = m.nullspace()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.shape == (cols - rows, cols)
    assert basis.rows * basis.cols <= matrix._NULLSPACE_ENTRIES
    assert peak < 10 << 20 and elapsed < 0.5


def test_nullspace_smallest_refused_basis():
    # one column more than the widest admitted row: refused before the basis
    cols = at_the_nullspace_cap(1, 1)
    m = MatrixGF(GF2, [[1] * cols])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"{cols - 1} x {cols} entries exceeds the cap"):
            m.nullspace()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and elapsed < 0.01


def test_matmul_against_naive():
    rng = random.Random(8)
    for spec in (GF3, GF4):
        for _ in range(25):
            a = random_matrix(spec, rng.randrange(1, 4), rng.randrange(1, 4), rng)
            b = random_matrix(spec, a.shape[1], rng.randrange(1, 4), rng)
            got = (a @ b).to_lists()
            al, bl = a.to_lists(), b.to_lists()
            for i in range(a.shape[0]):
                for j in range(b.shape[1]):
                    acc = 0
                    for t in range(a.shape[1]):
                        acc = spec.add(acc, spec.mul(al[i][t], bl[t][j]))
                    assert got[i][j] == acc


def _unblocked_product(a, b):
    spec = a.spec
    return spec.vsum(spec.vmul(a.array()[:, :, None], b.array()[None, :, :]), axis=1)


def test_matmul_row_blocks_match_one_block(monkeypatch):
    # blocks of 50 product entries: several blocks, the last one short
    monkeypatch.setattr(matrix, "_MUL_ENTRIES", 50)
    rng = random.Random(10)
    for spec in (GF2, GF3, GF4, GF9):
        for _ in range(10):
            a = random_matrix(spec, rng.randrange(1, 12), rng.randrange(1, 6), rng)
            b = random_matrix(spec, a.shape[1], rng.randrange(1, 6), rng)
            assert np.array_equal((a @ b).array(), _unblocked_product(a, b))


def test_matmul_memory_is_bounded():
    # one block of all 200 x 200 x 200 products would take 64 MB per temporary
    rng = np.random.default_rng(11)
    a = MatrixGF(GF3, rng.integers(0, 3, (200, 200)))
    b = MatrixGF(GF3, rng.integers(0, 3, (200, 200)))
    whole = _unblocked_product(a, b)
    tracemalloc.start()
    try:
        got = a @ b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.array_equal(got.array(), whole)


@pytest.mark.parametrize("inner", [1, 3])
@pytest.mark.parametrize("spec", [
    GF3,
    FieldSpec(3, 6, modulus=(2, 2, 1, 0, 2, 0, 1)),
    FieldSpec(2, 10, modulus=(1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
], ids=lambda s: f"q{s.p}^{s.m}")
def test_matmul_memory_holds_three_temporaries(spec, inner):
    # the product takes its output and at most three temporaries of
    # _MUL_ENTRIES entries: the products, then their XOR (characteristic 2),
    # their sums reduced in place (prime fields), or their uint8 digits and
    # the int64 digit sums (odd extensions).  GF(3^6) holds 6 digit sums per
    # output: with fewer than 6 products per output the blocks must count
    # the sums, or they outgrow _MUL_ENTRIES entries
    rng = np.random.default_rng(inner)
    a = MatrixGF(spec, rng.integers(0, spec.q, (1024, inner)))
    b = MatrixGF(spec, rng.integers(0, spec.q, (inner, 1024)))
    whole = _unblocked_product(a, b)
    tracemalloc.start()
    try:
        got = a @ b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= whole.nbytes + 3 * 8 * matrix._MUL_ENTRIES
    assert np.array_equal(got.array(), whole)


@pytest.mark.parametrize("spec", [GF2, GF3, GF9], ids=repr)
def test_matmul_over_an_empty_inner_dimension_is_zero(spec):
    prod = MatrixGF.zeros(spec, 3, 0) @ MatrixGF.zeros(spec, 0, 4)
    assert prod.shape == (3, 4) and not prod.array().any()


def test_transpose_product_identity():
    rng = random.Random(9)
    a = random_matrix(GF4, 3, 4, rng)
    b = random_matrix(GF4, 4, 2, rng)
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert (a @ b).conj() == a.conj() @ b.conj()


def test_conj_is_entrywise():
    rng = random.Random(10)
    a = random_matrix(GF4, 2, 3, rng)
    al, acl = a.to_lists(), a.conj().to_lists()
    for i in range(2):
        for j in range(3):
            assert acl[i][j] == GF4.pow(al[i][j], 2)
    with pytest.raises(FieldMismatch):
        MatrixGF(GF2, [[1, 0]]).conj()


def test_stack_and_mismatches():
    a = MatrixGF(GF2, [[1, 0]])
    b = MatrixGF(GF2, [[0, 1]])
    assert a.stack(b).shape == (2, 2)
    with pytest.raises(DimensionMismatch):
        a.stack(MatrixGF(GF2, [[1, 0, 1]]))
    with pytest.raises(DimensionMismatch):
        a @ MatrixGF(GF2, [[1, 0]])
    with pytest.raises(FieldMismatch):
        a @ MatrixGF(GF3, [[1], [1]])


def test_intersection_dim_exhaustive_oracle():
    rng = random.Random(11)
    for spec in (GF2, GF3, GF4):
        for _ in range(30):
            n = rng.randrange(1, 5)
            a = random_matrix(spec, rng.randrange(1, 4), n, rng)
            b = random_matrix(spec, rng.randrange(1, 4), n, rng)
            inter = span(spec, a) & span(spec, b)
            # intersection of subspaces is a subspace: size q^dim
            dim = 0
            while spec.q**dim < len(inter):
                dim += 1
            assert spec.q**dim == len(inter)
            # the identity behind the dimension route of the entanglement count
            assert a.rank() + b.rank() - a.stack(b).rank() == dim


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_bounds_property(rows, cols, seed):
    rng = random.Random(seed)
    m = random_matrix(GF4, rows, cols, rng)
    r = m.rank()
    assert 0 <= r <= min(rows, cols)
    assert m.transpose().rank() == r


def test_hash_and_eq():
    a = MatrixGF(GF2, [[1, 0]])
    b = MatrixGF(GF2, [[1, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != MatrixGF(GF2, [[0, 1]])
    assert a != MatrixGF(GF3, [[1, 0]])
