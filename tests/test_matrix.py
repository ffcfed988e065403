"""Matrix kernel: rref/rank/nullspace against exhaustive oracles."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec.errors import DimensionMismatch, FieldMismatch
from eaqec.gf import FieldSpec
from eaqec.matrix import MatrixGF

GF2 = FieldSpec(2, 1)
GF3 = FieldSpec(3, 1)
GF4 = FieldSpec(2, 2)


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


def test_zeros():
    z = MatrixGF.zeros(GF3, 2, 3)
    assert z.shape == (2, 3) and not z.array().any()


def test_rank_frozen_example():
    m = MatrixGF(GF4, [[1, 2], [2, 3]])
    assert m.rank() == 1


def test_conj_transpose_frozen_example():
    h = MatrixGF(GF4, [[1, 1, 2]])
    prod = h.mul(h.conj_transpose(2))
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


def test_matmul_against_naive():
    rng = random.Random(8)
    for spec in (GF3, GF4):
        for _ in range(25):
            a = random_matrix(spec, rng.randrange(1, 4), rng.randrange(1, 4), rng)
            b = random_matrix(spec, a.shape[1], rng.randrange(1, 4), rng)
            got = (a @ b).to_lists()
            for i in range(a.shape[0]):
                for j in range(b.shape[1]):
                    acc = 0
                    for t in range(a.shape[1]):
                        acc = spec.add(acc, spec.mul(a[i, t], b[t, j]))
                    assert got[i][j] == acc


def test_transpose_product_identity():
    rng = random.Random(9)
    a = random_matrix(GF4, 3, 4, rng)
    b = random_matrix(GF4, 4, 2, rng)
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert (a @ b).conj_transpose(2) == b.conj_transpose(2) @ a.conj_transpose(2)


def test_frobenius_map_is_entrywise():
    rng = random.Random(10)
    a = random_matrix(GF4, 2, 3, rng)
    fm = a.frobenius_map(2)
    for i in range(2):
        for j in range(3):
            assert fm[i, j] == GF4.frobenius(a[i, j], 2)


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
