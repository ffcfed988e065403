"""Dense exact matrices over GF(p^m).

Entries are stored as the integer encodings of gf.FieldSpec, in a row-major
numpy int64 array.  All kernels (product, reduced row echelon form, rank,
nullspace) are exact field arithmetic; elimination pivots on the first row
with a nonzero entry in the current column, so results are deterministic.

Each pivot of rref copies its column once.  The copy is searched for the
pivot row, which is swapped into place with plain row copies (no fancy
indexing) and scaled to a leading 1; with its pivot entry zeroed, the copy
is the factor f of one whole-matrix rank-1 update a - f (x) row
(gf.FieldSpec.vsub_outer) that clears the rest of the column.  Rows whose
entry in f is zero are left as they are, and a pivot whose f is all zero
(no other row has an entry in its column) skips the update.  An elimination
whose work could exceed _RREF_WORK is refused before its first pivot.

The product of a prime field is one integer matmul per slice of the inner
dimension, each slice short enough that its sums stay below _INT64_BOUND,
reduced mod p once per slice.  An extension field gathers its products from
the product table in row blocks of at most _MUL_ENTRIES and sums them with
vsum, so its product holds at most three temporaries of that size.

Every kernel ends with a fresh C-contiguous int64 array (the working copy of
rref, the basis of nullspace, the output of mul, ...), which MatrixGF._wrap
makes read-only and keeps without a copy.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, TooLarge
from .gf import FieldSpec

# Entries in one block of MatrixGF.mul's elementwise products (extension fields).
_MUL_ENTRIES = 1 << 20

# A prime field's MatrixGF.mul keeps every int64 sum below this bound.
_INT64_BOUND = 1 << 63

# Entries in one nullspace basis, (cols - rank) x cols in int64: at most 8 MiB.
# Past the elimination (whose copies are the matrix's size), the build adds two
# int64 blocks of rank x (cols - rank) entries, the echelon entries and their
# negation.  tracemalloc peak at the cap: 8.1 MiB for one GF(2) row of 1024
# columns, 9.0 MiB for 32 GF(3) rows of 1040.
_NULLSPACE_ENTRIES = 1 << 20

# Entry updates of one elimination, rows x cols x min(rows, cols).  The
# largest elimination of any test or benchmark input is 200 x 400 (1.6e7
# updates).  The tracemalloc peak of an elimination, its tables built, stays
# under 4.5 copies of the matrix plus q x min(rows, cols) int64 entries, the
# table lookups of one pivot in an extension field (2 MiB at most inside the
# cap, at q = 1024).  At the cap, a 256 x 256 elimination takes ~0.13 s in
# GF(3), 0.04 s in GF(9) and 0.10 s in GF(2^10) on a 2-core Xeon, with peaks
# of 2.3, 2.1 and 2.0 copies plus the lookups; a 1 x 16384 or 16384 x 1
# matrix peaks at 2 to 4 copies (the column copy, its nonzero indices, the
# update).
_RREF_WORK = 1 << 24


class MatrixGF:
    __slots__ = ("spec", "rows", "cols", "_a")

    def __init__(self, spec: FieldSpec, data):
        a = np.array(data)
        if a.size and a.dtype.kind not in "iu":
            raise ValueError(f"entries must be integers, got dtype {a.dtype}")
        a = a.astype(np.int64, copy=False)
        if a.ndim == 1:
            a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected a 2-D array, got ndim={a.ndim}")
        # one reduction: a negative entry reads as a uint64 above any q
        if a.size and a.view(np.uint64).max() >= spec.q:
            raise ValueError(f"entries must lie in [0, {spec.q})")
        self.spec = spec
        self.rows, self.cols = a.shape
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, spec: FieldSpec, a: np.ndarray) -> "MatrixGF":
        """Take ownership of a fresh C-contiguous int64 array of valid entries."""
        m = object.__new__(cls)
        m.spec = spec
        m.rows, m.cols = a.shape
        a.setflags(write=False)
        m._a = a
        return m

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> "MatrixGF":
        return cls._wrap(spec, np.zeros((rows, cols), dtype=np.int64))

    def array(self) -> np.ndarray:
        """Read-only view of the underlying encoded-entry array."""
        return self._a

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_lists(self) -> list[list[int]]:
        return self._a.tolist()

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and other.spec == self.spec
            and other._a.shape == self._a.shape
            and bool(np.array_equal(other._a, self._a))
        )

    def __hash__(self):
        return hash((self.spec, self._a.shape, self._a.tobytes()))

    def __repr__(self):
        return f"MatrixGF({self.spec!r}, {self.to_lists()})"

    @staticmethod
    def _check_elimination(rows: int, cols: int):
        if rows * cols * min(rows, cols) > _RREF_WORK:
            raise TooLarge(
                f"elimination of a {rows} x {cols} matrix exceeds the cap of "
                f"{_RREF_WORK} entry updates"
            )

    # --- shape operations ---

    def transpose(self) -> "MatrixGF":
        return MatrixGF._wrap(self.spec, self._a.T.copy())

    def conj(self) -> "MatrixGF":
        """Entrywise conjugation of a matrix over GF(r^2) (gf.FieldSpec.vconj)."""
        return MatrixGF._wrap(self.spec, self.spec.vconj(self._a))

    # --- arithmetic ---

    def mul(self, other: "MatrixGF") -> "MatrixGF":
        if self.spec != other.spec:
            raise FieldMismatch(f"{self.spec!r} vs {other.spec!r}")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        spec, a, b = self.spec, self._a, other._a
        if spec.m == 1:
            # one integer product per slice of the inner dimension, reduced
            # once: a slice of s terms sums to at most s (p - 1)^2, plus the
            # reduced sum before it (below p), which stays below _INT64_BOUND;
            # the first slice's product (zeros for an empty one) is the output
            p = spec.p
            step = max(1, (_INT64_BOUND - 1 - p) // (p - 1) ** 2)
            out = a[:, :step] @ b[:step]
            out %= p
            for k in range(step, self.cols, step):
                out += a[:, k : k + step] @ b[k : k + step]
                out %= p
            return MatrixGF._wrap(spec, out)
        # an extension field reduces the rows x inner x cols products in row
        # blocks.  A row costs cols x max(inner, m) entries: its products, or
        # the m digit sums per output that vsum may hold.  A block holds at
        # most _MUL_ENTRIES of them, or one row, so no temporary (the
        # products, their uint8 digits, m <= 6, and the digit sums) takes
        # more bytes than the larger of _MUL_ENTRIES and one row's cost in
        # int64 entries, and the product takes its output plus at most three
        width = max(self.cols, spec.m)
        step = max(1, _MUL_ENTRIES // max(1, width * other.cols))
        out = np.empty((self.rows, other.cols), dtype=np.int64)
        for i in range(0, self.rows, step):
            out[i : i + step] = spec.vsum(spec.vmul(a[i : i + step, :, None], b[None]), axis=1)
        return MatrixGF._wrap(spec, out)

    def __matmul__(self, other):
        return self.mul(other)

    # --- elimination ---

    def rref(self) -> tuple["MatrixGF", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns.

        A matrix whose elimination could take more than _RREF_WORK entry
        updates (rows x cols x min(rows, cols)) is refused with TooLarge
        before the first pivot.  Per pivot: one copy of the column, whose
        first nonzero entry at or below the current row picks the pivot row;
        a swap by row copies; a scaling of the pivot row unless its entry is
        already 1; and one rank-1 update by the column copy, its pivot entry
        zeroed, unless that leaves the copy all zero.  The working copy is
        returned as the echelon matrix.
        """
        rows, cols = self.rows, self.cols
        self._check_elimination(rows, cols)
        spec = self.spec
        a = self._a.copy()
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            f = a[:, c].copy()
            nz = f[r:].nonzero()[0]
            if not nz.size:
                continue
            i = r + nz.item(0)
            pv = f.item(i)
            if i != r:
                row = a[i].copy()
                a[i] = a[r]
                a[r] = row
                f[i] = f[r]
            if pv != 1:
                a[r] = spec.vmul(a[r], spec.inv(pv))
            f[r] = 0
            if np.count_nonzero(f):
                a = spec.vsub_outer(a, f, a[r])
            pivots.append(c)
            r += 1
        return MatrixGF._wrap(spec, a), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "MatrixGF":
        """Canonical right-kernel basis N with self @ N.T == 0.

        N has cols - rank rows.  Row i corresponds to the i-th free column f:
        it carries 1 at position f and the negated echelon entries at the
        pivot columns, which makes the basis unique for a given matrix.  The
        rank is cols - N.rows, from the same elimination.  A basis of more
        than _NULLSPACE_ENTRIES entries is refused with TooLarge before it is
        allocated, and before the elimination when cols - rows rows, its
        least size, already exceed the cap.  The free columns come from a mask
        of the pivots; the basis takes its 1s by one paired index and its
        echelon entries by one take of the free columns, negated.
        """
        cols = self.cols
        _check_basis(cols - self.rows, cols)
        R, pivots = self.rref()
        rank = len(pivots)
        nfree = cols - rank
        _check_basis(nfree, cols)
        basis = np.zeros((nfree, cols), dtype=np.int64)
        if nfree:
            piv = np.array(pivots, dtype=np.intp)
            is_free = np.empty(cols, dtype=bool)
            is_free.fill(True)
            is_free[piv] = False
            free = is_free.nonzero()[0]
            basis[np.arange(nfree), free] = 1
            basis[:, piv] = self.spec.vneg(R._a[:rank].take(free, axis=1).T)
        return MatrixGF._wrap(self.spec, basis)


def _check_basis(nfree: int, cols: int):
    if nfree * cols > _NULLSPACE_ENTRIES:
        raise TooLarge(
            f"nullspace basis of {nfree} x {cols} entries exceeds the cap of {_NULLSPACE_ENTRIES}"
        )
