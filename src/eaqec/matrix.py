"""Dense exact matrices over GF(p^m).

Entries are stored as the integer encodings of gf.FieldSpec, in a row-major
numpy int64 array.  All kernels (product, reduced row echelon form, rank,
nullspace) are exact field arithmetic; elimination pivots on the first row
with a nonzero entry in the current column, so results are deterministic.

Each pivot of rref swaps the pivot row into place with plain row copies (no
fancy indexing), scales it to a leading 1, and clears the rest of the pivot
column with one whole-matrix rank-1 update a - f (x) row
(gf.FieldSpec.vsub_outer), where f is the pivot column with its own entry
zeroed.  Rows whose entry in f is zero are left as they are.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, FieldMismatch, TooLarge
from .gf import FieldSpec

# Entries in one block of MatrixGF.mul's elementwise products.
_MUL_ENTRIES = 1 << 20

# Entries in one nullspace basis, (cols - rank) x cols in int64: at most 8 MiB.
# Past the elimination (whose copies are the matrix's size), the build adds two
# int64 blocks of rank x (cols - rank) entries, the echelon entries and their
# negation.  tracemalloc peak at the cap: 8.1 MiB for one GF(2) row of 1024
# columns, 9.0 MiB for 32 GF(3) rows of 1040.
_NULLSPACE_ENTRIES = 1 << 20


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
        if a.size and (a.min() < 0 or a.max() >= spec.q):
            raise ValueError(f"entries must lie in [0, {spec.q})")
        self.spec = spec
        self.rows, self.cols = a.shape
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, spec: FieldSpec, a: np.ndarray) -> "MatrixGF":
        m = object.__new__(cls)
        m.spec = spec
        m.rows, m.cols = a.shape
        a = np.ascontiguousarray(a, dtype=np.int64)
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

    def _check_field(self, other: "MatrixGF"):
        if self.spec != other.spec:
            raise FieldMismatch(f"{self.spec!r} vs {other.spec!r}")

    # --- shape operations ---

    def transpose(self) -> "MatrixGF":
        return MatrixGF._wrap(self.spec, self._a.T.copy())

    def conj(self) -> "MatrixGF":
        """Entrywise conjugation of a matrix over GF(r^2) (gf.FieldSpec.vconj)."""
        return MatrixGF._wrap(self.spec, self.spec.vconj(self._a))

    def stack(self, other: "MatrixGF") -> "MatrixGF":
        self._check_field(other)
        if self.cols != other.cols:
            raise DimensionMismatch(f"column counts differ: {self.cols} vs {other.cols}")
        return MatrixGF._wrap(self.spec, np.vstack([self._a, other._a]))

    # --- arithmetic ---

    def mul(self, other: "MatrixGF") -> "MatrixGF":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        spec, a, b = self.spec, self._a, other._a[None, :, :]
        # reduce the rows x inner x cols products in row blocks.  A row costs
        # cols x max(inner, m) entries: its products, or the m digit sums per
        # output that vsum may hold.  A block holds at most _MUL_ENTRIES of
        # them, or one row, so no temporary (the products, their uint8 digits,
        # m <= 6, and the digit sums) takes more bytes than the larger of
        # _MUL_ENTRIES and one row's cost in int64 entries, and the product
        # takes its output plus at most three
        width = max(self.cols, spec.m)
        step = max(1, _MUL_ENTRIES // max(1, width * other.cols))
        out = np.empty((self.rows, other.cols), dtype=np.int64)
        for i in range(0, self.rows, step):
            out[i : i + step] = spec.vsum(spec.vmul(a[i : i + step, :, None], b), axis=1)
        return MatrixGF._wrap(spec, out)

    def __matmul__(self, other):
        return self.mul(other)

    # --- elimination ---

    def rref(self) -> tuple["MatrixGF", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        spec = self.spec
        a = self._a.copy()
        rows, cols = a.shape
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = a[r:, c].nonzero()[0]
            if not nz.size:
                continue
            i = r + int(nz[0])
            if i != r:
                row = a[i].copy()
                a[i] = a[r]
                a[r] = row
            pv = int(a[r, c])
            if pv != 1:
                a[r] = spec.vmul(a[r], spec.inv(pv))
            f = a[:, c].copy()
            f[r] = 0
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
        allocated.
        """
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        if len(free) * self.cols > _NULLSPACE_ENTRIES:
            raise TooLarge(
                f"nullspace basis of {len(free)} x {self.cols} entries "
                f"exceeds the cap of {_NULLSPACE_ENTRIES}"
            )
        basis = np.zeros((len(free), self.cols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        if pivots and free:
            basis[:, list(pivots)] = self.spec.vneg(R._a[: len(pivots)][:, free].T)
        return MatrixGF._wrap(self.spec, basis)
