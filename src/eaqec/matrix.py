"""Dense exact matrices over GF(p^m).

Entries are stored as the integer encodings of gf.FieldSpec, in a row-major
numpy int64 array.  All kernels (product, reduced row echelon form, rank,
nullspace) are exact field arithmetic; elimination pivots on the first row
with a nonzero entry in the current column, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, FieldMismatch
from .gf import FieldSpec


class MatrixGF:
    __slots__ = ("spec", "rows", "cols", "_a")

    def __init__(self, spec: FieldSpec, data):
        a = np.array(data, dtype=np.int64)
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

    def __getitem__(self, ij) -> int:
        return int(self._a[ij])

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

    def conj_transpose(self, q0: int) -> "MatrixGF":
        """Transpose composed with the entrywise conjugation x -> x^q0."""
        return MatrixGF._wrap(self.spec, self.spec.vfrobenius(self._a.T, q0))

    def frobenius_map(self, q0: int) -> "MatrixGF":
        """Entrywise x -> x^q0 without transposing."""
        return MatrixGF._wrap(self.spec, self.spec.vfrobenius(self._a, q0))

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
        if self.cols == 0:
            return MatrixGF.zeros(self.spec, self.rows, other.cols)
        prod = self.spec.vmul(self._a[:, :, None], other._a[None, :, :])
        return MatrixGF._wrap(self.spec, self.spec.vsum(prod, axis=1))

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
            col = a[r:, c]
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            pv = int(a[r, c])
            if pv != 1:
                a[r] = spec.vmul(a[r], spec.inv(pv))
            factors = a[:, c].copy()
            factors[r] = 0
            tgt = np.flatnonzero(factors)
            if tgt.size:
                a[tgt] = spec.vsub(a[tgt], spec.vmul(factors[tgt][:, None], a[r][None, :]))
            pivots.append(c)
            r += 1
        return MatrixGF._wrap(spec, a), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "MatrixGF":
        """Canonical right-kernel basis N with self @ N.T == 0.

        N has cols - rank rows.  Row i corresponds to the i-th free column f:
        it carries 1 at position f and the negated echelon entries at the
        pivot columns, which makes the basis unique for a given matrix.
        """
        return self.rank_and_nullspace()[1]

    def rank_and_nullspace(self) -> tuple[int, "MatrixGF"]:
        """rank() and nullspace() from a single elimination."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = np.zeros((len(free), self.cols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        if pivots and free:
            basis[:, list(pivots)] = self.spec.vneg(R._a[: len(pivots)][:, free].T)
        return len(pivots), MatrixGF._wrap(self.spec, basis)
