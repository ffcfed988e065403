"""Exact arithmetic in prime-power Galois fields GF(p^m).

Elements are encoded as plain integers in [0, q), q = p^m: the base-p digits
of the integer are the polynomial-basis coefficients, least significant digit
first, so value = sum(c_i * p**i) represents c_0 + c_1 x + ... + c_{m-1} x^{m-1}.
Arithmetic is polynomial arithmetic modulo a monic irreducible polynomial of
degree m over GF(p).

Default moduli are Conway polynomials for the shipped extension fields, so the
integer encoding of every element is stable across runs and machines.  Prime
fields (m = 1) store the degenerate modulus x whatever monic linear one is
given, so any two specs of GF(p) are equal, and need no table entry.  A
modulus of degree m > 1 supplied by the caller is checked through the product
table, which is then built at once: GF(p)[x]/(modulus) is a field exactly
when it has no zero divisors, so a zero product of two nonzero elements
means the modulus is reducible.  Supported fields: prime q <= 2**20, and
extension fields q <= 1024 (_TABLE_CAP), whose scalar and vector ops read
full q x q tables.

Scalar operations work on (and return) plain ints, and each op has one path
per field kind: XOR addition in characteristic 2, integer arithmetic mod p
in prime fields, and lookup tables in extension fields.  The v*-prefixed
methods are their exact vectorized counterparts on numpy integer arrays, and
in an extension field the scalar and vector ops read the same tables, so
the two cannot disagree.  Each table is a cached property of its field,
built on first use.

The product table comes straight from the modulus: column b = sum b_j p^j
holds a * b for every a, and is filled one digit of b at a time by adding
x^j a to an earlier column.  x^j a is x^(j-1) a with its base-p digits
shifted up one place; the digit t shifted out of place m folds back in as
-t (modulus - x^m).  This holds for any monic modulus, primitive or not,
and the fold is the only place the modulus enters; additions while building
go through vadd.  Sums of base-p digits go place by place: vsum of an odd
extension field gathers the digits of its terms from one cached digit table
and sums them mod p, the negation table negates each digit mod p, and the
addition table is built one digit place at a time, a broadcast sum of the
one-digit table and the table of the places below it (in characteristic 2
that is XOR, which vadd computes without the table).  The inverse and conjugation tables are read off
the product table.  vsub is vadd of vneg.
vsub_outer is the fused rank-1 update a - f (x) row that elimination
applies at each pivot: in GF(2) an XOR of f AND row (AND is the product in
GF(2)) and in a prime field a broadcast product subtracted and reduced mod
p, both in place.  An extension field reads f (x) row from the product table
by two takes, the first along the shorter of f and row, so the transient
between them holds q x min(len(f), len(row)) entries, never q x the longer
side.  GF(2^m) XORs the products into a in place; an odd extension field
forms a q + f (x) (-row) in place and reads the addition table by one flat
take (a new array).  A scalar multiple (vmul by a scalar) reads one row of
the product table, and vsum reads the digits of its terms by one take of
the digit table; the one-dimensional negation and conjugation tables are
indexed by the elements themselves, which numpy serves faster than take.
vconj is the conjugation x -> x^r of an even-degree field GF(r^2),
r = p^(m/2), which the Hermitian form uses; odd degrees raise FieldMismatch.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NoBuiltinModulus,
    NotIrreducible,
    NotPrime,
    integer,
)
from .primes import MAX_FIELD_SIZE, field_size, prime_power

# Extension fields are capped where their full operation tables stay small:
# an int64 q x q table is 8 MiB at q = 1024, and building every table of
# GF(2^10) (product, addition, inverse, negation, conjugation, digits) takes
# ~0.03 s with an 18.2 MiB tracemalloc peak.  Prime fields need no tables.
_TABLE_CAP = 1024

# Conway polynomials, coefficient tuples (c0, ..., cm) with cm = 1, indexed by
# (p, m).  Covers every shipped extension field.
_BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


class FieldSpec:
    """Immutable description of GF(p^m) with concrete arithmetic."""

    def __init__(self, p: int, m: int = 1, modulus=None):
        p, m = integer(p, "p", NotPrime), integer(m, "extension degree", NotIrreducible, low=1)
        q = field_size(p, m, NotPrime)
        if m > 1 and q > _TABLE_CAP:
            raise FieldTooLarge(f"extension field p^m = {q} exceeds the table cap {_TABLE_CAP}")
        given = modulus is not None
        if not given:
            modulus = (0, 1) if m == 1 else _BUILTIN_MODULI.get((p, m))
            if modulus is None:
                raise NoBuiltinModulus(f"no built-in modulus for GF({p}^{m}); pass one explicitly")
        try:
            modulus = tuple(integer(c, "coefficient", TypeError) for c in modulus)
        except TypeError:
            raise NotIrreducible(f"modulus coefficients must be integers, got {modulus!r}") from None
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise NotIrreducible(
                f"modulus must be monic of degree {m}, got coefficients {modulus}"
            )
        if any(not 0 <= c < p for c in modulus):
            raise NotIrreducible("modulus coefficients must lie in [0, p)")
        if m == 1:
            modulus = (0, 1)  # prime-field arithmetic never reads the modulus
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        # GF(p)[x]/(modulus) is a field exactly when it has no zero divisors
        if given and m > 1 and not self._mul_table[1:, 1:].all():
            raise NotIrreducible(f"{modulus} is reducible over GF({p})")

    # --- identity ---

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # --- scalar arithmetic (ints in [0, q)) ---

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self._add_table.item(a, b)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        return self._mul_table.item(a, b)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, x = 1, a
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in {self!r}")
        if self.m == 1:
            return pow(a, -1, self.p)
        return self._inv_table[a]

    # --- tables of an extension field, each built on first use ---

    @cached_property
    def _digits(self):
        """Base-p digits of every element, least significant first: (q, m) uint8."""
        t = (np.arange(self.q)[:, None] // self._place % self.p).astype(np.uint8)
        t.setflags(write=False)
        return t

    @cached_property
    def _place(self):
        """p^i for each digit place i: digits @ _place reads elements back."""
        return self.p ** np.arange(self.m)

    @cached_property
    def _mul_table(self):
        """a * b at [a, b], from the modulus alone.  Column b = sum b_j p^j is
        filled one digit of b at a time, as column b - p^j plus x^j a.  x^j a
        is x^(j-1) a with its digits shifted up one place, and the digit t
        shifted out of place m comes back as -t (modulus - x^m)."""
        p, m, q = self.p, self.m, self.q
        top = p ** (m - 1)
        fold = np.array(
            [sum((-t * c) % p * p**i for i, c in enumerate(self.modulus[:m])) for t in range(p)]
        )
        t = np.zeros((q, q), dtype=np.int64)
        xa = np.arange(q, dtype=np.int64)  # x^j a for every a
        for j in range(m):
            if j:
                xa = self.vadd(xa % top * p, fold[xa // top])
            pj = p**j
            for c in range(1, p):
                t[:, c * pj : (c + 1) * pj] = self.vadd(t[:, (c - 1) * pj : c * pj], xa[:, None])
        t.setflags(write=False)
        return t

    @cached_property
    def _inv_table(self) -> tuple[int, ...]:
        """inv[a] for a != 0, as plain ints for scalar lookups; inv[0] is unused."""
        return tuple(np.argmax(self._mul_table == 1, axis=1).tolist())

    @cached_property
    def _add_table(self):
        """a + b at [a, b], built one digit place at a time: with
        a = a_j p^j + a_low, b likewise, a + b is (a_j + b_j mod p) p^j +
        (a_low + b_low), one broadcast sum of the one-digit table and the
        table of the places below j (XOR in characteristic 2)."""
        p = self.p
        digit = np.add.outer(np.arange(p), np.arange(p)) % p
        t = digit
        for j in range(1, self.m):
            t = (digit[:, None, :, None] * p**j + t[None, :, None, :]).reshape(p ** (j + 1), -1)
        t.setflags(write=False)
        return t

    @cached_property
    def _neg_table(self):
        t = ((self.p - self._digits) % self.p) @ self._place
        t.setflags(write=False)
        return t

    @cached_property
    def _conj_table(self):
        """x -> x^r, r = p^(m/2); needs an even degree m."""
        if self.m % 2:
            raise FieldMismatch(f"{self!r} is not a quadratic extension field")
        r = self.p ** (self.m // 2)
        t = np.array([self.pow(a, r) for a in range(self.q)], dtype=np.int64)
        t.setflags(write=False)
        return t

    # --- vectorized arithmetic on numpy int arrays ---

    def vadd(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.m == 1:
            return (a + b) % self.p
        return self._add_table[a, b]

    def vneg(self, a):
        if self.p == 2:
            return np.asarray(a)
        if self.m == 1:
            return (self.p - np.asarray(a)) % self.p
        return self._neg_table[a]

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b):
        """Entrywise product.  A prime field multiplies in the dtype of its
        operands, so a caller may pass a narrower one that holds (q - 1)^2.
        In an extension field, a scalar b reads one row of the product
        table, indexed by a."""
        if self.m == 1:
            prod = np.asarray(a) * np.asarray(b)
            prod %= self.p
            return prod
        if isinstance(b, (int, np.integer)):
            return self._mul_table[b][a]
        return self._mul_table[a, b]

    def _outer(self, f, row):
        """f (x) row from the product table, taken first along the shorter side."""
        t = self._mul_table
        if len(f) <= len(row):
            return t.take(f, axis=0).take(row, axis=1)
        return t.take(row, axis=1).take(f, axis=0)

    def vsub_outer(self, a, f, row):
        """Rank-1 update a - f (x) row of a 2-D int64 array a, for a column f
        and a row.  An extension field reads the products by two takes of
        the product table (_outer), the shorter of f and row first, so no
        transient exceeds q x min(len(f), len(row)) entries.  Characteristic
        2 and prime fields update a in place.  An odd extension field
        overwrites a with a q + f (x) (-row), the flat index of each sum in
        the addition table, and returns the new array read from it by one
        take, so callers use the return value."""
        if self.p == 2:
            a ^= f[:, None] & row if self.m == 1 else self._outer(f, row)
            return a
        if self.m == 1:
            a -= f[:, None] * row
            a %= self.p
            return a
        neg_row = self._neg_table[row]  # row may be a view of a
        a *= self.q
        a += self._outer(f, neg_row)
        return self._add_table.take(a)

    def vsum(self, arr, axis):
        """Field sum along an axis (exact reduction of vadd), the axis as in
        numpy.  An odd extension field reads the base-p digits of arr by one
        take of the digit table, which appends a digit axis, and sums them
        widened to int64, so no length overflows the sums."""
        if self.p == 2:
            return np.bitwise_xor.reduce(arr, axis=axis)
        if self.m == 1:
            sums = arr.sum(axis=axis)
            sums %= self.p
            return sums
        if not -arr.ndim <= axis < arr.ndim:  # the digit axis is no axis of arr
            raise np.exceptions.AxisError(axis, arr.ndim)
        digits = self._digits.take(arr, axis=0)
        sums = digits.sum(axis=axis % arr.ndim, dtype=np.int64)
        sums %= self.p
        return sums @ self._place

    def vconj(self, a):
        """Entrywise conjugation x -> x^r of GF(r^2), r = p^(m/2)."""
        return self._conj_table[a]


def field_of_order(q: int, modulus=None) -> FieldSpec:
    """Construct GF(q) from the field size, factoring q = p^m."""
    q = integer(q, "q", NotPrime)
    if q > MAX_FIELD_SIZE:
        raise FieldTooLarge(f"q exceeds the cap {MAX_FIELD_SIZE}")
    pm = prime_power(q)
    if pm is None:
        raise NotPrime(f"{q} is not a prime power")
    return FieldSpec(pm[0], pm[1], modulus)
