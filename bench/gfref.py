"""Reference GF(p^m) arithmetic for the benchmark's own input builders and oracles.

Kept apart from ``eaqec.gf`` on purpose: the benchmark derives its inputs and
expected answers with this module, so no change to the program under test can
alter what it is given or what it is checked against.  Elements use the same
integer encoding as the program (base-p digits of the polynomial-basis
coefficients, least significant first) and the same Conway moduli, so an
integer matrix means the same thing on both sides.
"""

from __future__ import annotations

# (p, m) -> modulus coefficients (c0, ..., cm), the program's built-in Conway
# polynomials for the benchmark's fields.
MODULI = {
    (2, 1): (0, 1),
    (3, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (3, 2): (2, 2, 1),
    (2, 4): (1, 1, 0, 0, 1),
}

# Field keys as used in metric names, with (p, m).
FIELDS = {"q2": (2, 1), "q3": (3, 1), "q4": (2, 2), "q9": (3, 2), "q16": (2, 4)}


class RefField:
    """Table-driven arithmetic for one small field (q <= 16)."""

    def __init__(self, p: int, m: int):
        self.p, self.m, self.q = p, m, p**m
        mod = MODULI[(p, m)]
        q = self.q
        digits = [self._digits(a) for a in range(q)]
        self.add = [[self._pack([(x + y) % p for x, y in zip(digits[a], digits[b])])
                     for b in range(q)] for a in range(q)]
        self.neg = [self._pack([(-x) % p for x in digits[a]]) for a in range(q)]
        self.mul = [[self._polymul(digits[a], digits[b], mod) for b in range(q)]
                    for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _pack(self, ds) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d
        return v

    def _polymul(self, da, db, mod) -> int:
        p, m = self.p, self.m
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                conv[i + j] += x * y
        for i in range(2 * m - 2, m - 1, -1):
            c = conv[i] % p
            if c:
                for j in range(m + 1):
                    conv[i - m + j] -= c * mod[j]
        return self._pack([c % p for c in conv[:m]])

    def pow(self, a: int, e: int) -> int:
        r = 1
        for _ in range(e):
            r = self.mul[r][a]
        return r

    def rank(self, rows: list[list[int]]) -> int:
        """Rank by plain Gaussian elimination on a copy of the rows."""
        a = [list(r) for r in rows]
        rank = 0
        cols = len(a[0]) if a else 0
        for c in range(cols):
            piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            s = self.inv[a[rank][c]]
            a[rank] = [self.mul[s][x] for x in a[rank]]
            for i in range(len(a)):
                f = a[i][c]
                if i != rank and f:
                    nf = self.neg[f]
                    a[i] = [self.add[x][self.mul[nf][y]] for x, y in zip(a[i], a[rank])]
            rank += 1
        return rank

    def matmul_t(self, x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
        """x @ y^T."""
        out = []
        for rx in x:
            row = []
            for ry in y:
                acc = 0
                for u, v in zip(rx, ry):
                    acc = self.add[acc][self.mul[u][v]]
                row.append(acc)
            out.append(row)
        return out


_CACHE: dict[str, RefField] = {}


def field(key: str) -> RefField:
    if key not in _CACHE:
        _CACHE[key] = RefField(*FIELDS[key])
    return _CACHE[key]
