"""Integer helpers for field sizes: primality, prime-power factoring, the cap.

A leaf module with no imports, so that the parameter-only layers (bounds,
eaqecc) can check alphabet sizes without loading numpy.  Both tests run in
time polynomial in the bit length of q, so a huge alphabet read from the
command line is decided at once.
"""

from __future__ import annotations

MAX_FIELD_SIZE = 1 << 20

# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# for every n below _MR_LIMIT, the least composite that passes them all
# (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; ValueError when n is out of its range."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: above {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(q: int, m: int) -> int:
    """floor(q ** (1/m)) for q >= 1, by integer Newton iteration from above."""
    r = 1 << -(-q.bit_length() // m)
    while True:
        s = ((m - 1) * r + q // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def prime_power(q: int) -> tuple[int, int] | None:
    """Factor q as p^m with p prime, or return None.

    Tries exact integer m-th roots from the largest possible m down; q = p^m
    with p prime is an exact m-th power for no larger m.
    """
    if q < 2:
        return None
    for m in range(q.bit_length(), 0, -1):
        p = _iroot(q, m)
        if p**m == q and is_prime(p):
            return (p, m)
    return None
