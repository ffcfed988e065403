"""Integer helpers for field sizes: primality, prime-power factoring, the cap.

A leaf module importing only `math`, so that the parameter-only layers
(bounds, eaqecc) can check alphabet sizes without loading numpy.
"""

from __future__ import annotations

from math import isqrt

MAX_FIELD_SIZE = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """Factor q as p^m with p prime, or return None."""
    if q < 2:
        return None
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            return (p, m) if r == 1 else None
    return (q, 1)
