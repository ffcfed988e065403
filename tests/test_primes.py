"""Primality and prime-power factoring against a smallest-prime-factor sieve."""

import time

import pytest

from eaqec.primes import _MR_LIMIT, is_prime, prime_power

ORACLE_LIMIT = 10**5


def _smallest_factors(limit):
    spf = list(range(limit))
    for i in range(2, int(limit**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, limit, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def test_matches_trial_division():
    spf = _smallest_factors(ORACLE_LIMIT)
    for q in range(ORACLE_LIMIT):
        assert is_prime(q) == (q >= 2 and spf[q] == q), q
        expected = None
        if q >= 2:
            p, m, r = spf[q], 0, q
            while r % p == 0:
                r //= p
                m += 1
            expected = (p, m) if r == 1 else None
        assert prime_power(q) == expected, q


@pytest.mark.parametrize(
    "q, expected",
    [
        (10**18 + 3, (10**18 + 3, 1)),
        (2**61 - 1, (2**61 - 1, 1)),
        (3**40, (3, 40)),
        ((2**31 - 1) ** 2, (2**31 - 1, 2)),
        (10**18 + 1, None),
        (10**30, None),
    ],
)
def test_large_values(q, expected):
    start = time.perf_counter()
    assert prime_power(q) == expected
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "n, factor",
    [
        (3215031751, 151),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, 149491),  # ... to every base up to 31
        (318665857834031151167461, 399165290221),  # ... up to 37; 41 decides
    ],
)
def test_strong_pseudoprimes_are_composite(n, factor):
    assert n % factor == 0 and 1 < factor < n
    assert not is_prime(n)
    assert prime_power(n) is None


def test_refuses_beyond_the_exact_range():
    # the bound itself is a strong pseudoprime to all thirteen bases
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(_MR_LIMIT)
    with pytest.raises(ValueError, match="cannot decide"):
        prime_power(2**89 - 1)
    # an even number or a power of a small prime is still decided
    assert not is_prime(2 * _MR_LIMIT)
    assert prime_power(2**100) == (2, 100)
