"""Primality and prime-power factoring against a smallest-prime-factor sieve."""

import time

import pytest

from eaqec.bounds import amds_length_bound
from eaqec.errors import DomainError, FieldTooLarge, NotPrime
from eaqec.gf import FieldSpec, field_of_order
from eaqec.primes import _MR_LIMIT, MAX_FIELD_SIZE, field_size, is_prime, prime_power

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


@pytest.mark.parametrize(
    "build",
    [
        lambda: FieldSpec(3, 10**7),
        lambda: FieldSpec(2, 10**6),
        lambda: FieldSpec(10**30 + 1, 1),
        lambda: field_of_order(10**5000),
        lambda: amds_length_bound(3, 10**7),
        lambda: amds_length_bound(10**30 + 1, 1),
    ],
    ids=["FieldSpec-m", "FieldSpec-m-digits", "FieldSpec-p", "field_of_order",
         "amds-m", "amds-p"],
)
def test_oversized_fields_are_refused_at_once(build):
    # decided from p and m: no power of p is taken, no p above the cap is
    # tested for primality, and no message prints a size above the cap
    start = time.perf_counter()
    with pytest.raises(FieldTooLarge, match="exceeds the cap"):
        build()
    assert time.perf_counter() - start < 0.01


def test_field_size():
    assert field_size(2, 20, NotPrime) == MAX_FIELD_SIZE
    assert field_size(MAX_FIELD_SIZE - 3, 1, NotPrime) == MAX_FIELD_SIZE - 3
    # primality first, then size, for every p up to the cap
    for p, m in [(4, 1), (1, 1), (0, 3), (-7, 1), (4, 21), (MAX_FIELD_SIZE, 1)]:
        with pytest.raises(DomainError, match=f"p must be prime, got {p}$"):
            field_size(p, m, DomainError)
    for p, m in [(2, 21), (3, 13), (1031, 2), (MAX_FIELD_SIZE + 1, 1), (2**89 - 1, 1)]:
        with pytest.raises(FieldTooLarge):
            field_size(p, m, DomainError)
