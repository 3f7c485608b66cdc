import math

import pytest

from fermatsyz.errors import NotPrimeError
from fermatsyz.field import PrimeField, binom_uint, check_prime, is_prime


@pytest.mark.parametrize("n, k", [(-1, 0), (0, -1)])
def test_binom_uint_rejects_negative_arguments(n, k):
    with pytest.raises(ValueError, match="nonnegative"):
        binom_uint(n, k, 5)


def test_is_prime_small():
    primes_below_100 = {
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    }
    for n in range(100):
        assert is_prime(n) == (n in primes_below_100)


def test_is_prime_matches_a_sieve():
    limit = 10_000
    sieve = [False, False] + [True] * (limit - 2)
    for n in range(2, 100):
        if sieve[n]:
            sieve[n * n :: n] = [False] * len(range(n * n, limit, n))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_rejects_strong_pseudoprimes():
    # no factor 2, 3, 5 or 7, so only the witness loop can reject them: 2047
    # passes base 2, 1373653 bases 2 and 3, 25326001 bases 2, 3 and 5
    for n, factors in ((2047, (23, 89)), (1373653, (829, 1657)), (25326001, (2251, 11251))):
        assert factors[0] * factors[1] == n
        assert not is_prime(n), n


def test_prime_field_rejects_composites_and_big_primes():
    with pytest.raises(NotPrimeError):
        PrimeField(4)
    with pytest.raises(NotPrimeError):
        PrimeField(1)
    with pytest.raises(NotPrimeError):
        PrimeField(2**31 + 11)  # prime, but out of range


def test_check_prime_rejects_the_unproven_range():
    # 3215031751 = 151 * 751 * 28351 is the least strong pseudoprime to all
    # of the bases 2, 3, 5 and 7, so is_prime is proven only below it
    assert 151 * 751 * 28351 == 3215031751
    assert is_prime(3215031751)
    for p in (3215031751, 2**31 + 11, 2**31):
        with pytest.raises(NotPrimeError):
            check_prime(p)
        with pytest.raises(NotPrimeError):
            PrimeField(p)
    check_prime(2**31 - 1)
    for n in (0, 1, 4, -7):
        with pytest.raises(NotPrimeError):
            check_prime(n)


def test_lucas_examples():
    # u mod p, nonzero whenever p does not divide u
    for p in (3, 5, 7):
        u = (p + 1) // 2
        assert binom_uint(u, 1, p) == u % p
    assert binom_uint(5, 1, 5) == 0
    assert binom_uint(25, 5, 5) == 0
    assert math.comb(25, 5) % 5 == 0  # big-integer confirmation


def test_lucas_against_big_integers():
    for p in (2, 3, 5, 7, 11):
        for n in range(51):
            for k in range(n + 1):
                assert binom_uint(n, k, p) == math.comb(n, k) % p


def test_lucas_k_greater_than_n():
    assert binom_uint(3, 5, 7) == 0


def test_lucas_huge_arguments():
    # digitwise: C(p^5 + 2, p^5 + 1) = C(1,1)*...*C(2,1) = 2
    p = 101
    assert binom_uint(p**5 + 2, p**5 + 1, p) == 2

