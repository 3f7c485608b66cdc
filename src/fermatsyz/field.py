"""Exact arithmetic in the prime field F_p, plus binomial coefficients mod p.

Every other module reduces its arithmetic to this one: elements of F_p are
plain int residues in ``[0, p)``, the primes allowed are those below 2^31
(``check_prime``), and binomial coefficients of large arguments are
computed digit-wise via Lucas' theorem so they never leave machine range.
"""

from __future__ import annotations

from .errors import NotPrimeError

MAX_PRIME = 2**31  # keeps p^2 comfortably inside signed 64-bit intermediates

# Deterministic Miller-Rabin witnesses: proven for every n < 3_215_031_751,
# which covers the whole allowed range p < 2^31.
_MR_BASES = (2, 3, 5, 7)


def is_prime(n: int) -> bool:
    """Deterministic primality check for n < 2^31; unproven above that."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise NotPrimeError unless p is a prime below 2^31.

    Above 2^31 the Miller-Rabin witnesses of ``is_prime`` are not proven
    (3_215_031_751 = 151 * 751 * 28351 passes them all), and p^2 no longer
    fits the int64 matrix arithmetic.
    """
    if p >= MAX_PRIME:
        raise NotPrimeError(f"p must be < 2^31, got {p}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


class PrimeField:
    """The field F_p.  Immutable; instances with equal p compare equal."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise NotPrimeError(f"{p} is not prime")
        check_prime(p)
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def binom_uint(n: int, k: int, p: int) -> int:
    """C(n, k) mod p as a plain int, via Lucas' theorem.

    Works digit by digit in base p, so it never forms the (possibly
    astronomically large) integer C(n, k).  Returns 0 for k > n: the digits
    of n run out first.
    """
    if k < 0 or n < 0:
        raise ValueError("binomial arguments must be nonnegative")
    result = 1
    while k > 0 or n > 0:
        ni, n = n % p, n // p
        ki, k = k % p, k // p
        if ki > ni:
            return 0
        # C(ni, ki) mod p with ni, ki < p, by the multiplicative formula
        ki = min(ki, ni - ki)
        num = den = 1
        for j in range(1, ki + 1):
            num = num * ((ni - j + 1) % p) % p
            den = den * j % p
        result = result * num % p * pow(den, -1, p) % p
    return result
