"""Exact integer and rational primitives shared by the counting formulas.

Counts are plain Python ints (arbitrary precision, never overflow) and
exact rationals are fractions.Fraction; nothing here touches floats.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["HalfIntegerError", "binomial", "divisors", "nearest_integer", "totient"]


class HalfIntegerError(ValueError):
    """Raised when asked for the nearest integer to an exact half-integer."""


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending.  Trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"divisors() needs n >= 1, got {n}")
    small = []
    large = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    large.reverse()
    return small + large


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's totient: how many of 1..n are coprime to n."""
    if n < 1:
        raise ValueError(f"totient() needs n >= 1, got {n}")
    result = n
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if rest > 1:
        result -= result // rest
    return result


# math.comb is quadratic in the size of its result, while the prime product
# costs a sieve up to x.  On CPython 3.11 the prime product wins once the
# smaller of k and x - k, squared, reaches about 256 x: from x = 1500,
# k = 680 up to x = 10^6, k = 18 000 the measured crossover stays within
# 230 x to 330 x.  Since min(k, x - k) <= x / 2, no x below 4 * 256 qualifies.
_FACTORISE_RATIO = 256
_FACTORISE_MIN_X = 4 * _FACTORISE_RATIO


def binomial(x: int, k: int) -> int:
    """C(x, k), with the convention that out-of-range k (k < 0 or k > x) gives 0.

    Small arguments go to math.comb.  Large ones, where math.comb is
    quadratic, are a product of prime powers (P. Goetgheluck, "Computing
    binomial coefficients", Amer. Math. Monthly 94, 1987): the exponent of a
    prime p is Legendre's sum of floor(x/p^i) - floor(k/p^i) -
    floor((x-k)/p^i), which by Kummer's theorem counts the carries when k
    and x - k are added in base p.  The primes come from one sieve up to x,
    and a balanced product tree multiplies their powers.
    """
    # the size test comes first, and small x leaves it after one comparison:
    # sweeps make many small calls that pay for it alone
    if (x < _FACTORISE_MIN_X or not 0 < k < x
            or min(k, x - k) ** 2 < _FACTORISE_RATIO * x):
        if x < 0:
            raise ValueError(f"binomial() needs x >= 0, got {x}")
        if k < 0 or k > x:
            return 0
        return math.comb(x, k)
    return _prime_product_binomial(x, min(k, x - k))


def _prime_product_binomial(x: int, small: int) -> int:
    """C(x, small) for 0 < small <= x / 2, as a product of prime powers.

    A function of its own so that binomial's small calls create no closure
    cells for the comprehension below."""
    large = x - small
    sieve = bytearray([1]) * (x + 1)
    sieve[:2] = b"\0\0"
    root = math.isqrt(x)
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, x + 1, p)))
    # each prime in (x - small, x] divides the numerator once and the
    # denominator never; one in (x/2, x - small] cancels out; one in
    # (sqrt x, x/2] carries at most once, exactly when x mod p < small mod p
    factors = list(compress(range(large + 1, x + 1), sieve[large + 1:]))
    factors += [p for p in compress(range(root + 1, x // 2 + 1), sieve[root + 1:x // 2 + 1])
                if x % p < small % p]
    for p in compress(range(root + 1), sieve[:root + 1]):
        e = 0
        q = p
        while q <= x:
            e += x // q - small // q - large // q
            q *= p
        if e:
            factors.append(p**e)
    while len(factors) > 1:
        pairs = iter(factors)
        product = [a * b for a, b in zip(pairs, pairs)]
        if len(factors) % 2:
            product.append(factors[-1])
        factors = product
    return factors[0]


def nearest_integer(x: Fraction) -> int:
    """The unique integer closest to x.

    Undefined exactly at half-integers, where HalfIntegerError is raised
    (callers that can prove the half-integer case never arises treat that
    exception as a defect signal).
    """
    return _nearest_quotient(x.numerator, x.denominator)


def _nearest_quotient(num: int, den: int) -> int:
    """The integer closest to num/den (den > 0), in integer arithmetic:
    floor((2 num + den) / (2 den)).

    num/den is a half-integer exactly when 2 num = den (mod 2 den), that is
    when the division is exact; HalfIntegerError is raised there.
    """
    q, r = divmod(2 * num + den, 2 * den)
    if not r:
        raise HalfIntegerError(f"{num}/{den} is a half-integer; no nearest integer exists")
    return q
