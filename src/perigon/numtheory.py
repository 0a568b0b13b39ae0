"""Exact integer primitives shared by the counting formulas: the pairs
(d, phi(d)) of every rotation sum, binomials, and nearest quotients.

Counts are plain Python ints (arbitrary precision, never overflow), and a
quotient is rounded to the nearest integer in integer arithmetic; nothing
here touches floats.  The product tree of a large binomial can finish in a
number type its caller passes, such as an exact decimal.Decimal (see
census.closed_count); this module imports no decimal.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import index

__all__ = ["binomial", "divisor_totients"]


def divisor_totients(n: int) -> list[tuple[int, int]]:
    """Each divisor d of n with Euler's phi(d), ascending in d.  n is factorised
    once by trial division, and each prime power p^e of n adds, for every pair
    (d, f) found so far, the pairs (d p^i, f (p - 1) p^(i-1)) for i = 1..e."""
    n = index(n)
    if n < 1:
        raise ValueError(f"divisor_totients() needs n >= 1, got {n}")
    pairs = [(1, 1)]
    p = 2
    while n > 1:  # n is divided by each prime it holds, down to 1
        if p * p > n:
            p = n  # no prime up to its square root divides what is left: it is prime
        if n % p == 0:
            layer, step = pairs, p - 1  # phi(d p) = phi(d) (p - 1) for d prime to p
            while n % p == 0:
                n //= p
                layer = [(d * p, f * step) for d, f in layer]
                pairs += layer
                step = p  # and phi(d p) = phi(d) p when p divides d
        p += 1 if p == 2 else 2
    return sorted(pairs)


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
    and x - k are added in base p.  The primes come from one sieve of the odd
    numbers up to x, and a balanced product tree multiplies their powers.
    """
    # the size test is _factorises inlined, and small x leaves it after one
    # comparison: sweeps make many small calls that pay for it alone
    if (x < _FACTORISE_MIN_X or not 0 < k < x
            or min(k, x - k) ** 2 < _FACTORISE_RATIO * x):
        if x < 0:
            raise ValueError(f"binomial() needs x >= 0, got {x}")
        if k < 0 or k > x:
            return 0
        return math.comb(x, k)
    return _prime_product_binomial(x, min(k, x - k))


def _factorises(x: int, k: int) -> bool:
    """Whether binomial(x, k) is built as a product of prime powers, not by
    math.comb."""
    return x >= _FACTORISE_MIN_X and 0 < k < x and min(k, x - k) ** 2 >= _FACTORISE_RATIO * x


# a leaf type other than int takes the product tree over once its products
# reach this many bits, and census._to_decimal converts an int of at most
# this many bits directly.  With Decimal leaves on CPython 3.11 (2 vCPUs),
# C(200038, 100019) took 13.8-14.3 ms from 2^8 to 2^12 bits, 16.1 ms at 2^14
# and 29 ms at 2^16, against 21.9 ms for the int tree and decimal_text's
# conversion of its product; _to_decimal of a 10^6-bit int took 92-104 ms
# at 2^10 and 91-112 ms at 2^9 (medians of two sets of alternating runs)
_LEAF_FROM_BITS = 1 << 10


def _prime_product_binomial(x: int, small: int, leaf: type = int):
    """C(x, small) for 0 < small <= x / 2, as a product of prime powers, in
    leaf: int, or a type that multiplies exactly under the caller's context,
    such as decimal.Decimal, which then takes the products above
    _LEAF_FROM_BITS bits.

    A function of its own so that binomial's small calls create no closure
    cells for the comprehension below."""
    large = x - small
    odd = bytearray([1]) * ((x + 1) // 2)  # odd[i]: whether 2 i + 1 is prime
    odd[0] = 0
    root = math.isqrt(x)
    for p in range(3, root + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2::p] = bytes(len(range(p * p // 2, len(odd), p)))
    # each prime in (x - small, x] divides the numerator once and the
    # denominator never; one in (x/2, x - small] cancels out; one in
    # (sqrt x, x/2] carries at most once, exactly when x mod p < small mod p.
    # Above sqrt x >= 32 every prime is odd: each list walks the odd numbers
    # from (b + 1) | 1, the least odd number above its bound b
    first = (large + 1) | 1
    factors = list(compress(range(first, x + 1, 2), odd[first // 2:]))
    first = (root + 1) | 1
    factors += [p for p in compress(range(first, x // 2 + 1, 2), odd[first // 2:])
                if x % p < small % p]
    for p in (2, *compress(range(3, root + 1, 2), odd[1:])):
        e = 0
        q = p
        while q <= x:
            e += x // q - small // q - large // q
            q *= p
        if e:
            factors.append(p**e)
    leaves = leaf is int  # whether the products are of the leaf type yet
    while len(factors) > 1:
        if not leaves and factors[0].bit_length() >= _LEAF_FROM_BITS:
            factors = list(map(leaf, factors))
            leaves = True
        pairs = iter(factors)
        product = [a * b for a, b in zip(pairs, pairs)]
        if len(factors) % 2:
            product.append(factors[-1])
        factors = product
    return factors[0] if leaves else leaf(factors[0])


def _nearest_quotient(num: int, den: int) -> int:
    """The integer closest to num/den (den > 0), in integer arithmetic:
    floor((2 num + den) / (2 den)).

    num/den is a half-integer exactly when 2 num = den (mod 2 den), that is
    when the division is exact; ValueError is raised there.  The nearest
    rules never reach that case: their numerators avoid it for every n.
    """
    q, r = divmod(2 * num + den, 2 * den)
    if not r:
        raise ValueError(f"{num}/{den} is a half-integer; no nearest integer exists")
    return q
