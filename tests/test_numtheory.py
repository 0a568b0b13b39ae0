import math
import random
from fractions import Fraction

import pytest

from perigon import numtheory
from perigon.numtheory import (
    HalfIntegerError,
    binomial,
    divisors,
    nearest_integer,
    totient,
)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(17) == [1, 17]


def test_divisors_rejects_zero():
    with pytest.raises(ValueError):
        divisors(0)


@pytest.mark.parametrize("n", [1, 2, 6, 28, 97, 360, 1024, 99991])
def test_divisors_ascending_and_closed_under_complement(n):
    ds = divisors(n)
    assert ds == sorted(ds)
    assert len(set(ds)) == len(ds)
    assert all(n % d == 0 for d in ds)
    assert sorted(n // d for d in ds) == ds


def test_totient_examples():
    assert totient(1) == 1
    # brute-force oracle for the quoted value
    assert totient(12) == sum(1 for d in range(1, 13) if math.gcd(d, 12) == 1) == 4


def test_totient_rejects_zero():
    with pytest.raises(ValueError):
        totient(0)


def test_totient_matches_brute_force():
    for n in range(1, 400):
        assert totient(n) == sum(1 for d in range(1, n + 1) if math.gcd(d, n) == 1)


def test_totient_divisor_sum_identity():
    # sum of totient(d) over the divisors of n recovers n
    for n in range(1, 10_001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_binomial_examples():
    assert binomial(10, 3) == 120
    assert binomial(3, 5) == 0
    assert binomial(7, -1) == 0


def test_binomial_rejects_negative_top():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_symmetry_and_pascal():
    for x in range(1, 201):
        for k in range(0, x + 1):
            assert binomial(x, k) == binomial(x, x - k)
        for k in range(1, x + 1):
            assert binomial(x, k) == binomial(x - 1, k - 1) + binomial(x - 1, k)


def test_nearest_integer_examples():
    assert nearest_integer(Fraction(144, 48)) == 3
    assert nearest_integer(Fraction(100, 48)) == 2
    with pytest.raises(HalfIntegerError):
        nearest_integer(Fraction(5, 2))


def test_nearest_integer_detects_unreduced_half():
    with pytest.raises(HalfIntegerError):
        nearest_integer(Fraction(6, 4))


def test_nearest_integer_within_half():
    rng = random.Random(2024)
    for _ in range(500):
        x = Fraction(rng.randrange(-10_000, 10_000), rng.randrange(1, 500))
        if x.denominator == 2:
            continue
        r = nearest_integer(x)
        assert abs(x - r) < Fraction(1, 2)


def fraction_route(num, den):
    """The rounding the nearest rules did in rational arithmetic: floor(num/den + 1/2)."""
    x = Fraction(num, den)
    if x.denominator == 2:
        raise HalfIntegerError(f"{x} is a half-integer")
    return math.floor(x + Fraction(1, 2))


def test_nearest_quotient_equals_fraction_route():
    # the numerators of the triangle (/48) and quadrilateral (/96) rules
    for n in range(1, 10**5 + 1):
        if n % 2 == 0:
            cases = ((n * n, 48), (n**3 - 3 * n**2 + 20 * n, 96))
        else:
            cases = (((n + 3) ** 2, 48), (n**3 - 7 * n, 96))
        for num, den in cases:
            assert numtheory._nearest_quotient(num, den) == fraction_route(num, den)


@pytest.mark.parametrize("num, den", [(5, 2), (6, 4), (-3, 2), (24, 48), (72, 48),
                                      (-24, 48), (48, 96), (144, 96), (-240, 96)])
def test_nearest_quotient_rejects_half_integers(num, den):
    with pytest.raises(HalfIntegerError):
        fraction_route(num, den)
    with pytest.raises(HalfIntegerError):
        numtheory._nearest_quotient(num, den)
    with pytest.raises(HalfIntegerError):
        nearest_integer(Fraction(num, den))
    # one step either side of the half-integer rounds away from it
    for near in (num - 1, num + 1):
        assert numtheory._nearest_quotient(near, den) == fraction_route(near, den)


def test_binomial_equals_math_comb():
    ratio = numtheory._FACTORISE_RATIO
    cases = {(x, x // 2 + d) for x in (1023, 1024, 1025) for d in (-1, 0, 1)}
    for x in (*range(4000, 4004), *range(30_000, 30_004)):  # every x mod 4
        switch = math.isqrt(ratio * x - 1) + 1  # least min(k, x - k) that factorises
        for k in (0, 1, 3, x // 4, x // 2 - 1, x // 2, switch - 1, switch):
            cases |= {(x, k), (x, x - k)}
    # prime x, prime powers, and exponents from several Kummer carries
    cases |= {(10_007, 5_003), (10_007, 2_500), (3**9, 3**8 + 1), (3**9, 3**8 - 1),
              (2**14, 2**13 - 1), (5**6, 2 * 5**5 + 1), (7**5, 7**4 * 3 - 1)}
    cases.add((200_002, 100_001))  # a central term near x = 2 * 10^5
    for x, k in sorted(cases):
        assert binomial(x, k) == math.comb(x, k), (x, k)
