import decimal
import math
import random
from fractions import Fraction

import pytest

from perigon import numtheory
from perigon.numtheory import binomial, divisor_totients


def brute_totient(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def test_divisors_examples():
    assert divisor_totients(1) == [(1, 1)]
    assert divisor_totients(12) == [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (12, 4)]
    assert divisor_totients(17) == [(1, 1), (17, 16)]


def test_divisors_rejects_zero():
    for n in (0, -12):
        with pytest.raises(ValueError, match=rf"^divisor_totients\(\) needs n >= 1, got {n}$"):
            divisor_totients(n)


@pytest.mark.parametrize("n", [1, 2, 6, 28, 97, 360, 1024, 99991])
def test_divisors_ascending_and_closed_under_complement(n):
    ds = [d for d, _ in divisor_totients(n)]
    assert ds == [d for d in range(1, n + 1) if n % d == 0]
    assert sorted(n // d for d in ds) == ds


def test_totient_examples():
    # brute-force oracle for the quoted value
    assert divisor_totients(12)[-1] == (12, brute_totient(12)) == (12, 4)


def test_totient_rejects_zero():
    # phi is defined on n >= 1 only; a zero read from a bool is refused the same way
    for n in (0, False):
        with pytest.raises(ValueError, match=r"^divisor_totients\(\) needs n >= 1, got 0$"):
            divisor_totients(n)


def test_totient_matches_brute_force():
    for n in range(1, 400):
        for d, phi in divisor_totients(n):
            assert phi == brute_totient(d), (n, d)


def test_totient_divisor_sum_identity():
    # the sum of phi(d) over the divisors d of n recovers n
    for n in (*range(1, 10_001), 720_720, 2**40, 3**25, 65521 * 65519, 99991**2):
        assert sum(phi for _, phi in divisor_totients(n)) == n


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
    assert numtheory._nearest_quotient(144, 48) == 3
    assert numtheory._nearest_quotient(100, 48) == 2
    with pytest.raises(ValueError, match="is a half-integer"):
        numtheory._nearest_quotient(5, 2)


def test_nearest_integer_detects_unreduced_half():
    with pytest.raises(ValueError, match="is a half-integer"):
        numtheory._nearest_quotient(6, 4)


def test_nearest_integer_within_half():
    rng = random.Random(2024)
    for _ in range(500):
        num, den = rng.randrange(-10_000, 10_000), rng.randrange(1, 500)
        x = Fraction(num, den)
        if x.denominator == 2:
            continue
        r = numtheory._nearest_quotient(num, den)
        assert abs(x - r) < Fraction(1, 2)


def fraction_route(num, den):
    """The rounding the nearest rules did in rational arithmetic: floor(num/den + 1/2)."""
    x = Fraction(num, den)
    if x.denominator == 2:
        raise ValueError(f"{x} is a half-integer")
    return math.floor(x + Fraction(1, 2))


def rule_numerators(n):
    """The numerators of the triangle (/48) and quadrilateral (/96) nearest rules."""
    if n % 2 == 0:
        return (n * n, 48), (n**3 - 3 * n**2 + 20 * n, 96)
    return ((n + 3) ** 2, 48), (n**3 - 7 * n, 96)


def test_nearest_quotient_equals_fraction_route():
    for n in range(1, 10**5 + 1):
        for num, den in rule_numerators(n):
            assert numtheory._nearest_quotient(num, den) == fraction_route(num, den)


def test_nearest_rules_never_meet_a_half_integer():
    # num/den is a half-integer iff num = den/2 (mod den).  A numerator is an
    # integer polynomial in n, so its residue mod den repeats when n grows by
    # den, and the parity branch repeats every 2: n over 0..2 den - 1 walks
    # every residue class of a rule, so no n reaches the ValueError
    for rule, den in enumerate((48, 96)):
        residues = {rule_numerators(n)[rule][0] % den for n in range(2 * den)}
        assert den // 2 not in residues, (den, sorted(residues))


@pytest.mark.parametrize("num, den", [(5, 2), (6, 4), (-3, 2), (24, 48), (72, 48),
                                      (-24, 48), (48, 96), (144, 96), (-240, 96)])
def test_nearest_quotient_rejects_half_integers(num, den):
    with pytest.raises(ValueError, match="is a half-integer"):
        fraction_route(num, den)
    with pytest.raises(ValueError, match="is a half-integer"):
        numtheory._nearest_quotient(num, den)
    x = Fraction(num, den)  # the same half-integer in lowest terms
    with pytest.raises(ValueError, match="is a half-integer"):
        numtheory._nearest_quotient(x.numerator, x.denominator)
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
    # the sieve holds odd numbers only: x odd and even, and x = r^2 with r an
    # odd prime (the last prime up to sqrt x is r itself) or an odd composite
    cases |= {(x, x // 2 + d) for x in (33**2, 37**2, 37**2 + 1, 41**2) for d in (0, 1)}
    for x, k in sorted(cases):
        assert binomial(x, k) == math.comb(x, k), (x, k)


def lucas_residue(x, k, p):
    """C(x, k) mod a prime p by Lucas's theorem: the product of the binomials
    of the base-p digits, each from factorials mod p."""
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    residue = 1
    while x or k:
        (x, a), (k, b) = divmod(x, p), divmod(k, p)
        if b > a:
            return 0
        residue = residue * fact[a] * pow(fact[b] * fact[a - b], -1, p) % p
    return residue


def test_binomial_past_a_million_agrees_with_lucas():
    # a central term at x = 1.1 * 10^6 takes the prime-product route, whose
    # Legendre sums reach the prime powers 2^20 and 1009^2 (math.comb would
    # take seconds here): its residues against Lucas's theorem, modulo primes
    # that do not divide it, so that a lost or extra factor shows
    x, k = 1_100_000, 550_000
    assert min(k, x - k) ** 2 >= numtheory._FACTORISE_RATIO * x
    value = binomial(x, k)
    for p in (5, 73, 79, 107, 113):
        expected = lucas_residue(x, k, p)
        assert expected, p  # no carry adding k and x - k in base p (Kummer)
        assert value % p == expected, p


def test_prime_product_hands_its_products_to_the_leaf_type(unlimited_int_str):
    # products stay ints below _LEAF_FROM_BITS bits and are leaves above; a
    # whole product below it is one int, converted.  Decimal leaves under a
    # context that raises on rounding give math.comb's value and text
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact, decimal.InvalidOperation])
    with decimal.localcontext(exact):
        for x, k in ((1024, 512), (1031, 516), (4001, 2000), (30_003, 15_001),
                     (3**9, 3**8 + 1)):
            assert numtheory._factorises(x, k), (x, k)
            value = numtheory._prime_product_binomial(x, min(k, x - k), decimal.Decimal)
            assert type(value) is decimal.Decimal and str(value) == str(math.comb(x, k)), (x, k)
    sizes = []
    value = numtheory._prime_product_binomial(30_003, 15_001,
                                              lambda v: sizes.append(v.bit_length()) or v)
    assert value == math.comb(30_003, 15_001)
    assert len(sizes) > 1 and sizes[0] >= numtheory._LEAF_FROM_BITS
    assert max(sizes) < 4 * numtheory._LEAF_FROM_BITS
    sizes.clear()  # C(1024, 512) has 1,019 bits
    assert numtheory._prime_product_binomial(1024, 512, lambda v: sizes.append(v) or v) == \
        math.comb(1024, 512) == sizes[0] and len(sizes) == 1
