"""Top-level counts of inequivalent integer polygons and m-gons.

Two evaluation routes are kept side by side on purpose.  The closed forms
are hand-simplified and fast; the assembly route averages the per-class
fixed-set sizes over the group, weighting each class by its size from
`model.element_classes`, and exists as the reference the closed forms are
regression-tested against — a transcription slip in any mod-4 branch
shows up as a mismatch.

The polygon and m-gon closed forms are evaluated as runs over a range of
n, and each single count reads a run of one n.  Every rotation sum, and
the assembly route's class list, reads its pairs (d, phi(d)) from one
factorisation, `numtheory.divisor_totients`, save a polygon run wide
enough to sieve them more cheaply.  The assembly route sums the rotation
classes' `fixcount` values itself on purpose, which keeps the two routes
independent.
`polygon_values` is the one evaluation of the polygon closed form, over
n = start..end with the divisors of every n from one sieve.
`polygon_decimal` is the same run with every power of two built in exact
decimal arithmetic, so that no term needs a base conversion to be
printed: the polygon b-files read it.  `mgon_values` is the m-gon closed
form along n for a fixed m: the `pmn` b-files read it, and `count_mgons`
reads a run of one n.  `closed_count` alone chooses a single count's
number type: an int, or an exact Decimal from `polygon_decimal` or from
`mgon_values` with decimal binomials where that prints faster;
`decimal_text` prints either whatever the int-to-str digit limit, and
`decimal_digits` counts an int's digits.  Exact decimals take their
context, 2^k and ints from `_exact_scope`, `_two_power` and `_to_decimal`.
`mgon_columns` is the same closed form evaluated one perimeter at a
time, from Pascal's triangle, with its own rotation accumulation, for
`table`, which needs every cell; one cell may be far too large for
Pascal rows.  The tests tie each run to the assembly route.  Every
route's m-gon count is 0 outside 3 <= m <= n.

Every count takes the group whose orbits it counts: the dihedral group by
default, identifying side orderings up to rotation and reversal, or the
cyclic group, up to rotation only.
"""

from __future__ import annotations

from functools import partial
from math import factorial, gcd, isqrt, lgamma, log
from operator import add, index

from .fixcount import fix_mgons, fix_polygons
from .model import GroupKind, _at_least, _group, element_classes
from .numtheory import (_LEAF_FROM_BITS, _factorises, _nearest_quotient, _prime_product_binomial,
                        binomial, divisor_totients)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from collections.abc import Iterator
    from decimal import Decimal
    from fractions import Fraction

__all__ = [
    "InternalError",
    "asymptotic_mgon_coefficient",
    "closed_count",
    "count_mgons",
    "count_mgons_via_burnside",
    "count_polygons",
    "count_polygons_via_burnside",
    "decimal_digits",
    "decimal_text",
    "mgon_columns",
    "mgon_values",
    "polygon_decimal",
    "polygon_values",
    "quadrilaterals_nearest",
    "triangles_nearest",
]


class InternalError(RuntimeError):
    """An exactness self-check failed: a defect in the formulas, never bad input."""


def _exact_div(num, den: int, what: str, *where):
    """num // den for an int or integral Decimal num, checked to be exact.

    The message, what.format(*where), is built only on failure.  It gives
    the numerator's size, not its value: a value of more than 4,300 digits
    would trip the int-to-str limit in place of this error.
    """
    q, r = divmod(num, den)
    if r:
        size = (f"{num.bit_length()} bits" if isinstance(num, int)
                else f"{num.adjusted() + 1} digits")
        raise InternalError(f"{what.format(*where)} ({size}) leaves remainder {r} modulo {den}")
    return q


def _exact_scope():
    """A copy of the caller's contextvars scope whose decimal context does
    integer arithmetic that never rounds: any inexact, invalid or
    division-by-zero result raises.  scope.run(f, *args) calls f in it; the
    caller's own context stays as it was."""
    import contextvars
    import decimal

    scope = contextvars.copy_context()
    scope.run(decimal.setcontext, decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
        traps=[decimal.Inexact, decimal.InvalidOperation, decimal.DivisionByZero]))
    return scope


# ---------------------------------------------------------------------------
# closed forms


# str(int) is quadratic on CPython before 3.12; above this many bits
# _to_decimal's conversion is faster (measured on 3.10, 3.11 and 3.12)
_DECIMAL_FROM_BITS = 32_768


def closed_count(n: int, m: int | None = None,
                 group: GroupKind = GroupKind.DIHEDRAL) -> int | Decimal:
    """count_polygons(n, group), or count_mgons(n, m, group) when m is given,
    as an int, or as an exact Decimal where that prints faster: a polygon
    count when n is above _DECIMAL_FROM_BITS, an m-gon count when log2 C(n, m)
    is and the product tree builds C(n, m); math.comb's binomials would each
    need a conversion (at n = 10^6, m = 10^4, 45 against 35 ms for the int)."""
    group = _group(group)
    if m is None:
        if n > _DECIMAL_FROM_BITS:
            return next(polygon_decimal(n, n, group))
        return count_polygons(n, group)
    if _factorises(n, m) and (lgamma(n + 1) - lgamma(m + 1) - lgamma(n - m + 1)
                              > _DECIMAL_FROM_BITS * log(2)):  # ln C(n, m)
        return _exact_scope().run(next, mgon_values(m, n, n, group, _decimal_binomial))
    return count_mgons(n, m, group)


def count_mgons(n: int, m: int, group: GroupKind = GroupKind.DIHEDRAL) -> int:
    """Integer m-gons with perimeter n, inequivalent under the group.

    Returns 0 whenever no such polygon exists (m < 3 or m > n), so callers
    may sweep rectangular (m, n) grids without guards.
    """
    return next(mgon_values(m, n, n, group))


def mgon_values(m: int, start: int, end: int,
                group: GroupKind = GroupKind.DIHEDRAL, binom=None) -> Iterator[int]:
    """Yield count_mgons(n, m, group) for n = start..end: 0 below
    n = max(m, 3) and for every n when m < 3; the run is empty when
    end < start.  Each C(x, k) is binom(x, k), numtheory.binomial unless
    the caller passes another.

    The m-gon closed form along n for a fixed m.  The rotations sum
    phi(d) C(n/d, m/d) over the divisors d of gcd(n, m): the pairs
    (d, phi(d)) of m are read once per run, and each term tests n % d; a run
    of one n reads those of gcd(n, m), all of which pass.  Each
    distinct binomial is computed once per term: the rotation term that
    equals the first reflection binomial (d = 2 for even n and m) is read,
    not recomputed, and so is C((n+2)//4, m/2) when it equals C(n//4, m/2)
    (even m, n = 0 or 1 mod 4).  The arguments are checked at the call.
    """
    return _mgon_run(index(m), index(start), index(end), _group(group),
                     binomial if binom is None else binom)


def _mgon_run(m: int, start: int, end: int, group: GroupKind, binom) -> Iterator[int]:
    first = m if m >= 3 else end + 1  # the least n with an m-gon; past the run when m < 3
    for _ in range(start, min(first, end + 1)):
        yield 0
    if first > end:
        return
    rotations = [(d, phi, m // d) for d, phi in divisor_totients(m if end > start else gcd(start, m))]
    k = m // 2
    cyclic = group is GroupKind.CYCLIC
    what = "cyclic fix sum ({},{})" if cyclic else "m-gon census numerator ({},{})"
    for n in range(max(start, first), end + 1):
        x = -1 if cyclic else k + (n - m) // 2
        mirror = 0 if cyclic else binom(x, k)  # the first reflection binomial
        total = 0
        for d, phi, j in rotations:
            if n % d == 0:
                total += phi * (mirror if n // d == x and j == k else binom(n // d, j))
        half = binom(n // 2, m - 1)
        if cyclic:
            yield _exact_div(total, n, what, m, n) - half
            continue
        quarter = binom(n // 4, k)
        if m % 2 == 0:
            quarter += quarter if n % 4 < 2 else binom((n + 2) // 4, k)
        yield _exact_div(total + n * (mirror - half - quarter), 2 * n, what, m, n)


def mgon_columns(max_n: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (n, [count_mgons(n, m) for m in 3..n]) for n = 3..max_n.

    The closed form of count_mgons, evaluated one perimeter at a time for
    callers that need every cell.  Every binomial is read from Pascal's
    triangle, built by additions.  A column reads row n and rows n/d for the
    divisors d > 1 of n (the rotations) and rows n//2, (n-1)//2, n//4 and
    (n+2)//4 (the reflections), so only the rows up to max_n // 2 are kept;
    row n is built from row n - 1 and dropped after its column.  The
    rotation sum is accumulated once per pair (d, phi(d)) of n, adding
    phi(d) C(n/d, j) to the entry at m = d j, in place of a walk over the
    divisors of gcd(n, m) in every cell.  max_n is checked at the call.
    """
    return _column_run(index(max_n))


def _column_run(max_n: int) -> Iterator[tuple[int, list[int]]]:
    kept = [[1]]  # Pascal rows 0..max_n // 2
    row = [1]
    for n in range(1, max_n + 1):
        row = [1, *map(add, row, row[1:]), 1]
        if n <= max_n // 2:
            kept.append(row)
        if n < 3:
            continue
        rotations = row[:]  # the identity's term, C(n, m)
        for d, phi in divisor_totients(n)[1:]:
            rotations[d::d] = [s + phi * c for s, c in zip(rotations[d::d], kept[n // d][1:])]
        # the reflection rows, zero-padded so that out-of-range k reads C(x, k) = 0
        half, half_odd, quarter, quarter_even = (
            kept[x] + [0] * (n - x) for x in (n // 2, (n - 1) // 2, n // 4, (n + 2) // 4))
        twice = 2 * n
        column = []
        for m in range(3, n + 1):
            k = m // 2
            if m % 2:
                reflections = half_odd[k] - quarter[k]
            else:
                reflections = half[k] - quarter[k] - quarter_even[k]
            num = rotations[m] + n * (reflections - half[m - 1])
            value, rest = divmod(num, twice)
            if rest:
                _exact_div(num, twice, "m-gon census numerator ({},{})", m, n)
            column.append(value)
        yield n, column


def count_polygons(n: int, group: GroupKind = GroupKind.DIHEDRAL) -> int:
    """Integer polygons (any number of sides) with perimeter n, inequivalent
    under the group."""
    return next(polygon_values(n, n, group))


def polygon_values(start: int, end: int,
                   group: GroupKind = GroupKind.DIHEDRAL) -> Iterator[int]:
    """Return the run of count_polygons(n, group) for n = start..end; the
    run is empty when end < start.

    The one evaluation of the polygon closed form; start and end are checked
    at the call, not when the run is first read.  The divisors of all n in
    the run come from one sieve, which appends each d <= sqrt(end) to its
    multiples n >= max(start, d^2); the cofactors n / d complete each list.
    A d with no multiple in the run costs one remainder, so a run of one n
    costs about what trial division does.
    """
    start = _at_least(start, 3, "perimeter")
    return _polygon_run(start, max(index(end), start - 1), _group(group), (1).__lshift__)


def polygon_decimal(start: int, end: int,
                    group: GroupKind = GroupKind.DIHEDRAL) -> Iterator[Decimal]:
    """The run of polygon_values, with the same contract, each term an exact
    decimal.Decimal whose str() is the count's decimal text: no term needs
    an int-to-decimal conversion.

    Each power of two is asked of _two_power once, at the first term that
    reads it (see _polygon_run), and every one asked for is held for the
    run, so that a later one can be built from a close one.  Each term is
    evaluated in the run's one _exact_scope; between terms the caller's
    context is in force, unchanged.
    """
    start = _at_least(start, 3, "perimeter")
    run = _polygon_run(start, max(index(end), start - 1), _group(group), partial(_two_power, {}))
    return iter(partial(_exact_scope().run, next, run, None), None)


def _decimal_binomial(x: int, k: int) -> Decimal:
    """binomial(x, k) as an exact Decimal, in the caller's _exact_scope:
    the product tree with Decimal leaves, or math.comb's int converted."""
    from decimal import Decimal

    if _factorises(x, k):
        return _prime_product_binomial(x, min(k, x - k), Decimal)
    return _to_decimal(binomial(x, k))


def decimal_text(v: int | Decimal) -> str:
    """The decimal text of a count v >= 0, an int or an exact Decimal,
    whatever the interpreter's int-to-str digit limit: str(v), save for an
    int of more than _DECIMAL_FROM_BITS bits, or one that str() refuses
    under the limit, which _to_decimal converts in an _exact_scope.  The
    limit is never read; the caller's context stays."""
    if not isinstance(v, int) or v.bit_length() <= _DECIMAL_FROM_BITS:
        try:
            return str(v)
        except ValueError:  # more digits than the limit allows
            pass
    return str(_exact_scope().run(_to_decimal, v))


# floor(log10(2) * 2^144): (b * _LOG10_2) >> _LOG10_2_SHIFT is floor(b log10(2))
# for every bit length b < 2^64, far beyond any int that fits in memory (the
# test suite proves it from the continued fraction of log10(2))
_LOG10_2_SHIFT = 144
_LOG10_2 = 6713193230417222942720793591814765458232150


def _power5_bounds(k: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= 5^k <= hi * 2^e, where lo and hi keep the
    top 128 bits of 5^k: binary powering with every product cut to 128 bits,
    rounded down for lo and up for hi.  About log2 k small multiplies."""
    lo = hi = 1
    e = 0
    for bit in bin(k)[2:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi = 5 * lo, 5 * hi
        s = max(hi.bit_length() - 128, 0)
        lo, hi, e = lo >> s, -(-hi >> s), e + s
    return lo, hi, e


def decimal_digits(v: int) -> int:
    """Digit count of an int without converting it to decimal (cheap for huge v)."""
    v = abs(v)
    if v == 0:
        return 1
    # 2^(b-1) <= v < 2^b puts the digit count at k or k + 1; v >= 10^k iff v >> k >= 5^k
    k = (v.bit_length() * _LOG10_2) >> _LOG10_2_SHIFT
    lo, hi, e = _power5_bounds(k)
    top = (v >> k) >> e
    if top >= hi:
        return k + 1
    if top < lo:
        return k
    return k + 1 if (v >> k) >= 5**k else k  # v's top bits fall between the bounds


def _to_decimal(v: int) -> Decimal:
    """v, an int >= 0, as an exact Decimal by divide and conquer: v = hi 2^h
    + lo, with hi and lo converted recursively down to _LEAF_FROM_BITS bits
    and recombined in exact decimal arithmetic, where multiplication is
    subquadratic (the method of CPython 3.12's Lib/_pylong.py).  Runs in the
    caller's _exact_scope."""
    from decimal import Decimal

    kept: dict[int, Decimal] = {}  # 2^h for the widths h of this one call

    def convert(v: int, w: int) -> Decimal:
        if w <= _LEAF_FROM_BITS:
            return Decimal(v)
        h = w >> 1
        hi = v >> h
        # hi first: its smaller powers are asked for before 2^h
        return convert(hi, w - h) * _two_power(kept, h) + convert(v - (hi << h), h)

    return convert(v, v.bit_length())


_NEAR = 4  # 2^k is derived from a held 2^j when k - j, or |k - 2j|, is below this


def _two_power(kept: dict, k: int) -> Decimal:
    """2^k as an exact Decimal, read from kept (k -> 2^k) when held, else
    made and stored there.  A caller that asks in ascending k mostly finds
    a close power held: 2^k is then 2^j 2^(k-j) for a held j with
    0 < k - j < _NEAR, or else (2^j)^2 times or divided by 2^|k - 2j| for a
    held j with |k - 2j| < _NEAR; else it is one exact power.  Runs in the
    caller's _exact_scope."""
    p = kept.get(k)
    if p is not None:
        return p
    for c in range(1, _NEAR):
        p = kept.get(k - c)
        if p is not None:
            p *= 1 << c
            break
    else:
        for j in range((k - _NEAR) // 2 + 1, (k + _NEAR - 1) // 2 + 1):
            p = kept.get(j)
            if p is not None:
                c = k - 2 * j
                p = p * p * (1 << c) if c >= 0 else p * p // (1 << -c)
                break
        else:
            from decimal import Decimal

            p = Decimal(2) ** k
    kept[k] = p
    return p


def _extend_totients(totients: list[int], primes: list[int], top: int) -> None:
    """Extend totients, phi(m) for m < len(totients), to m <= top, sieving the
    new block with the primes found so far and then with those it holds;
    primes grows with it."""
    low = len(totients)
    totients += range(low, top + 1)
    for p in primes:
        first = -(-low // p) * p
        totients[first::p] = [v - v // p for v in totients[first::p]]
    for p in range(low, top + 1):
        if totients[p] == p:  # no smaller prime divides p
            primes.append(p)
            totients[p::p] = [v - v // p for v in totients[p::p]]


# a polygon run sieves phi when end - start is at least end / _SIEVE_SHARE:
# the sieve costs about 0.2 us per number up to end, and saves a term 4-7 us
# against divisor_totients(n).  From end = 10^3 to 10^5 (CPython 3.11,
# 2 vCPUs) the two cost the same at end - start = end / 25 to end / 20
_SIEVE_SHARE = 20


def _polygon_run(start: int, end: int, group: GroupKind, power) -> Iterator:
    """The run for n = start..end, with 2^k read from power(k): an int or an
    exact Decimal, as the caller chooses.

    Each power of two that a term reads is held to the next term and
    doubled there when its exponent rises: 2^n; the tails' 2^((n-3)//2) and
    2^((n-4)//4), or 2^(n//2) for the cyclic group; and, for each divisor
    d <= sqrt(end), phi(d) 2^(n/d), held from d's last multiple to its
    next.  power(k) is asked only for each value's first term, so a run of
    one n asks for the powers its term reads, in the term's order: the
    tails, the rotation terms of the divisors d > 1 in ascending k, then
    2^n.  The run holds about end log(end) bits of powers, and its last term
    holds none past its use.  A run of at least end / _SIEVE_SHARE terms,
    every long run (start <= end / 2) among them, reads phi from a sieve
    that grows to 2n whenever n passes its end; a narrower one, a run of one
    n among them, from divisor_totients(n).  The rotation terms of the
    divisors above sqrt(n), whose powers are at most 2^sqrt(n), are int
    shifts; an exact Decimal sum takes them in without rounding.
    """
    small = [[] for _ in range(start, end + 1)]  # the divisors d <= sqrt(n) of n = end..start
    width = end - start
    for d in range(1, isqrt(end) + 1):
        if end % d <= width:  # some multiple of d lies in start..end
            for n in range(max(d * d, -(-start // d) * d), end + 1, d):
                small[end - n].append(d)
    cyclic = group is GroupKind.CYCLIC
    order, lag, what = ((1, 0, "cyclic rotation sum (n={})") if cyclic
                        else (2, 3, "polygon rotation sum (n={})"))
    totients, primes = [0, 1], []  # phi(m) for m < len(totients), and the primes there
    phi = totients.__getitem__  # a sieved run's; a narrow run reads each n's own
    sieved = _SIEVE_SHARE * width >= end
    chains = [None] * (isqrt(end) + 1)  # phi(d) 2^(n/d) at the last multiple n of d
    half = quarter = top = None  # the tails' powers and 2^n, once held
    for n in range(start, end + 1):
        below = small.pop()  # dropped once used, so that the sieve shrinks as the run goes
        if not sieved:
            phi = dict(divisor_totients(n)).__getitem__
        elif n >= len(totients):
            _extend_totients(totients, primes, min(end, 2 * n))
        if not cyclic:
            if n % 4 < 2:  # 2^((n-4)//4), held from the first such n (n = 3 has none)
                if quarter is None:
                    quarter = power((n - 4) // 4)
                elif n % 4 == 0:
                    quarter += quarter
                tail = 3 * quarter
            else:  # 2^((n+2)//4)
                tail = power((n + 2) // 4) if quarter is None else 4 * quarter
        if half is None:  # 2^((n-3)//2), or 2^(n//2) for the cyclic group
            half = power((n - lag) // 2)
        elif (n - lag) % 2 == 0:
            half += half
        tails = -1 - half if cyclic else half - tail
        rotations = shifts = 0  # the rotation terms of d > 1, and those of the cofactors
        for d in reversed(below):
            if d > 1:
                term = chains[d]
                term = phi(d) * power(n // d) if term is None else term + term
                chains[d] = term if n < end else None
                rotations += term
            if d * d != n:
                shifts += phi(n // d) << d
        if n == end:  # nothing is held past its use: a run of one n at 10^7 peaks 1.7 MB lower
            half = quarter = term = None
        top = power(n) if top is None else top + top
        # phi(d) 2^(n/d) over d | n, divided exactly by the group order, then
        # the tails; each sum replaces the one before
        rotations += shifts
        rotations += top
        top = top if n < end else None
        rotations = _exact_div(rotations, order * n, what, n)
        yield rotations + tails


# ---------------------------------------------------------------------------
# group-average assembly (reference route)


def _group_average(n: int, group: GroupKind, fix) -> int:
    """Average of fix(class) over the group's elements on n points, taken
    class by class; the divisibility by the group order is a self-check."""
    classes = element_classes(n, group)
    total = sum(size * fix(cls) for cls, size in classes)
    return _exact_div(total, sum(size for _, size in classes),
                      "{} fix sum (n={})", group.value, n)


def count_polygons_via_burnside(n: int, group: GroupKind = GroupKind.DIHEDRAL) -> int:
    """Polygon count assembled from per-class fixed-set sizes over the group;
    must equal count_polygons(n, group)."""
    return _group_average(n, group, lambda cls: fix_polygons(n, cls))


def count_mgons_via_burnside(n: int, m: int, group: GroupKind = GroupKind.DIHEDRAL) -> int:
    """m-gon count assembled from per-class fixed-set sizes over the group; 0
    outside 3 <= m <= n, else equal to count_mgons(n, m, group)."""
    n, m, group = index(n), index(m), _group(group)  # n first: a float n is refused whatever m is
    if m < 3 or m > n:
        return 0
    return _group_average(n, group, lambda cls: fix_mgons(n, m, cls))


# ---------------------------------------------------------------------------
# nearest-integer specialisations


def triangles_nearest(n: int) -> int:
    """Triangle count by the quadratic nearest-integer rule.

    Evaluates [n^2/48] for even n and [(n+3)^2/48] for odd n in exact
    integer arithmetic; the rounded value never sits on a half-integer.
    Agrees with count_mgons(n, 3) for n >= 3 (and is formula-only below).
    """
    n = _at_least(n, 1, "perimeter")
    square = n * n if n % 2 == 0 else (n + 3) ** 2
    return _nearest_quotient(square, 48)


def quadrilaterals_nearest(n: int) -> int:
    """Quadrilateral count by the cubic nearest-integer rule.

    [(n^3 - 3n^2 + 20n)/96] for even n, [(n^3 - 7n)/96] for odd n; agrees
    with count_mgons(n, 4) for n >= 4.
    """
    n = _at_least(n, 1, "perimeter")
    if n % 2 == 0:
        cubic = n**3 - 3 * n**2 + 20 * n
    else:
        cubic = n**3 - 7 * n
    return _nearest_quotient(cubic, 96)


# ---------------------------------------------------------------------------
# leading-order growth


def asymptotic_mgon_coefficient(m: int) -> Fraction:
    """Coefficient c(m) with the m-gon count growing like c(m) * n^(m-1)."""
    from fractions import Fraction

    m = _at_least(m, 3, "side count")
    return Fraction(2 ** (m - 1) - m, 2**m * factorial(m))
