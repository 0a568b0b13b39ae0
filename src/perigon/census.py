"""Top-level counts of inequivalent integer polygons and m-gons.

Two evaluation routes are kept side by side on purpose.  The closed forms
are hand-simplified and fast; the assembly route averages the per-class
fixed-set sizes over the group, weighting each class by its size from
`model.element_classes`, and exists as the reference the closed forms are
regression-tested against — a transcription slip in any mod-4 branch
shows up as a mismatch.

Only the m-gon closed forms use `_rotation_sum`; the assembly route sums
the rotation classes' `fixcount` values itself on purpose, which keeps the
two routes independent.  Two closed forms also come as runs over a range.
`polygon_values` is the one evaluation of the polygon closed form, over
n = start..end with the divisors of every n from one sieve;
`count_polygons` and `count_polygons_cyclic` read a run of one n, and so
does `polygon_decimal`, with every power of two built in exact decimal
arithmetic so that a huge count prints without a base conversion.
`mgon_columns` is the m-gon closed form evaluated one perimeter at a time,
from Pascal's triangle, with its own rotation accumulation; `count_mgons`
stays the single-cell function, since one cell may be far too large for
Pascal rows.  The command picks the shape (`table` needs every cell and
reads columns, the polygon b-files read one run).  Tests tie each run to
the assembly route: tests/test_census.py::test_closed_forms_equal_burnside_assembly
checks `mgon_columns` against `count_mgons` and the assembly route cell by
cell for n <= 200, tests/test_census.py::test_polygon_values_equal_single_counts
checks `polygon_values` against the assembly route for n <= 1000 and
against runs of one n, tests/test_census.py::test_polygon_decimal_equals_int_counts
checks `polygon_decimal` against the int run up to n = 10^5 + 3, and
tests/test_cli.py::test_table_matches_cell_by_cell_census
ties the printed table to `count_mgons`.  Every route's m-gon count is 0
outside 3 <= m <= n.

Equivalence means rotation and/or reversal of the side ordering; the
"cyclic" variants drop reversal and quotient by rotations only.
"""

from __future__ import annotations

from math import factorial, gcd, isqrt
from operator import add

from .fixcount import fix_mgons, fix_polygons
from .model import GroupKind, element_classes
from .numtheory import _nearest_quotient, binomial, divisors, totient

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    from collections.abc import Iterator
    from decimal import Decimal
    from fractions import Fraction

__all__ = [
    "InternalError",
    "asymptotic_mgon_coefficient",
    "asymptotic_mgons",
    "asymptotic_polygons",
    "count_mgons",
    "count_mgons_cyclic",
    "count_mgons_via_burnside",
    "count_polygons",
    "count_polygons_cyclic",
    "count_polygons_via_burnside",
    "mgon_columns",
    "polygon_decimal",
    "polygon_values",
    "quadrilaterals_nearest",
    "quadrilaterals_piecewise",
    "triangles_nearest",
]


class InternalError(RuntimeError):
    """An exactness self-check failed: a defect in the formulas, never bad input."""


def _exact_div(num, den: int, what: str):
    """num // den for an int or integral Decimal num, checked to be exact.

    The message gives the numerator's size, not its value: a value of more
    than 4,300 digits would trip the int-to-str limit in place of this error.
    """
    q, r = divmod(num, den)
    if r:
        size = (f"{num.bit_length()} bits" if isinstance(num, int)
                else f"{num.adjusted() + 1} digits")
        raise InternalError(f"{what} ({size}) leaves remainder {r} modulo {den}")
    return q


def _exact_context():
    """A decimal context for integer arithmetic that never rounds: any
    inexact, invalid or division-by-zero result raises."""
    import decimal

    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                           traps=[decimal.Inexact, decimal.InvalidOperation,
                                  decimal.DivisionByZero])


# ---------------------------------------------------------------------------
# closed forms


def _rotation_sum(n: int, m: int) -> int:
    """Sum over the rotations of phi(d) times the m-subsets fixed by one of
    order d: C(n/d, m/d) over d | gcd(n, m)."""
    return sum(totient(d) * binomial(n // d, m // d) for d in divisors(gcd(m, n)))


def count_mgons(n: int, m: int) -> int:
    """Inequivalent integer m-gons with perimeter n.

    Returns 0 whenever no such polygon exists (m < 3 or m > n), so callers
    may sweep rectangular (m, n) grids without guards.
    """
    if m < 3 or m > n:
        return 0
    half_m = m // 2
    reflections = (
        binomial(half_m + (n - m) // 2, half_m)
        - binomial(n // 2, m - 1)
        - binomial(n // 4, half_m)
        - (binomial((n + 2) // 4, half_m) if m % 2 == 0 else 0)
    )
    return _exact_div(_rotation_sum(n, m) + n * reflections, 2 * n,
                      f"m-gon census numerator ({m},{n})")


def mgon_columns(max_n: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (n, [count_mgons(n, m) for m in 3..n]) for n = 3..max_n.

    The closed form of count_mgons, evaluated one perimeter at a time for
    callers that need every cell.  Every binomial is read from Pascal's
    triangle, built by additions.  A column reads row n and rows n/d for the
    divisors d > 1 of n (the rotations) and rows n//2, (n-1)//2, n//4 and
    (n+2)//4 (the reflections), so only the rows up to max_n // 2 are kept;
    row n is built from row n - 1 and dropped after its column.  The
    rotation sum is accumulated once per divisor d of n, adding
    phi(d) C(n/d, j) to the entry at m = d j, in place of a walk over the
    divisors of gcd(n, m) in every cell.
    """
    kept = [[1]]  # Pascal rows 0..max_n // 2
    row = [1]
    for n in range(1, max_n + 1):
        row = [1, *map(add, row, row[1:]), 1]
        if n <= max_n // 2:
            kept.append(row)
        if n < 3:
            continue
        rotations = row[:]  # the identity's term, C(n, m)
        for d in divisors(n)[1:]:
            phi = totient(d)
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
                _exact_div(num, twice, f"m-gon census numerator ({m},{n})")
            column.append(value)
        yield n, column


def count_polygons(n: int) -> int:
    """Inequivalent integer polygons (any number of sides) with perimeter n."""
    return next(polygon_values(n, n))


def polygon_values(start: int, end: int, cyclic: bool = False) -> Iterator[int]:
    """Return the run of count_polygons(n), or count_polygons_cyclic(n) if
    cyclic, for n = start..end; the run is empty when end < start.

    The one evaluation of the polygon closed form; start is checked at the
    call, not when the run is first read.  The divisors of all n in the run
    come from one sieve, which appends each d <= sqrt(end) to its multiples
    n >= max(start, d^2); the cofactors n / d complete each list.  A d with
    no multiple in the run costs one remainder, so a run of one n costs
    about what trial division does.
    """
    if start < 3:
        raise ValueError(f"perimeter must be at least 3, got {start}")
    return _polygon_run(start, max(end, start - 1), cyclic, (1).__lshift__)


def polygon_decimal(n: int, cyclic: bool = False) -> Decimal:
    """count_polygons(n), or count_polygons_cyclic(n) if cyclic, as an exact
    decimal.Decimal whose str() is the count's decimal text.

    A run of one n with every power of two built in exact decimal
    arithmetic, so a huge count is printed without an int-to-decimal
    conversion.
    """
    import decimal

    if n < 3:
        raise ValueError(f"perimeter must be at least 3, got {n}")
    exact = _exact_context()
    with decimal.localcontext(exact):
        return next(_polygon_run(n, n, cyclic, lambda k: exact.power(2, k)))


def _polygon_run(start: int, end: int, cyclic: bool, power) -> Iterator:
    """The run for n = start..end, with 2^k read from power(k): an int or an
    exact Decimal, as the caller chooses."""
    small = [[] for _ in range(start, end + 1)]  # the divisors d <= sqrt(n) of n = end..start
    width = end - start
    for d in range(1, isqrt(end) + 1):
        if end % d <= width:  # some multiple of d lies in start..end
            for n in range(max(d * d, -(-start // d) * d), end + 1, d):
                small[end - n].append(d)
    for n in range(start, end + 1):
        below = small.pop()  # dropped once used, so that the sieve shrinks as the run goes
        # phi(d) 2^(n/d) over d | n, divided exactly by the group order, then the tails
        rotations = sum(totient(d) * power(n // d)
                        for d in below + [n // d for d in below if d * d != n])
        if cyclic:
            yield _exact_div(rotations, n, f"cyclic rotation sum (n={n})") - 1 - power(n // 2)
            continue
        tail = 3 * power((n - 4) // 4) if n % 4 in (0, 1) else power((n + 2) // 4)
        yield (_exact_div(rotations, 2 * n, f"polygon rotation sum (n={n})")
               + power((n - 3) // 2) - tail)


# ---------------------------------------------------------------------------
# group-average assembly (reference route)


def _group_average(n: int, group: GroupKind, fix) -> int:
    """Average of fix(class) over the group's elements on n points, taken
    class by class; the divisibility by the group order is a self-check."""
    classes = element_classes(n, group)
    total = sum(size * fix(cls) for cls, size in classes)
    return _exact_div(total, sum(size for _, size in classes),
                      f"{group.value} fix sum (n={n})")


def count_polygons_via_burnside(n: int, group: GroupKind = GroupKind.DIHEDRAL) -> int:
    """Polygon count assembled from per-class fixed-set sizes over the group;
    must equal count_polygons(n), or count_polygons_cyclic(n) if cyclic."""
    return _group_average(n, group, lambda cls: fix_polygons(n, cls))


def count_mgons_via_burnside(n: int, m: int, group: GroupKind = GroupKind.DIHEDRAL) -> int:
    """m-gon count assembled from per-class fixed-set sizes over the group; 0
    outside 3 <= m <= n, else equal to count_mgons(n, m) or count_mgons_cyclic(n, m)."""
    if m < 3 or m > n:
        return 0
    return _group_average(n, group, lambda cls: fix_mgons(n, m, cls))


# ---------------------------------------------------------------------------
# cyclic variants (rotation-only equivalence)


def count_mgons_cyclic(n: int, m: int) -> int:
    """Integer m-gons with perimeter n, inequivalent up to rotation only.

    Returns 0 outside 3 <= m <= n, like count_mgons.
    """
    if m < 3 or m > n:
        return 0
    rotations = _exact_div(_rotation_sum(n, m), n, f"cyclic fix sum ({m},{n})")
    return rotations - binomial(n // 2, m - 1)


def count_polygons_cyclic(n: int) -> int:
    """Integer polygons with perimeter n, inequivalent up to rotation only."""
    return next(polygon_values(n, n, cyclic=True))


# ---------------------------------------------------------------------------
# nearest-integer specialisations


def triangles_nearest(n: int) -> int:
    """Triangle count by the quadratic nearest-integer rule.

    Evaluates [n^2/48] for even n and [(n+3)^2/48] for odd n in exact
    integer arithmetic; the rounded value never sits on a half-integer.
    Agrees with count_mgons(n, 3) for n >= 3 (and is formula-only below).
    """
    if n < 1:
        raise ValueError(f"perimeter must be positive, got {n}")
    square = n * n if n % 2 == 0 else (n + 3) ** 2
    return _nearest_quotient(square, 48)


def quadrilaterals_nearest(n: int) -> int:
    """Quadrilateral count by the cubic nearest-integer rule.

    [(n^3 - 3n^2 + 20n)/96] for even n, [(n^3 - 7n)/96] for odd n; agrees
    with count_mgons(n, 4) for n >= 4.
    """
    if n < 1:
        raise ValueError(f"perimeter must be positive, got {n}")
    if n % 2 == 0:
        cubic = n**3 - 3 * n**2 + 20 * n
    else:
        cubic = n**3 - 7 * n
    return _nearest_quotient(cubic, 96)


def quadrilaterals_piecewise(n: int) -> int:
    """Exact quadrilateral count: one cubic polynomial per residue of n mod 4."""
    if n < 1:
        raise ValueError(f"perimeter must be positive, got {n}")
    r = n % 4
    if r == 0:
        cubic = n**3 - 3 * n**2 + 20 * n
    elif r == 1:
        cubic = n**3 - 7 * n + 6
    elif r == 2:
        cubic = n**3 - 3 * n**2 + 20 * n - 36
    else:
        cubic = n**3 - 7 * n - 6
    return _exact_div(cubic, 96, f"piecewise quadrilateral value (n={n})")


# ---------------------------------------------------------------------------
# leading-order growth


def asymptotic_polygons(n: int) -> Fraction:
    """Leading-order estimate 2^(n-1)/n of the polygon count, as an exact
    rational (diagnostic use; ratios against it may be floated)."""
    from fractions import Fraction

    if n < 3:
        raise ValueError(f"perimeter must be at least 3, got {n}")
    return Fraction(2 ** (n - 1), n)


def asymptotic_mgon_coefficient(m: int) -> Fraction:
    """Coefficient c(m) with the m-gon count growing like c(m) * n^(m-1)."""
    from fractions import Fraction

    if m < 3:
        raise ValueError(f"side count must be at least 3, got {m}")
    return Fraction(2 ** (m - 1) - m, 2**m * factorial(m))


def asymptotic_mgons(m: int, n: int) -> Fraction:
    """Leading-order estimate c(m) * n^(m-1) of the m-gon count at perimeter n."""
    if n < 3:
        raise ValueError(f"perimeter must be at least 3, got {n}")
    return asymptotic_mgon_coefficient(m) * n ** (m - 1)
