"""Top-level counts of inequivalent integer polygons and m-gons.

Two evaluation routes are kept side by side on purpose.  The closed forms
are hand-simplified and fast; the assembly route averages the per-class
fixed-set sizes over the group, weighting each class by its size from
`model.element_classes`, and exists as the reference the closed forms are
regression-tested against — a transcription slip in any mod-4 branch
shows up as a mismatch.

Only the closed forms use `_rotation_sum`; the assembly route sums the
rotation classes' `fixcount` values itself on purpose, which keeps the two
routes independent.  Every route's m-gon count is 0 outside 3 <= m <= n.

Equivalence means rotation and/or reversal of the side ordering; the
"cyclic" variants drop reversal and quotient by rotations only.
"""

from __future__ import annotations

from math import factorial, gcd

from .fixcount import fix_mgons, fix_polygons
from .model import GroupKind, element_classes
from .numtheory import _nearest_quotient, binomial, divisors, totient

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
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
    "quadrilaterals_nearest",
    "quadrilaterals_piecewise",
    "triangles_nearest",
]


class InternalError(RuntimeError):
    """An exactness self-check failed: a defect in the formulas, never bad input."""


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise InternalError(f"{what} = {num} is not divisible by {den}")
    return q


# ---------------------------------------------------------------------------
# closed forms


def _rotation_sum(n: int, m: int | None = None) -> int:
    """Sum over the rotations of phi(d) times the tuples fixed by one of order d:
    2^(n/d) over d | n, or C(n/d, m/d) over d | gcd(n, m) when m is given."""
    if m is None:
        return sum(totient(d) * 2**(n // d) for d in divisors(n))
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


def count_polygons(n: int) -> int:
    """Inequivalent integer polygons (any number of sides) with perimeter n."""
    if n < 3:
        raise ValueError(f"perimeter must be at least 3, got {n}")
    rotations = _exact_div(_rotation_sum(n), 2 * n, f"polygon rotation sum (n={n})")
    if n % 4 in (0, 1):
        tail = 3 * 2**((n - 4) // 4)
    else:
        tail = 2**((n + 2) // 4)
    return rotations + 2**((n - 3) // 2) - tail


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
    if n < 3:
        raise ValueError(f"perimeter must be at least 3, got {n}")
    return _exact_div(_rotation_sum(n), n, f"cyclic rotation sum (n={n})") - 1 - 2**(n // 2)


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
