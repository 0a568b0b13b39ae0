"""Closed-form sizes of fixed-tuple sets, one formula per element class.

For each class of circle symmetry these give how many good n-tuples (all
of them, or just those of weight m) an element of that class leaves
unchanged.  The residue-of-n-mod-4 and parity-of-m case splits are
inherent: symmetric corner choices genuinely differ between the residues.
Formulas are kept in their stated per-branch form, with no algebraic
re-simplification, so each branch can be audited in isolation; binomials
whose would-be arguments are fractional (order not dividing m, or m odd
where m/2 appears) contribute zero.
"""

from __future__ import annotations

from functools import lru_cache

from .model import ElementClass, ElementKind, GroupKind, element_classes
from .numtheory import binomial

__all__ = ["fix_mgons", "fix_polygons"]


@lru_cache(maxsize=1024)
def _check_class(n: int, cls: ElementClass) -> None:
    if cls not in dict(element_classes(n, GroupKind.DIHEDRAL)):
        raise ValueError(f"no symmetry of the {n}-point circle is in class {cls}")


def fix_polygons(n: int, cls: ElementClass) -> int:
    """Number of good n-tuples fixed by any element of the given class."""
    _check_class(n, cls)
    kind = cls.kind

    if kind is ElementKind.IDENTITY:
        # complement of the bad tuples: all-zero, plus one bad run starting at
        # each of n positions, minus the doubly counted two-run tuples (even n)
        return 2**n - 1 - n * 2**(n // 2) + (n // 2 if n % 2 == 0 else 0)

    if kind is ElementKind.ROTATION:
        d = cls.order
        # a half-turn (d=2) additionally fixes the n/2 bad two-corner tuples
        return 2**(n // d) - 1 - (n // 2 if d == 2 else 0)

    if kind is ElementKind.REFLECTION_ODD:
        if n % 4 == 1:
            return 2**((n + 1) // 2) - 3 * 2**((n - 1) // 4) + 1
        return 2**((n + 1) // 2) - 2**((n + 5) // 4) + 1

    if kind is ElementKind.REFLECTION_EVEN_NO_FIXED_POINT:
        if n % 4 == 0:
            return 2**(n // 2) - 2**((n + 4) // 4) + 1
        return 2**(n // 2) - 2**((n + 6) // 4) + 2

    # reflection with two fixed points
    if n % 4 == 0:
        return 2**((n + 2) // 2) - 2**((n + 8) // 4) + 1
    return 2**((n + 2) // 2) - 2**((n + 6) // 4)


def fix_mgons(n: int, m: int, cls: ElementClass) -> int:
    """Number of weight-m good n-tuples fixed by any element of the class."""
    _check_class(n, cls)
    if not 3 <= m <= n:
        raise ValueError(f"corner count must satisfy 3 <= m <= n, got m={m}, n={n}")
    kind = cls.kind
    half_m = m // 2

    if kind is ElementKind.IDENTITY:
        return binomial(n, m) - n * binomial(n // 2, m - 1)

    if kind is ElementKind.ROTATION:
        d = cls.order
        return binomial(n // d, m // d) if m % d == 0 else 0

    if kind is ElementKind.REFLECTION_ODD:
        result = binomial(n // 2, half_m) - binomial(n // 4, half_m)
        if m % 2 == 0:
            result -= binomial((n + 2) // 4, half_m)
        return result

    if kind is ElementKind.REFLECTION_EVEN_NO_FIXED_POINT:
        if m % 2 == 1:
            return 0  # a fixed tuple pairs corners off the axis, so m is even
        return binomial(n // 2, half_m) - 2 * binomial((n + 2) // 4, half_m)

    # reflection with two fixed points: the two axis points absorb parity
    if m % 2 == 0:
        return binomial(n // 2, half_m) - 2 * binomial(n // 4, half_m)
    return 2 * binomial(n // 2 - 1, half_m) - 2 * binomial(n // 4, half_m)
