"""Circular bitstrings, the symmetries of the marked circle, and side lists.

A perimeter-n polygon with integer sides is encoded by n equally spaced
points on a circle with the corner points marked: an n-tuple over {0,1}.
Position i of the tuple is the (i+1)-th point read clockwise; every
congruence below is stated once, on 0-based positions, and nowhere else.

Rotations send position i to i+q (mod n) and reflections send i to
q-i (mod n).  Two corner tuples describe the same polygon when one of these
2n maps (the dihedral group), or one of the n rotations (the cyclic group)
for the rotation-only census, carries one to the other.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from math import gcd

from .numtheory import divisors, totient

__all__ = [
    "CircularTuple",
    "ElementClass",
    "ElementKind",
    "GroupElement",
    "GroupKind",
    "NotAPolygonError",
    "SideLengths",
    "apply",
    "bad_block_threshold",
    "classify",
    "cyclic_group",
    "dihedral_group",
    "element_classes",
    "element_order",
    "is_good",
    "to_sides",
    "weight",
]


class NotAPolygonError(ValueError):
    """Raised when a circular tuple does not mark the corners of a polygon."""


class _Record:
    """An immutable value whose fields are the names in __slots__, in order.

    Records are equal when their class and fields are, hash and pickle by
    their fields, and print like a dataclass.  Each subclass validates and
    stores its fields in a hand-written __init__ (object.__setattr__ gets
    past the assignment guard) and lists them in a hand-written _key, which
    the burnside route's class lookups call often enough to matter.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self) -> tuple:
        return type(self), self._key()


class CircularTuple(_Record):
    """An n-tuple over {0,1}, read clockwise around the circle (n >= 3)."""

    __slots__ = ("bits",)
    bits: tuple[int, ...]

    def __init__(self, bits: tuple[int, ...]) -> None:
        if len(bits) < 3:
            raise ValueError("circular tuples need at least 3 positions")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("tuple entries must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def _key(self) -> tuple:
        return (self.bits,)

    @property
    def n(self) -> int:
        return len(self.bits)

    @classmethod
    def from_text(cls, text: str) -> CircularTuple:
        """Parse a '0'/'1' string; the leftmost character is position 0."""
        if set(text) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {text!r}")
        return cls(tuple(int(c) for c in text))

    def ones(self) -> tuple[int, ...]:
        """Ascending 0-based positions of the 1-entries."""
        return tuple(i for i, b in enumerate(self.bits) if b)

    def __str__(self) -> str:
        return "".join(map(str, self.bits))


class GroupKind(Enum):
    """The group whose orbits are counted: rotations only, or rotations and reflections."""

    CYCLIC = "cyclic"
    DIHEDRAL = "dihedral"


class GroupElement(_Record):
    """One symmetry of the n marked circle points: a rotation or a reflection.

    With offset q, a rotation maps position i to i+q (mod n) and a
    reflection maps i to q-i (mod n).  Rotation offset 0 is the identity.
    """

    __slots__ = ("n", "q", "is_reflection")
    n: int
    q: int
    is_reflection: bool

    def __init__(self, n: int, q: int, is_reflection: bool = False) -> None:
        if n < 3:
            raise ValueError("the circle needs at least 3 points")
        if not 0 <= q < n:
            raise ValueError(f"offset {q} not reduced mod {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "is_reflection", is_reflection)

    def _key(self) -> tuple:
        return self.n, self.q, self.is_reflection

    @classmethod
    def rotation(cls, n: int, q: int) -> GroupElement:
        return cls(n, q % n, False)

    @classmethod
    def reflection(cls, n: int, q: int) -> GroupElement:
        return cls(n, q % n, True)

    @classmethod
    def identity(cls, n: int) -> GroupElement:
        return cls(n, 0, False)

    def permutes(self, i: int) -> int:
        """Image of position i under this symmetry."""
        if self.is_reflection:
            return (self.q - i) % self.n
        return (i + self.q) % self.n

    def inverse(self) -> GroupElement:
        # reflections are involutions; a rotation inverts by negating its offset
        if self.is_reflection:
            return self
        return GroupElement(self.n, (-self.q) % self.n, False)

    def __str__(self) -> str:
        return f"{'reflection' if self.is_reflection else 'rotation'}(n={self.n}, q={self.q})"


class ElementKind(Enum):
    IDENTITY = "identity"
    ROTATION = "rotation"
    REFLECTION_ODD = "reflection-odd"
    REFLECTION_EVEN_NO_FIXED_POINT = "reflection-even-no-fixed-point"
    REFLECTION_EVEN_TWO_FIXED_POINTS = "reflection-even-two-fixed-points"


class ElementClass(_Record):
    """The class of a symmetry, as far as fixed-tuple counts care.

    All elements of one class fix equally many tuples, so the counting
    formulas are stated per class: the identity, the rotations of each
    order d > 1, and (split by the parity of n) the reflections with one,
    zero, or two fixed points.
    """

    __slots__ = ("kind", "order")
    kind: ElementKind
    order: int | None

    def __init__(self, kind: ElementKind, order: int | None = None) -> None:
        if (kind is ElementKind.ROTATION) != (order is not None):
            raise ValueError("exactly the non-trivial rotation classes carry an order")
        if order is not None and order < 2:
            raise ValueError("rotation classes have order >= 2")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)

    def _key(self) -> tuple:
        return self.kind, self.order

    @classmethod
    def identity(cls) -> ElementClass:
        return cls(ElementKind.IDENTITY)

    @classmethod
    def rotation(cls, order: int) -> ElementClass:
        return cls(ElementKind.ROTATION, order)

    @classmethod
    def reflection_odd(cls) -> ElementClass:
        return cls(ElementKind.REFLECTION_ODD)

    @classmethod
    def reflection_even_no_fixed_point(cls) -> ElementClass:
        return cls(ElementKind.REFLECTION_EVEN_NO_FIXED_POINT)

    @classmethod
    def reflection_even_two_fixed_points(cls) -> ElementClass:
        return cls(ElementKind.REFLECTION_EVEN_TWO_FIXED_POINTS)

    def __str__(self) -> str:
        if self.kind is ElementKind.ROTATION:
            return f"rotation({self.order})"
        return self.kind.value


def cyclic_group(n: int) -> Iterator[GroupElement]:
    """The n rotations."""
    return (GroupElement.rotation(n, q) for q in range(n))


def dihedral_group(n: int) -> Iterator[GroupElement]:
    """All 2n symmetries: the n rotations, then the n reflections."""
    yield from cyclic_group(n)
    for q in range(n):
        yield GroupElement.reflection(n, q)


def apply(sigma: GroupElement, a: CircularTuple) -> CircularTuple:
    """Act on a tuple by permuting coordinates: entry i of the result is
    read from the position that sigma maps onto i."""
    if sigma.n != a.n:
        raise ValueError(f"element on {sigma.n} points cannot act on a {a.n}-tuple")
    inv = sigma.inverse()
    return CircularTuple(tuple(a.bits[inv.permutes(i)] for i in range(a.n)))


def element_order(sigma: GroupElement) -> int:
    """Least d >= 1 with sigma composed d times equal to the identity."""
    if sigma.is_reflection:
        return 2
    return sigma.n // gcd(sigma.n, sigma.q)


def classify(sigma: GroupElement) -> ElementClass:
    """Class of sigma: identity, rotation tagged by order, or reflection
    split by fixed-point count.

    On an even circle the fixed points of a reflection solve 2i = q (mod n),
    soluble exactly when q is even (two solutions); on an odd circle every
    reflection fixes a single point.
    """
    if not sigma.is_reflection:
        d = element_order(sigma)
        return ElementClass.identity() if d == 1 else ElementClass.rotation(d)
    if sigma.n % 2 == 1:
        return ElementClass.reflection_odd()
    if sigma.q % 2 == 0:
        return ElementClass.reflection_even_two_fixed_points()
    return ElementClass.reflection_even_no_fixed_point()


def element_classes(n: int, group: GroupKind) -> list[tuple[ElementClass, int]]:
    """Each class of the group's elements on n points, with its number of elements.

    The identity; phi(d) rotations of each order d > 1 dividing n; for the
    dihedral group also the n reflections, n/2 of each kind on an even
    circle.  The sizes add up to the group order.
    """
    if n < 3:
        raise ValueError(f"perimeter must be at least 3, got {n}")
    classes = [(ElementClass.identity(), 1)]
    classes += [(ElementClass.rotation(d), totient(d)) for d in divisors(n) if d > 1]
    if group is GroupKind.DIHEDRAL:
        if n % 2 == 1:
            classes.append((ElementClass.reflection_odd(), n))
        else:
            classes.append((ElementClass.reflection_even_no_fixed_point(), n // 2))
            classes.append((ElementClass.reflection_even_two_fixed_points(), n // 2))
    return classes


def weight(a: CircularTuple) -> int:
    """Number of 1-entries (the number of marked corners)."""
    return sum(a.bits)


def zero_blocks(a: CircularTuple) -> list[int]:
    """Lengths of the maximal circular runs of 0s.

    A run may wrap past the last position; a leading and a trailing run are
    one block.  The all-zero tuple is a single run of length n.
    """
    if not any(a.bits):
        return [a.n]
    # start scanning just after a 1 so every run is contiguous in scan order
    start = a.bits.index(1) + 1
    runs = []
    run = 0
    for off in range(a.n):
        if a.bits[(start + off) % a.n]:
            if run:
                runs.append(run)
            run = 0
        else:
            run += 1
    if run:
        runs.append(run)
    return runs


def bad_block_threshold(n: int) -> int:
    """Shortest zero-run length that rules out a polygon on n points."""
    k = n // 2
    return k - 1 if n % 2 == 0 else k


def is_good(a: CircularTuple) -> bool:
    """True iff the 1-entries of the tuple mark the corners of a polygon.

    Equivalently, every circular zero run is shorter than the threshold:
    a run at the threshold would force a side of at least half the
    perimeter.  Good tuples automatically have at least three 1s.
    """
    limit = bad_block_threshold(a.n)
    return all(run < limit for run in zero_blocks(a))


class SideLengths(_Record):
    """Clockwise side lengths of an integer polygon.

    Every side is a positive integer strictly below half the perimeter,
    and there are at least three of them.
    """

    __slots__ = ("sides",)
    sides: tuple[int, ...]

    def __init__(self, sides: tuple[int, ...]) -> None:
        if len(sides) < 3:
            raise ValueError("a polygon has at least 3 sides")
        p = sum(sides)
        if any(s < 1 or 2 * s >= p for s in sides):
            raise ValueError("each side must be a positive integer below half the perimeter")
        object.__setattr__(self, "sides", sides)

    def _key(self) -> tuple:
        return (self.sides,)

    @property
    def m(self) -> int:
        return len(self.sides)

    @property
    def perimeter(self) -> int:
        return sum(self.sides)


def to_sides(a: CircularTuple) -> SideLengths:
    """Side lengths of the polygon with corners at the 1-positions.

    Sides are the circular gaps between consecutive corners, read clockwise
    starting from the smallest 1-position (a fixed convention so output is
    reproducible).  A zero run of length l corresponds to a side of length
    l+1.
    """
    if not is_good(a):
        raise NotAPolygonError(f"{a} does not mark a polygon (weight {weight(a)}, "
                               f"zero runs {zero_blocks(a)})")
    corners = a.ones()
    sides = [corners[i + 1] - corners[i] for i in range(len(corners) - 1)]
    sides.append(a.n - corners[-1] + corners[0])
    return SideLengths(tuple(sides))
