"""Circular bitstrings, the symmetries of the marked circle, and their classes.

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
from operator import index

from .numtheory import divisor_totients

__all__ = [
    "CircularTuple",
    "ElementClass",
    "ElementKind",
    "GroupElement",
    "GroupKind",
    "apply",
    "bad_block_threshold",
    "classify",
    "cyclic_group",
    "dihedral_group",
    "element_classes",
]


class _Record:
    """An immutable value whose fields are the names in __slots__, in order.

    Records are equal when their class and fields are, hash and pickle by
    their fields, and print like a dataclass.  Each subclass validates and
    stores its fields in a hand-written __init__ (object.__setattr__ gets
    past the assignment guard) and lists them in a hand-written _key, which
    every hash calls: `verify` hashes each tuple of its probes' orbit sets and
    each element's class in its per-class `seen` dict.
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
        if type(bits) is not tuple:  # a list would stay mutable and unhashable
            raise ValueError(f"tuple bits must be a tuple, got {type(bits).__name__}")
        if len(bits) < 3:
            raise ValueError("circular tuples need at least 3 positions")
        if {*map(type, bits)} != {int} or not {*bits} <= {0, 1}:  # no True or 1.0
            raise ValueError("tuple entries must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def _key(self) -> tuple:
        return (self.bits,)

    @property
    def n(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(map(str, self.bits))


class GroupKind(Enum):
    """The group whose orbits are counted: rotations only, or rotations and reflections."""

    CYCLIC = "cyclic"
    DIHEDRAL = "dihedral"


def _at_least(value: int, least: int, what: str) -> int:
    """operator.index(value), checked against least: the one input rule of
    every perimeter and side count.  A float raises TypeError, a bool reads
    as its int, and a value below least raises ValueError naming what."""
    value = index(value)
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return value


def _group(group: GroupKind) -> GroupKind:
    """group, checked to be a GroupKind member: the one input rule of every group."""
    if not isinstance(group, GroupKind):
        raise TypeError(f"group must be a GroupKind, got {type(group).__name__}")
    return group


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
        if type(n) is not int or type(q) is not int or type(is_reflection) is not bool:
            raise ValueError("n and q must be ints and is_reflection a bool")
        _at_least(n, 3, "perimeter")
        if not 0 <= q < n:
            raise ValueError(f"offset {q} not reduced mod {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "is_reflection", is_reflection)

    def _key(self) -> tuple:
        return self.n, self.q, self.is_reflection

    @classmethod
    def rotation(cls, n: int, q: int) -> GroupElement:
        return cls(n, q % _at_least(n, 3, "perimeter"), False)

    @classmethod
    def reflection(cls, n: int, q: int) -> GroupElement:
        return cls(n, q % _at_least(n, 3, "perimeter"), True)

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
        if type(kind) is not ElementKind or not (order is None or type(order) is int):
            raise ValueError("a class takes an ElementKind and an int order or None")
        if (kind is ElementKind.ROTATION) != (order is not None):
            raise ValueError("exactly the non-trivial rotation classes carry an order")
        if order is not None and order < 2:
            raise ValueError("rotation classes have order >= 2")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)

    def _key(self) -> tuple:
        return self.kind, self.order

    def __str__(self) -> str:
        if self.kind is ElementKind.ROTATION:
            return f"rotation({self.order})"
        return self.kind.value


def cyclic_group(n: int) -> Iterator[GroupElement]:
    """The n rotations."""
    return (GroupElement.rotation(n, q) for q in range(_at_least(n, 3, "perimeter")))


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
    return CircularTuple(tuple(map(a.bits.__getitem__, map(sigma.inverse().permutes, range(a.n)))))


def classify(sigma: GroupElement) -> ElementClass:
    """Class of sigma: identity, rotation tagged by order, or reflection
    split by fixed-point count.

    On an even circle the fixed points of a reflection solve 2i = q (mod n),
    soluble exactly when q is even (two solutions); on an odd circle every
    reflection fixes a single point.
    """
    if not sigma.is_reflection:
        d = sigma.n // gcd(sigma.n, sigma.q)  # the rotation's order
        if d == 1:
            return ElementClass(ElementKind.IDENTITY)
        return ElementClass(ElementKind.ROTATION, d)
    if sigma.n % 2 == 1:
        return ElementClass(ElementKind.REFLECTION_ODD)
    if sigma.q % 2 == 0:
        return ElementClass(ElementKind.REFLECTION_EVEN_TWO_FIXED_POINTS)
    return ElementClass(ElementKind.REFLECTION_EVEN_NO_FIXED_POINT)


def element_classes(n: int, group: GroupKind) -> list[tuple[ElementClass, int]]:
    """Each class of the group's elements on n points, with its number of elements.

    The identity; phi(d) rotations of each order d > 1 dividing n; for the
    dihedral group also the n reflections, n/2 of each kind on an even
    circle.  The sizes add up to the group order.
    """
    n, group = _at_least(n, 3, "perimeter"), _group(group)
    classes = [(ElementClass(ElementKind.IDENTITY), 1)]
    classes += [(ElementClass(ElementKind.ROTATION, d), phi) for d, phi in divisor_totients(n)[1:]]
    if group is GroupKind.DIHEDRAL:
        if n % 2 == 1:
            classes.append((ElementClass(ElementKind.REFLECTION_ODD), n))
        else:
            classes.append((ElementClass(ElementKind.REFLECTION_EVEN_NO_FIXED_POINT), n // 2))
            classes.append((ElementClass(ElementKind.REFLECTION_EVEN_TWO_FIXED_POINTS), n // 2))
    return classes


def bad_block_threshold(n: int) -> int:
    """Shortest zero-run length that rules out a polygon on n points."""
    k = n // 2
    return k - 1 if n % 2 == 0 else k
