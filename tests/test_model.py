import copy
import pickle
import random
from collections import Counter

import pytest

from perigon.model import (
    CircularTuple,
    ElementClass,
    ElementKind,
    GroupElement,
    GroupKind,
    apply,
    bad_block_threshold,
    classify,
    cyclic_group,
    dihedral_group,
    element_classes,
)


def tup(text):
    return CircularTuple(tuple(map(int, text)))


def permute_directly(sigma, a):
    """Scatter-style reference for the action: entry i lands at sigma(i)."""
    out = [None] * a.n
    for i, bit in enumerate(a.bits):
        out[sigma.permutes(i)] = bit
    return CircularTuple(tuple(out))


def compose(s, t):
    """The symmetry acting as t first, then s, found by searching the group."""
    return next(u for u in dihedral_group(s.n)
                if all(u.permutes(i) == s.permutes(t.permutes(i)) for i in range(s.n)))


# ---------------------------------------------------------------------------
# tuples


def test_tuple_validation():
    with pytest.raises(ValueError):
        CircularTuple((1, 0))
    with pytest.raises(ValueError):
        CircularTuple((1, 0, 2))
    # a bool or a float equals 0 or 1, but would print as 'True' or '1.0',
    # which the oracle cannot read as a bitstring
    for entry in (True, 1.0):
        with pytest.raises(ValueError, match="tuple entries must be 0 or 1"):
            CircularTuple((1, entry, 0, 1))


def test_text_round_trip():
    for text in ("101", "0000", "110100"):
        assert str(tup(text)) == text


# ---------------------------------------------------------------------------
# the records: immutable values, equal and hashed by their fields

# (record, the same fields given by keyword, a record differing in one field, repr)
RECORDS = [
    (CircularTuple((1, 0, 1)), CircularTuple(bits=(1, 0, 1)), CircularTuple((1, 1, 0)),
     "CircularTuple(bits=(1, 0, 1))"),
    (GroupElement(5, 2), GroupElement(n=5, q=2, is_reflection=False), GroupElement(5, 2, True),
     "GroupElement(n=5, q=2, is_reflection=False)"),
    (ElementClass(ElementKind.ROTATION, 3), ElementClass(kind=ElementKind.ROTATION, order=3),
     ElementClass(ElementKind.ROTATION, 4),
     "ElementClass(kind=<ElementKind.ROTATION: 'rotation'>, order=3)"),
]


def test_record_construction_and_defaults():
    a = CircularTuple((1, 0, 1))
    assert a.bits == (1, 0, 1) and a.n == 3
    sigma = GroupElement(5, 2)
    assert (sigma.n, sigma.q, sigma.is_reflection) == (5, 2, False)
    assert GroupElement(5, 2, is_reflection=True).is_reflection is True
    cls = ElementClass(ElementKind.IDENTITY)
    assert (cls.kind, cls.order) == (ElementKind.IDENTITY, None)
    assert ElementClass(ElementKind.ROTATION, order=6).order == 6


@pytest.mark.parametrize("record, same, other, text", RECORDS)
def test_record_equality_hash_and_repr(record, same, other, text):
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other and not record == other
    assert len({record, same, other}) == 2
    assert repr(record) == text


def test_records_differ_across_classes():
    assert GroupElement(5, 2) != ElementClass(ElementKind.ROTATION, 5)
    assert CircularTuple((1, 0, 1)) != (1, 0, 1)
    assert GroupElement(5, 2) != (5, 2, False)
    assert ElementClass(ElementKind.IDENTITY) != (ElementKind.IDENTITY, None)


@pytest.mark.parametrize("record, same, other, text", RECORDS)
def test_records_are_immutable(record, same, other, text):
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == same


@pytest.mark.parametrize("record, same, other, text", RECORDS)
def test_records_survive_pickle_and_copy(record, same, other, text):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == text


@pytest.mark.parametrize("build, message", [
    (lambda: CircularTuple((1, 0)), "circular tuples need at least 3 positions"),
    (lambda: CircularTuple((1, 0, 2)), "tuple entries must be 0 or 1"),
    (lambda: GroupElement(2, 0), "perimeter must be at least 3, got 2"),
    (lambda: GroupElement(5, 5), "offset 5 not reduced mod 5"),
    (lambda: GroupElement(5, -1, True), "offset -1 not reduced mod 5"),
    (lambda: ElementClass(ElementKind.ROTATION),
     "exactly the non-trivial rotation classes carry an order"),
    (lambda: ElementClass(ElementKind.REFLECTION_ODD, 2),
     "exactly the non-trivial rotation classes carry an order"),
    (lambda: ElementClass(ElementKind.ROTATION, 1), "rotation classes have order >= 2"),
    # field types: ints that are not bools, a bool flag, a tuple of bits
    (lambda: CircularTuple([0, 1, 1]), "tuple bits must be a tuple, got list"),
    (lambda: GroupElement(5, 2.0), "n and q must be ints and is_reflection a bool"),
    (lambda: GroupElement(5, True), "n and q must be ints and is_reflection a bool"),
    (lambda: GroupElement(5.0, 2), "n and q must be ints and is_reflection a bool"),
    (lambda: GroupElement(5, 2, 1), "n and q must be ints and is_reflection a bool"),
    (lambda: ElementClass(ElementKind.ROTATION, 2.0),
     "a class takes an ElementKind and an int order or None"),
    (lambda: ElementClass(ElementKind.ROTATION, True),
     "a class takes an ElementKind and an int order or None"),
    (lambda: ElementClass("rotation", 2), "a class takes an ElementKind and an int order or None"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# the action


def test_apply_identity():
    a = tup("101100")
    assert apply(GroupElement.rotation(6, 0), a) == a


def test_apply_rotation_shift():
    a = tup("1000")
    assert str(apply(GroupElement.rotation(4, 1), a)) == "0100"


def test_apply_reflection_example():
    a = tup("11000")
    assert str(apply(GroupElement.reflection(5, 0), a)) == "10001"


def test_apply_rejects_size_mismatch():
    with pytest.raises(ValueError):
        apply(GroupElement.rotation(5, 1), tup("1010"))


def test_apply_matches_direct_permutation():
    rng = random.Random(11)
    for n in range(3, 17):
        for _ in range(20):
            a = CircularTuple(tuple(rng.randrange(2) for _ in range(n)))
            sigma = GroupElement(n, rng.randrange(n), rng.random() < 0.5)
            assert apply(sigma, a) == permute_directly(sigma, a)


def test_action_law():
    rng = random.Random(23)
    for n in range(3, 17):
        elems = list(dihedral_group(n))
        for _ in range(40):
            s, t = rng.choice(elems), rng.choice(elems)
            a = CircularTuple(tuple(rng.randrange(2) for _ in range(n)))
            assert apply(compose(s, t), a) == apply(s, apply(t, a))
            assert apply(GroupElement.rotation(n, 0), a) == a


def element_order(sigma):
    """The order of sigma as classify reports it: 1 for the identity, the
    order of a rotation class, 2 for a reflection."""
    cls = classify(sigma)
    if cls.kind is ElementKind.IDENTITY:
        return 1
    return cls.order if cls.kind is ElementKind.ROTATION else 2


def test_inverse_and_order():
    for n in (5, 8, 12):
        for sigma in dihedral_group(n):
            assert compose(sigma, sigma.inverse()) == GroupElement.rotation(n, 0)
            d = element_order(sigma)
            acc = GroupElement.rotation(n, 0)
            for k in range(1, d + 1):
                acc = compose(sigma, acc)
                assert (acc == GroupElement.rotation(n, 0)) == (k == d)


def test_element_order_examples():
    assert element_order(GroupElement.rotation(9, 0)) == 1
    assert element_order(GroupElement.rotation(12, 4)) == 3
    assert element_order(GroupElement.reflection(12, 5)) == 2


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify(GroupElement.reflection(12, 2)) == ElementClass(
        ElementKind.REFLECTION_EVEN_TWO_FIXED_POINTS)
    assert classify(GroupElement.reflection(12, 3)) == ElementClass(
        ElementKind.REFLECTION_EVEN_NO_FIXED_POINT)
    assert classify(GroupElement.reflection(13, 7)) == ElementClass(ElementKind.REFLECTION_ODD)
    assert classify(GroupElement.rotation(9, 0)) == ElementClass(ElementKind.IDENTITY)
    assert classify(GroupElement.rotation(12, 4)) == ElementClass(ElementKind.ROTATION, 3)


def test_classify_matches_fixed_point_count():
    for n in range(3, 20):
        for q in range(n):
            sigma = GroupElement.reflection(n, q)
            cls = classify(sigma)
            fixed = sum(1 for i in range(n) if sigma.permutes(i) == i)
            if n % 2 == 1:
                assert cls == ElementClass(ElementKind.REFLECTION_ODD) and fixed == 1
            elif cls == ElementClass(ElementKind.REFLECTION_EVEN_TWO_FIXED_POINTS):
                assert fixed == 2
            else:
                assert fixed == 0


def test_classify_partitions_group():
    for n in range(3, 16):
        classes = [classify(s) for s in dihedral_group(n)]
        rotations = [c for c in classes if c.kind in (ElementKind.IDENTITY, ElementKind.ROTATION)]
        reflections = [c for c in classes if c not in rotations]
        assert len(rotations) == n and len(reflections) == n
        if n % 2 == 1:
            assert all(c == ElementClass(ElementKind.REFLECTION_ODD) for c in reflections)
        else:
            two = sum(1 for c in reflections
                      if c == ElementClass(ElementKind.REFLECTION_EVEN_TWO_FIXED_POINTS))
            assert two == n // 2 and len(reflections) - two == n // 2


def test_element_classes_count_the_group():
    elements = {GroupKind.CYCLIC: cyclic_group, GroupKind.DIHEDRAL: dihedral_group}
    for n in range(3, 61):
        for group, generate in elements.items():
            assert Counter(classify(s) for s in generate(n)) == dict(element_classes(n, group))
    with pytest.raises(ValueError):
        element_classes(2, GroupKind.DIHEDRAL)


def test_element_class_validation():
    with pytest.raises(ValueError):
        ElementClass(ElementKind.ROTATION)
    with pytest.raises(ValueError):
        ElementClass(ElementKind.IDENTITY, 2)
    with pytest.raises(ValueError):
        ElementClass(ElementKind.ROTATION, 1)


def test_bad_block_threshold():
    assert bad_block_threshold(10) == 4
    assert bad_block_threshold(11) == 5
    assert bad_block_threshold(3) == 1


def test_group_generators():
    assert len(list(cyclic_group(7))) == 7
    assert len(list(dihedral_group(7))) == 14
    assert all(not s.is_reflection for s in cyclic_group(9))


@pytest.mark.parametrize("n", [-3, -1, 0, 1, 2])
@pytest.mark.parametrize("build", [
    lambda n: GroupElement.rotation(n, 0), lambda n: GroupElement.reflection(n, 0),
    lambda n: list(cyclic_group(n)), lambda n: list(dihedral_group(n))],
    ids=["rotation", "reflection", "cyclic-group", "dihedral-group"])
def test_small_circles_raise_the_constructors_error(build, n):
    # no ZeroDivisionError from q % n at n = 0, and no empty group for n < 0
    with pytest.raises(ValueError, match=f"^perimeter must be at least 3, got {n}$"):
        build(n)
