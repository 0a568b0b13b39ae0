import copy
import itertools
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
    NotAPolygonError,
    SideLengths,
    apply,
    bad_block_threshold,
    classify,
    cyclic_group,
    dihedral_group,
    element_classes,
    element_order,
    is_good,
    to_sides,
    weight,
    zero_blocks,
)


def tup(text):
    return CircularTuple.from_text(text)


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
    with pytest.raises(ValueError):
        CircularTuple.from_text("10x")


def test_text_round_trip():
    for text in ("101", "0000", "110100"):
        assert str(tup(text)) == text


def test_ones_positions():
    assert tup("1011000100").ones() == (0, 2, 3, 7)
    assert tup("0000").ones() == ()


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
    (SideLengths((2, 3, 4)), SideLengths(sides=(2, 3, 4)), SideLengths((3, 3, 3)),
     "SideLengths(sides=(2, 3, 4))"),
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
    sides = SideLengths(sides=(2, 3, 4))
    assert (sides.sides, sides.m, sides.perimeter) == ((2, 3, 4), 3, 9)


@pytest.mark.parametrize("record, same, other, text", RECORDS)
def test_record_equality_hash_and_repr(record, same, other, text):
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other and not record == other
    assert len({record, same, other}) == 2
    assert repr(record) == text


def test_records_differ_across_classes():
    assert CircularTuple((1, 1, 1)) != SideLengths((1, 1, 1))
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
    (lambda: GroupElement(2, 0), "the circle needs at least 3 points"),
    (lambda: GroupElement(5, 5), "offset 5 not reduced mod 5"),
    (lambda: GroupElement(5, -1, True), "offset -1 not reduced mod 5"),
    (lambda: ElementClass(ElementKind.ROTATION),
     "exactly the non-trivial rotation classes carry an order"),
    (lambda: ElementClass(ElementKind.REFLECTION_ODD, 2),
     "exactly the non-trivial rotation classes carry an order"),
    (lambda: ElementClass(ElementKind.ROTATION, 1), "rotation classes have order >= 2"),
    (lambda: SideLengths((1, 1)), "a polygon has at least 3 sides"),
    (lambda: SideLengths((1, 1, 2)),
     "each side must be a positive integer below half the perimeter"),
    (lambda: SideLengths((0, 1, 1, 1)),
     "each side must be a positive integer below half the perimeter"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# the action


def test_apply_identity():
    a = tup("101100")
    assert apply(GroupElement.identity(6), a) == a


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
            assert apply(GroupElement.identity(n), a) == a


def test_action_preserves_weight_and_goodness():
    # exhaustive over all tuples and all symmetries for small circles
    for n in range(3, 13):
        elems = list(dihedral_group(n))
        for bits in itertools.product((0, 1), repeat=n):
            a = CircularTuple(bits)
            w, g = weight(a), is_good(a)
            for sigma in elems:
                b = apply(sigma, a)
                assert weight(b) == w
                assert is_good(b) == g


def test_inverse_and_order():
    for n in (5, 8, 12):
        for sigma in dihedral_group(n):
            assert compose(sigma, sigma.inverse()) == GroupElement.identity(n)
            d = element_order(sigma)
            acc = GroupElement.identity(n)
            for k in range(1, d + 1):
                acc = compose(sigma, acc)
                assert (acc == GroupElement.identity(n)) == (k == d)


def test_element_order_examples():
    assert element_order(GroupElement.rotation(9, 0)) == 1
    assert element_order(GroupElement.rotation(12, 4)) == 3
    assert element_order(GroupElement.reflection(12, 5)) == 2


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify(GroupElement.reflection(12, 2)) == ElementClass.reflection_even_two_fixed_points()
    assert classify(GroupElement.reflection(12, 3)) == ElementClass.reflection_even_no_fixed_point()
    assert classify(GroupElement.reflection(13, 7)) == ElementClass.reflection_odd()
    assert classify(GroupElement.identity(9)) == ElementClass.identity()
    assert classify(GroupElement.rotation(12, 4)) == ElementClass.rotation(3)


def test_classify_matches_fixed_point_count():
    for n in range(3, 20):
        for q in range(n):
            sigma = GroupElement.reflection(n, q)
            cls = classify(sigma)
            fixed = sum(1 for i in range(n) if sigma.permutes(i) == i)
            if n % 2 == 1:
                assert cls == ElementClass.reflection_odd() and fixed == 1
            elif cls == ElementClass.reflection_even_two_fixed_points():
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
            assert all(c == ElementClass.reflection_odd() for c in reflections)
        else:
            two = sum(1 for c in reflections
                      if c == ElementClass.reflection_even_two_fixed_points())
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
        ElementClass.rotation(1)


# ---------------------------------------------------------------------------
# goodness, weight, sides


def test_is_good_examples():
    assert is_good(tup("1011000100"))
    assert not is_good(tup("0011000100"))
    assert is_good(tup("11111"))
    assert not is_good(tup("00000"))


def test_weight_examples():
    assert weight(tup("0000000")) == 0
    assert weight(tup("1011000100")) == 4
    assert weight(tup("111111")) == 6


def test_zero_blocks_wraps():
    assert sorted(zero_blocks(tup("1011000100"))) == [1, 2, 3]
    assert sorted(zero_blocks(tup("0011000100"))) == [3, 4]
    assert zero_blocks(tup("0000")) == [4]
    assert zero_blocks(tup("1111")) == []


def test_to_sides_examples():
    assert to_sides(tup("1011000100")).sides == (2, 1, 4, 3)
    assert to_sides(tup("11111")).sides == (1, 1, 1, 1, 1)
    with pytest.raises(NotAPolygonError):
        to_sides(tup("0011000100"))
    with pytest.raises(NotAPolygonError):
        to_sides(tup("110000"))


def test_goodness_matches_side_gap_characterisation():
    # a zero run of length l is a side of length l+1; good means all gaps < n/2
    for n in range(3, 13):
        for bits in itertools.product((0, 1), repeat=n):
            a = CircularTuple(bits)
            ones = a.ones()
            if len(ones) >= 3:
                gaps = [b - x for x, b in zip(ones, ones[1:])]
                gaps.append(n - ones[-1] + ones[0])
                assert is_good(a) == all(2 * g < n for g in gaps)
                if is_good(a):
                    s = to_sides(a)
                    assert s.m == weight(a)
                    assert s.perimeter == n
                    assert sorted(g - 1 for g in gaps if g > 1) == sorted(zero_blocks(a))
            else:
                assert not is_good(a)


def test_bad_block_threshold():
    assert bad_block_threshold(10) == 4
    assert bad_block_threshold(11) == 5
    assert bad_block_threshold(3) == 1


def test_group_generators():
    assert len(list(cyclic_group(7))) == 7
    assert len(list(dihedral_group(7))) == 14
    assert all(not s.is_reflection for s in cyclic_group(9))
