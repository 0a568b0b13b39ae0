import math
import random

import pytest

from perigon.census import count_mgons, count_mgons_cyclic
from perigon.model import CircularTuple, GroupElement, apply, cyclic_group, dihedral_group
from perigon.oracle import (
    ORACLE_MAX_N,
    GroupKind,
    TupleSet,
    canonical_form,
    fix_count_direct,
    is_orbit_minimum,
    orbit_count,
)

GROUPS = ((GroupKind.DIHEDRAL, dihedral_group), (GroupKind.CYCLIC, cyclic_group))


def tup(text):
    return CircularTuple.from_text(text)


def test_canonical_form_examples():
    ones = tup("111111")
    assert canonical_form(ones, GroupKind.DIHEDRAL) == ones
    assert canonical_form(ones, GroupKind.CYCLIC) == ones
    alt = tup("0101")
    assert canonical_form(alt, GroupKind.DIHEDRAL) == alt
    assert canonical_form(tup("11010"), GroupKind.CYCLIC) == tup("01011")


def test_canonical_form_idempotent_and_orbit_invariant():
    rng = random.Random(404)
    for n in range(3, 17):
        for _ in range(25):
            a = CircularTuple(tuple(rng.randrange(2) for _ in range(n)))
            sigma = GroupElement(n, rng.randrange(n), rng.random() < 0.5)
            for kind in GroupKind:
                c = canonical_form(a, kind)
                assert canonical_form(c, kind) == c
                if kind is GroupKind.DIHEDRAL or not sigma.is_reflection:
                    assert canonical_form(apply(sigma, a), kind) == c


def test_canonical_form_is_orbit_minimum():
    rng = random.Random(405)
    for n in (5, 8, 11):
        for _ in range(20):
            a = CircularTuple(tuple(rng.randrange(2) for _ in range(n)))
            orbit = [apply(s, a) for s in dihedral_group(n)]
            assert canonical_form(a, GroupKind.DIHEDRAL) == min(orbit, key=lambda t: t.bits)


def test_orbit_minima_mask_marks_the_explicit_minima():
    # the least of each orbit by model.apply over the whole group, tuple by
    # tuple, against the oracle's mask: exactly the minima for small n, and
    # for random tuples up to n = 20 the minimum is the one member set
    for n in range(3, 9):
        everything = [CircularTuple.from_text(format(x, f"0{n}b")) for x in range(1 << n)]
        for kind, group in GROUPS:
            minima = {min((apply(g, a) for g in group(n)), key=lambda t: t.bits)
                      for a in everything}
            assert {a for a in everything if is_orbit_minimum(a, kind)} == minima
    rng = random.Random(406)
    for n in range(9, 21):
        for _ in range(5):
            a = CircularTuple(tuple(rng.randrange(2) for _ in range(n)))
            for kind, group in GROUPS:
                orbit = {apply(g, a) for g in group(n)}
                least = min(orbit, key=lambda t: t.bits)
                assert [b for b in orbit if is_orbit_minimum(b, kind)] == [least]


def test_orbit_counts_at_n20_equal_closed_forms():
    for m in range(3, 21):
        assert orbit_count(20, GroupKind.DIHEDRAL, weight=m) == count_mgons(20, m)
        assert orbit_count(20, GroupKind.CYCLIC, weight=m) == count_mgons_cyclic(20, m)


def test_orbit_count_examples():
    assert orbit_count(12, GroupKind.DIHEDRAL, weight=4) == 16
    assert orbit_count(9, GroupKind.DIHEDRAL) == 32
    assert orbit_count(5, GroupKind.CYCLIC, weight=5) == 1


def test_fix_count_direct_examples():
    identity = GroupElement.identity(4)
    assert fix_count_direct(4, identity, TupleSet.ALL) == 16
    assert fix_count_direct(4, identity, TupleSet.GOOD) == 1
    half_turn = GroupElement.rotation(6, 3)
    assert fix_count_direct(6, half_turn, TupleSet.GOOD) == 4


def test_good_plus_bad_is_all():
    for n in range(3, 15):
        for sigma in dihedral_group(n):
            good = fix_count_direct(n, sigma, TupleSet.GOOD)
            bad = fix_count_direct(n, sigma, TupleSet.BAD)
            assert good + bad == fix_count_direct(n, sigma, TupleSet.ALL)
            for m in range(0, n + 1):
                assert (fix_count_direct(n, sigma, TupleSet.GOOD, weight=m)
                        + fix_count_direct(n, sigma, TupleSet.BAD, weight=m)
                        == fix_count_direct(n, sigma, TupleSet.ALL, weight=m))


def test_orbit_count_matches_group_average():
    # direct canonical-form counting equals the fixed-set average
    for n in range(3, 15):
        for kind, elements in ((GroupKind.DIHEDRAL, list(dihedral_group(n))),
                               (GroupKind.CYCLIC,
                                [s for s in dihedral_group(n) if not s.is_reflection])):
            total = sum(fix_count_direct(n, s, TupleSet.GOOD) for s in elements)
            assert total % len(elements) == 0
            assert orbit_count(n, kind) == total // len(elements)
            for m in range(3, n + 1):
                fixed = sum(fix_count_direct(n, s, TupleSet.GOOD, weight=m)
                            for s in elements)
                assert orbit_count(n, kind, weight=m) == fixed // len(elements)


def test_identity_weight_counts_are_binomials():
    for n in range(3, 15):
        identity = GroupElement.identity(n)
        for m in range(0, n + 1):
            assert fix_count_direct(n, identity, TupleSet.ALL, weight=m) == math.comb(n, m)


def test_scale_bound():
    with pytest.raises(ValueError):
        orbit_count(ORACLE_MAX_N + 1, GroupKind.DIHEDRAL)
    with pytest.raises(ValueError):
        orbit_count(2, GroupKind.DIHEDRAL)
    with pytest.raises(ValueError):
        canonical_form(CircularTuple((0, 1) * 14), GroupKind.DIHEDRAL)
    with pytest.raises(ValueError):
        fix_count_direct(30, GroupElement.identity(30), TupleSet.ALL)


def test_weight_filter_validation():
    assert orbit_count(8, GroupKind.DIHEDRAL, weight=2) == 0
    with pytest.raises(ValueError):
        fix_count_direct(8, GroupElement.identity(8), TupleSet.ALL, weight=9)
    with pytest.raises(ValueError):
        fix_count_direct(8, GroupElement.identity(6), TupleSet.ALL)
