import math
import random
import sys
import tracemalloc

import pytest

from perigon import oracle
from perigon.census import count_mgons, count_polygons
from perigon.model import (
    CircularTuple,
    GroupElement,
    GroupKind,
    apply,
    cyclic_group,
    dihedral_group,
)
from perigon.oracle import ORACLE_MAX_N, Scan, canonical_form, orbit_count

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
    # for random tuples up to n = 20 the minimum is the one member set; each
    # group is asked for first once, since the dihedral mask reads the cyclic one
    rng = random.Random(406)
    for order in (GROUPS, GROUPS[::-1]):
        for n in range(3, 9):
            scan = Scan(n)
            everything = [CircularTuple.from_text(format(x, f"0{n}b")) for x in range(1 << n)]
            for kind, group in order:
                minima = {min((apply(g, a) for g in group(n)), key=lambda t: t.bits)
                          for a in everything}
                assert {a for a in everything if scan.is_minimum(a, kind)} == minima
        for n in range(9, 21):
            scan = Scan(n)
            for _ in range(5):
                a = CircularTuple(tuple(rng.randrange(2) for _ in range(n)))
                for kind, group in order:
                    orbit = {apply(g, a) for g in group(n)}
                    least = min(orbit, key=lambda t: t.bits)
                    assert [b for b in orbit if scan.is_minimum(b, kind)] == [least]


@pytest.mark.parametrize("groups, compares", [
    ((GroupKind.CYCLIC,), 1), ((GroupKind.DIHEDRAL,), 2),
    ((GroupKind.DIHEDRAL, GroupKind.CYCLIC), 2), ((GroupKind.CYCLIC, GroupKind.DIHEDRAL), 2)],
    ids=["cyclic", "dihedral", "dihedral-then-cyclic", "cyclic-then-dihedral"])
def test_orbit_minima_run_each_group_element_once(monkeypatch, groups, compares):
    # the rotations run once for both groups; a cyclic count stops after them
    calls = []
    real = oracle._compare
    monkeypatch.setattr(oracle, "_compare", lambda *args: calls.append(args[2]) or real(*args))
    for n in (7, 12):
        scan = Scan(n)
        for kind in groups:
            scan.orbit_count(kind)
        assert len(calls) == compares * n and len(set(calls)) == len(calls)
        calls.clear()


@pytest.mark.parametrize("order", [GROUPS, GROUPS[::-1]], ids=["dihedral-first", "cyclic-first"])
def test_kept_good_fixed_counts_equal_a_fresh_comparator(order):
    # the good fixed count that the orbit-minima pass keeps for each element,
    # against the fixed-set mask of a comparator run for that element alone
    # and against the sum of fixed_counts' per-weight good counts
    for n in range(3, 13):
        scan = Scan(n)
        for kind, _ in order:
            scan.orbit_count(kind)
        for sigma in dihedral_group(n):
            fixed = oracle._compare(scan._columns, scan._full, sigma)[1]
            assert scan.fixed_good_count(sigma) == (fixed & scan._good).bit_count()
            assert scan.fixed_good_count(sigma) == sum(scan.fixed_counts(sigma)[0])
    with pytest.raises(ValueError):
        Scan(8).fixed_good_count(GroupElement.rotation(6, 0))


def test_fixed_counts_reject_an_element_of_another_n():
    scan = Scan(8)
    for sigma in (GroupElement.rotation(6, 0), GroupElement.reflection(9, 2)):
        with pytest.raises(ValueError):
            scan.fixed_counts(sigma)


def test_is_minimum_copies_no_mask():
    # a probe reads one byte of the orbit minima: no copy of the 128 KB mask
    # at n = 20 (a shift of the mask by the packed tuple would copy it)
    scan = Scan(20)
    one = CircularTuple((0,) * 19 + (1,))  # packed value 1
    for kind in GroupKind:
        scan.is_minimum(one, kind)  # builds the minima outside the measure
    tracemalloc.start()
    try:
        for kind in GroupKind:
            for _ in range(10):
                assert scan.is_minimum(one, kind)  # the least of its orbit
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, f"{peak} bytes at peak"


def test_unweighted_counts_build_no_weight_or_bad_masks(monkeypatch):
    # the weight masks are built for the first weighted count and the bad
    # mask for the first fixed count; an unweighted orbit count builds neither.
    # A held scan gains the weight masks' size with its first weighted count,
    # and the peak of a weighted count is above an unweighted one's by most
    # of it: the minima pass's own temporaries set the unweighted peak
    weights = sum(map(sys.getsizeof, oracle._weights(18)))
    monkeypatch.setattr(oracle, "_bad_mask", None)  # a call would fail
    orbit_count(5, GroupKind.DIHEDRAL)  # first-call allocations outside the measure
    for kind in GroupKind:
        peaks = []
        for weight in (None, 9):
            tracemalloc.start()
            try:
                orbit_count(18, kind, weight)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] >= weights // 2, (kind, peaks, weights)
        tracemalloc.start()
        try:
            scan = Scan(18)
            scan.orbit_count(kind)
            unweighted = tracemalloc.get_traced_memory()[0]
            scan.orbit_count(kind, 9)
            weighted = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert weighted - unweighted >= weights, (kind, unweighted, weighted, weights)


def test_orbit_count_keeps_nothing():
    # a module-level count builds its scan and drops it: about 1.3 MB of
    # masks at n = 18, none of which may outlive the call
    orbit_count(5, GroupKind.DIHEDRAL)  # first-call allocations outside the measure
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert orbit_count(18, GroupKind.DIHEDRAL) == count_polygons(18)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024, f"{kept} bytes kept after the call"


def test_orbit_counts_at_n20_equal_closed_forms():
    scan = Scan(20)
    for m in range(3, 21):
        for group in GroupKind:
            assert scan.orbit_count(group, weight=m) == count_mgons(20, m, group)


def test_orbit_count_examples():
    assert orbit_count(12, GroupKind.DIHEDRAL, weight=4) == 16
    assert orbit_count(9, GroupKind.DIHEDRAL) == 32
    assert orbit_count(5, GroupKind.CYCLIC, weight=5) == 1


def test_fixed_mask_counts_examples():
    good, every, bad = Scan(4).fixed_counts(GroupElement.rotation(4, 0))
    assert (good, every, bad) == ([0, 0, 0, 0, 1], 16, 15)
    assert sum(Scan(6).fixed_counts(GroupElement.rotation(6, 3))[0]) == 4


def test_good_plus_bad_is_all():
    for n in range(3, 15):
        scan = Scan(n)
        weights = oracle._weights(n)
        for sigma in dihedral_group(n):
            good, every, bad = scan.fixed_counts(sigma)
            assert sum(good) + bad == every
            # per weight, with the fixed set's mask for the bad and all counts
            fixed = oracle._compare(scan._columns, scan._full, sigma)[1]
            assert len(good) == len(weights) == n + 1
            for m, weight in enumerate(weights):
                assert good[m] == (fixed & scan._good & weight).bit_count()
                assert good[m] + (fixed & scan._bad & weight).bit_count() \
                    == (fixed & weight).bit_count()


def test_orbit_count_matches_group_average():
    # direct canonical-form counting equals the fixed-set average
    for n in range(3, 15):
        scan = Scan(n)
        for kind, elements in ((GroupKind.DIHEDRAL, list(dihedral_group(n))),
                               (GroupKind.CYCLIC,
                                [s for s in dihedral_group(n) if not s.is_reflection])):
            good = [scan.fixed_counts(s)[0] for s in elements]
            total = sum(map(sum, good))
            assert total % len(elements) == 0
            assert scan.orbit_count(kind) == total // len(elements)
            for m in range(3, n + 1):
                total = sum(g[m] for g in good)
                assert scan.orbit_count(kind, weight=m) == total // len(elements)


def test_identity_weight_counts_are_binomials():
    for n in range(3, 15):
        scan = Scan(n)
        # the identity fixes every tuple, good or bad, whose weights are binomials
        good, every, bad = scan.fixed_counts(GroupElement.rotation(n, 0))
        assert every == 1 << n and bad == scan._bad.bit_count()
        for m, weight in enumerate(oracle._weights(n)):
            assert (scan._full & weight).bit_count() == math.comb(n, m)
            assert good[m] + (scan._bad & weight).bit_count() == math.comb(n, m)


def test_scale_bound():
    with pytest.raises(ValueError):
        orbit_count(ORACLE_MAX_N + 1, GroupKind.DIHEDRAL)
    with pytest.raises(ValueError):
        orbit_count(2, GroupKind.DIHEDRAL)
    with pytest.raises(ValueError):
        canonical_form(CircularTuple((0, 1) * 14), GroupKind.DIHEDRAL)
    with pytest.raises(ValueError):
        Scan(30)
    with pytest.raises(ValueError):
        Scan(2)


def test_weight_filter_validation():
    assert orbit_count(8, GroupKind.DIHEDRAL, weight=2) == 0
    scan = Scan(8)
    assert scan.orbit_count(GroupKind.DIHEDRAL, weight=9) == 0
    assert scan.orbit_count(GroupKind.DIHEDRAL, weight=2) == 0
    with pytest.raises(ValueError):
        scan.is_minimum(tup("0101"), GroupKind.DIHEDRAL)
