import collections
import math
import random
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
    return CircularTuple(tuple(map(int, text)))


def whole_space(n):
    """The masks of all 2^n packed tuples at once, built here from the
    oracle's own rules: (columns, full, good, bad, weights)."""
    columns, full = oracle._columns(n), (1 << (1 << n)) - 1
    return (columns, full, oracle._good_mask(n, columns, full),
            oracle._bad_mask(n, columns, full), oracle._weights(n))


def whole_space_fixed_counts(masks, sigma):
    """fixed_counts(sigma) over the whole space, from a fresh comparator."""
    columns, full, good, bad, weights = masks
    fixed = oracle._compare(columns, full, sigma)[1]
    return ([(fixed & good & weight).bit_count() for weight in weights],
            fixed.bit_count(), (fixed & bad).bit_count())


def counting_compare(calls):
    """oracle._compare, counting its calls by element and block in calls."""
    real = oracle._compare

    def counted(columns, full, sigma):
        calls[sigma, tuple(c == full for c in columns)] += 1  # the block's top positions
        return real(columns, full, sigma)

    return counted


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
    # tuple, against the oracle's minima: exactly the minima for small n, and
    # for random tuples up to n = 20 the minimum is the one member set (the
    # order the groups are asked in is pinned by the comparator-count test)
    rng = random.Random(406)
    for n in range(3, 9):
        scan = Scan(n)
        everything = [tup(format(x, f"0{n}b")) for x in range(1 << n)]
        for kind, group in GROUPS:
            minima = {min((apply(g, a) for g in group(n)), key=lambda t: t.bits)
                      for a in everything}
            assert {a for a in everything if scan.is_minimum(a, kind)} == minima
    for n in range(9, 21):
        scan = Scan(n)
        for _ in range(5):
            a = CircularTuple(tuple(rng.randrange(2) for _ in range(n)))
            for kind, group in GROUPS:
                orbit = {apply(g, a) for g in group(n)}
                least = min(orbit, key=lambda t: t.bits)
                assert [b for b in orbit if scan.is_minimum(b, kind)] == [least]


@pytest.mark.parametrize("n, low", [(7, 16), (12, 16), (12, 4)], ids=["n7", "n12", "n12-blocks"])
def test_orbit_minima_run_each_group_element_once(monkeypatch, n, low):
    # Scan(n) compares each of the 2n elements once per block, all inside its
    # constructor (256 blocks of 16 tuples in the last case); after that no
    # question compares again, whichever group is asked first
    monkeypatch.setattr(oracle, "_LOW", low)
    calls = collections.Counter()
    monkeypatch.setattr(oracle, "_compare", counting_compare(calls))
    blocks, one = 1 << n - min(n, low), CircularTuple((0,) * (n - 1) + (1,))
    for order in (GROUPS, GROUPS[::-1]):
        scan = Scan(n)
        assert set(calls.values()) == {1} and len(calls) == 2 * n * blocks
        assert {sigma for sigma, _ in calls} == set(dihedral_group(n))
        calls.clear()
        for kind, _ in order:
            scan.orbit_count(kind)
            scan.orbit_count(kind, 5)
            assert scan.is_minimum(one, kind)
        for sigma in dihedral_group(n):
            scan.fixed_counts(sigma)
        assert not calls


def test_kept_good_fixed_counts_equal_a_fresh_comparator():
    # the fixed counts that the orbit-minima pass keeps for each element,
    # against the whole-space fixed-set mask of a comparator run for that
    # element alone: the good total, and every count of the triple
    for n in range(3, 13):
        scan, masks = Scan(n), whole_space(n)
        for sigma in dihedral_group(n):
            fixed = oracle._compare(masks[0], masks[1], sigma)[1]
            assert sum(scan.fixed_counts(sigma)[0]) == (fixed & masks[2]).bit_count()
            assert scan.fixed_counts(sigma) == whole_space_fixed_counts(masks, sigma)
    with pytest.raises(ValueError):
        Scan(8).fixed_counts(GroupElement.rotation(6, 0))


@pytest.mark.parametrize("low", [3, 4, 5])
def test_blocks_answer_as_the_whole_space(monkeypatch, low):
    # blocks of 2^low tuples, so that n = 3..12 spans up to 512 blocks: every
    # answer against whole-space masks, and each element compared once per
    # block while the scan is built
    monkeypatch.setattr(oracle, "_LOW", low)
    real, calls = oracle._compare, collections.Counter()
    counted = counting_compare(calls)
    for n in range(3, 13):
        masks, everything = whole_space(n), [tup(format(x, f"0{n}b")) for x in range(1 << n)]
        columns, full, good, _, weights = masks
        monkeypatch.setattr(oracle, "_compare", counted)
        scan = Scan(n)
        for kind, group in GROUPS[::-1] if n % 2 else GROUPS:
            least = full
            for sigma in group(n):
                less, equal = real(columns, full, sigma)
                least &= less | equal
            assert scan.orbit_count(kind) == (least & good).bit_count()
            for m in range(3, n + 1):
                assert scan.orbit_count(kind, m) == (least & good & weights[m]).bit_count()
            assert [scan.is_minimum(a, kind) for a in everything] \
                == [bool(least >> x & 1) for x in range(1 << n)]
        monkeypatch.setattr(oracle, "_compare", real)
        for sigma in dihedral_group(n):
            assert scan.fixed_counts(sigma) == whole_space_fixed_counts(masks, sigma)
        blocks = 1 << n - min(n, low)
        assert set(calls.values()) == {1} and len(calls) == 2 * n * blocks
        calls.clear()


def test_fixed_counts_reject_an_element_of_another_n():
    scan = Scan(8)
    for sigma in (GroupElement.rotation(6, 0), GroupElement.reflection(9, 2)):
        with pytest.raises(ValueError):
            scan.fixed_counts(sigma)


def test_is_minimum_copies_no_mask():
    # a probe reads one byte of the orbit minima: no copy of their 128 KB
    # at n = 20 (a shift of one int by the packed tuple would copy it)
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


def test_scan_holds_no_mask_wider_than_a_block():
    # one Scan(20) answers both groups' counts, a weighted count and a fixed
    # count in well under the 2^20-bit masks of the whole space (128 KB each):
    # the minima bytes of two groups and one block's masks at a time
    orbit_count(5, GroupKind.DIHEDRAL)  # first-call allocations outside the measure
    tracemalloc.start()
    try:
        scan = Scan(20)
        for kind in GroupKind:
            scan.orbit_count(kind)
        scan.orbit_count(GroupKind.DIHEDRAL, 9)
        scan.fixed_counts(GroupElement.reflection(20, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, f"{peak} bytes at peak"
    held = [*vars(scan).values()]
    while held:  # every int the scan keeps, however nested
        value = held.pop()
        if isinstance(value, dict):
            held += [*value.keys(), *value.values()]
        elif isinstance(value, (list, tuple)):
            held += value
        elif isinstance(value, int):
            assert value.bit_length() <= 1 << 16
        else:
            assert isinstance(value, (bytearray, GroupKind, GroupElement)), type(value)


def test_orbit_count_keeps_nothing():
    # a module-level count builds its scan and drops it: 64 KB of orbit
    # minima at n = 18, none of which may outlive the call
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
        columns, full, good_mask, bad_mask, weights = whole_space(n)
        for sigma in dihedral_group(n):
            good, every, bad = scan.fixed_counts(sigma)
            assert sum(good) + bad == every
            # per weight, with the fixed set's whole-space mask for the bad and all counts
            fixed = oracle._compare(columns, full, sigma)[1]
            assert len(good) == len(weights) == n + 1
            for m, weight in enumerate(weights):
                assert good[m] == (fixed & good_mask & weight).bit_count()
                assert good[m] + (fixed & bad_mask & weight).bit_count() \
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
        _, full, _, bad_mask, weights = whole_space(n)
        # the identity fixes every tuple, good or bad, whose weights are binomials
        good, every, bad = scan.fixed_counts(GroupElement.rotation(n, 0))
        assert every == 1 << n and bad == bad_mask.bit_count()
        for m, weight in enumerate(weights):
            assert (full & weight).bit_count() == math.comb(n, m)
            assert good[m] + (bad_mask & weight).bit_count() == math.comb(n, m)


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
