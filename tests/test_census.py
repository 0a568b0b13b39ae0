from fractions import Fraction

import pytest

from perigon import census
from perigon.numtheory import divisors, totient
from perigon.oracle import GroupKind, orbit_count


def test_count_mgons_examples():
    assert census.count_mgons(12, 3) == 3
    assert census.count_mgons(8, 4) == 5
    assert census.count_mgons(20, 10) == 4746
    assert census.count_mgons(7, 2) == 0


def test_count_mgons_degenerate_is_zero():
    assert census.count_mgons(10, 11) == 0
    assert census.count_mgons(2, 3) == 0
    assert census.count_mgons(5, 0) == 0
    assert census.count_mgons(5, -1) == 0


def test_every_route_is_zero_on_degenerate_m():
    for n in (3, 4, 7, 10, 12):
        for m in (0, 1, 2, n + 1):
            assert census.count_mgons(n, m) == 0
            assert census.count_mgons_cyclic(n, m) == 0
            assert census.count_mgons_via_burnside(n, m) == 0
            assert census.count_mgons_via_burnside(n, m, GroupKind.CYCLIC) == 0
            assert orbit_count(n, GroupKind.DIHEDRAL, weight=m) == 0
            assert orbit_count(n, GroupKind.CYCLIC, weight=m) == 0


def test_count_polygons_examples():
    assert census.count_polygons(3) == 1
    assert census.count_polygons(10) == 54
    assert census.count_polygons(20) == 26452


def test_count_polygons_rejects_small_n():
    with pytest.raises(ValueError):
        census.count_polygons(2)
    with pytest.raises(ValueError):
        census.count_polygons_cyclic(2)


def test_burnside_assembly_examples():
    assert census.count_mgons_via_burnside(12, 4) == 16 == census.count_mgons(12, 4)
    assert census.count_polygons_via_burnside(9) == 32 == census.count_polygons(9)
    assert census.count_mgons_via_burnside(6, 6) == 1


def test_burnside_assembly_rejects_bad_input():
    with pytest.raises(ValueError):
        census.count_polygons_via_burnside(2)
    with pytest.raises(ValueError):
        census.count_polygons_via_burnside(2, GroupKind.CYCLIC)
    assert census.count_mgons_via_burnside(10, 2) == 0
    assert census.count_mgons_via_burnside(10, 11) == 0


def test_closed_forms_equal_burnside_assembly():
    routes = ((GroupKind.DIHEDRAL, census.count_polygons, census.count_mgons),
              (GroupKind.CYCLIC, census.count_polygons_cyclic, census.count_mgons_cyclic))
    for group, polygons, mgons in routes:
        # the shifted powers of two at large n, in every residue of n mod 4
        for n in (*range(3, 201), *range(10**5, 10**5 + 4)):
            assert polygons(n) == census.count_polygons_via_burnside(n, group)
        for n in range(3, 201):
            for m in range(3, n + 1):
                assert mgons(n, m) == census.count_mgons_via_burnside(n, m, group)
    # the per-perimeter evaluation, cell by cell, over every n mod 4 and both parities of m
    columns = dict(census.mgon_columns(200))
    assert list(columns) == list(range(3, 201))
    for n, column in columns.items():
        assert column == [census.count_mgons(n, m) for m in range(3, n + 1)] == \
            [census.count_mgons_via_burnside(n, m) for m in range(3, n + 1)]
    # small max_n, where the kept Pascal rows stop at max_n // 2 = 1, 2, 2, 3
    for k in (3, 4, 5, 6):
        assert list(census.mgon_columns(k)) == list(columns.items())[:k - 2]
    assert list(census.mgon_columns(2)) == []


def test_polygon_values_equal_single_counts():
    # one run over every residue of n mod 4, against the assembly route and
    # against runs of one n, whose sieve has one divisor list to fill
    routes = ((GroupKind.DIHEDRAL, census.count_polygons),
              (GroupKind.CYCLIC, census.count_polygons_cyclic))
    for group, single in routes:
        cyclic = group is GroupKind.CYCLIC
        run = list(census.polygon_values(3, 1000, cyclic))
        assert run == [census.count_polygons_via_burnside(n, group) for n in range(3, 1001)]
        assert run == [single(n) for n in range(3, 1001)]
        for start, end in ((3, 3), (4, 4), (97, 97), (500, 500), (17, 40), (64, 100)):
            assert list(census.polygon_values(start, end, cyclic)) == run[start - 3:end - 2], \
                (start, end, cyclic)
        assert list(census.polygon_values(10, 9, cyclic)) == []
        assert list(census.polygon_values(3, -5, cyclic)) == []
        with pytest.raises(ValueError) as single_error:
            single(2)
        with pytest.raises(ValueError) as run_error:
            census.polygon_values(2, 10, cyclic)
        assert str(run_error.value) == str(single_error.value)


def test_polygon_decimal_equals_int_counts(unlimited_int_str):
    # the same run in exact decimal: below, at and above 2^15 bits, in every
    # residue of n mod 4, under both groups
    for cyclic, single in ((False, census.count_polygons), (True, census.count_polygons_cyclic)):
        for n in (*range(3, 60), *range(2**15, 2**15 + 4), *range(10**5, 10**5 + 4)):
            assert str(census.polygon_decimal(n, cyclic)) == str(single(n)), (n, cyclic)
        with pytest.raises(ValueError, match="at least 3"):
            census.polygon_decimal(2, cyclic)


def test_skewed_totient_fails_both_polygon_routes(monkeypatch):
    # phi(2) = 2 adds 2^(n/2) to the rotation sum of an even n, which the
    # group order does not divide: both number types must stop, not round
    real = census.totient
    monkeypatch.setattr(census, "totient", lambda d: real(d) + (d == 2))
    for n in (20, 40_000):
        with pytest.raises(census.InternalError, match=rf"polygon rotation sum \(n={n}\) \(\d+ bits\)"):
            census.count_polygons(n)
        with pytest.raises(census.InternalError, match=rf"\(n={n}\) \(\d+ digits\)"):
            census.polygon_decimal(n)
        with pytest.raises(census.InternalError, match=rf"cyclic rotation sum \(n={n}\)"):
            census.polygon_decimal(n, cyclic=True)


def test_exact_div_reports_the_size_not_the_value():
    # a numerator past the int-to-str digit limit must not mask the self-check
    with pytest.raises(census.InternalError, match=r"x \(20001 bits\) leaves remainder 1 modulo 2"):
        census._exact_div((1 << 20000) | 1, 2, "x")


def test_row_sums_recover_polygon_count():
    for n in range(3, 201):
        assert sum(census.count_mgons(n, m) for m in range(3, n + 1)) == \
            census.count_polygons(n)


def test_unsimplified_average_matches_closed_form():
    # the raw group average before the half-integer tails cancel; evaluating
    # it with exact rationals must land on the simplified closed form
    for n in range(3, 201):
        total = sum(Fraction(totient(d) * (2**(n // d) - 1), 2 * n)
                    for d in divisors(n))
        total -= 2**(n // 2 - 1)
        r = n % 4
        if r == 0:
            total += 3 * 2**((n - 4) // 2) - 3 * 2**((n - 4) // 4) + Fraction(1, 2)
        elif r == 1:
            total += 2**((n - 1) // 2) - 3 * 2**((n - 5) // 4) + Fraction(1, 2)
        elif r == 2:
            total += 3 * 2**((n - 4) // 2) - 2**((n + 2) // 4) + Fraction(1, 2)
        else:
            total += 2**((n - 1) // 2) - 2**((n + 1) // 4) + Fraction(1, 2)
        assert total == census.count_polygons(n)


def test_counts_equal_oracle_orbits():
    for n in range(3, 19):
        assert census.count_polygons(n) == orbit_count(n, GroupKind.DIHEDRAL)
        for m in range(3, n + 1):
            assert census.count_mgons(n, m) == orbit_count(n, GroupKind.DIHEDRAL, weight=m)


def test_cyclic_counts_equal_oracle_orbits():
    for n in range(3, 15):
        assert census.count_polygons_cyclic(n) == orbit_count(n, GroupKind.CYCLIC)
        for m in range(3, n + 1):
            assert census.count_mgons_cyclic(n, m) == orbit_count(n, GroupKind.CYCLIC, weight=m)


# ---------------------------------------------------------------------------
# rotation-only equivalence


def test_cyclic_examples():
    assert census.count_mgons_cyclic(12, 3) == 4
    # 6 orbits: 3311, 3131, 3221, 3212, 3122, 2222 as cyclic side sequences
    assert census.count_mgons_cyclic(8, 4) == 6
    for n in range(5, 11):
        assert census.count_mgons_cyclic(n, n) == 1
    assert census.count_polygons_cyclic(3) == 1
    assert census.count_polygons_cyclic(10) == 75


def test_cyclic_between_one_and_two_dihedral_counts():
    # dropping reversals splits each orbit into at most two
    for n in range(3, 61):
        pn = census.count_polygons(n)
        assert pn <= census.count_polygons_cyclic(n) <= 2 * pn
        for m in range(3, n + 1):
            pmn = census.count_mgons(n, m)
            assert pmn <= census.count_mgons_cyclic(n, m) <= 2 * pmn


# ---------------------------------------------------------------------------
# nearest-integer rules


def test_triangles_nearest_examples():
    assert census.triangles_nearest(12) == 3
    assert census.triangles_nearest(15) == 7
    assert census.triangles_nearest(3) == 1
    with pytest.raises(ValueError):
        census.triangles_nearest(0)


def test_triangles_nearest_agrees_with_census():
    for n in range(3, 2001):
        assert census.triangles_nearest(n) == census.count_mgons(n, 3)


def test_quadrilaterals_nearest_examples():
    assert census.quadrilaterals_nearest(6) == 2
    assert census.quadrilaterals_nearest(13) == 22
    assert census.quadrilaterals_nearest(20) == 75
    assert census.quadrilaterals_piecewise(6) == 2


def test_quadrilaterals_agree_with_census():
    for n in range(4, 2001):
        expected = census.count_mgons(n, 4)
        assert census.quadrilaterals_nearest(n) == expected
        assert census.quadrilaterals_piecewise(n) == expected


def test_nearest_rules_never_hit_half_integers():
    for n in range(1, 1001):
        census.triangles_nearest(n)
        census.quadrilaterals_nearest(n)


# ---------------------------------------------------------------------------
# integrality and growth


def test_rotation_sum_is_divisible():
    for n in range(3, 2001):
        total = sum(totient(d) * 2**(n // d - 1) for d in divisors(n))
        assert total % n == 0


def test_asymptotic_coefficients():
    assert census.asymptotic_mgon_coefficient(5) == Fraction(11, 3840)
    assert census.asymptotic_mgon_coefficient(6) == Fraction(13, 23040)
    assert census.asymptotic_mgon_coefficient(7) == Fraction(19, 215040)
    assert census.asymptotic_mgon_coefficient(8) == Fraction(1, 86016)
    assert census.asymptotic_mgon_coefficient(9) == Fraction(247, 185794560)
    assert census.asymptotic_mgon_coefficient(10) == Fraction(251, 1857945600)


def test_asymptotic_values():
    assert census.asymptotic_polygons(4) == 2
    assert census.asymptotic_mgons(5, 10) == Fraction(11, 3840) * 10**4
    with pytest.raises(ValueError):
        census.asymptotic_polygons(2)
    with pytest.raises(ValueError):
        census.asymptotic_mgon_coefficient(2)
