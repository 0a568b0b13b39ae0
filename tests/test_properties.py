"""Property tests of the census: random draws, derandomised so that every run
checks the same cases."""

import decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from perigon import census
from perigon.model import GroupKind

CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

groups = st.sampled_from(list(GroupKind))


@st.composite
def perimeters_and_sides(draw, top=10**5):
    """(n, m) with 3 <= n <= top and 0 <= m <= n + 1, uniform over that
    range, or, in half the draws, with a factor g <= 60 shared by n and m, so
    that the rotation sums have many terms.  The integers come from a
    random.Random seeded by the draw: hypothesis's own integers favour small
    values, and most of 100 draws had n below 10^4."""
    rng = draw(st.randoms(use_true_random=True))
    g = draw(st.sampled_from([1, rng.randint(2, 60)]))
    n = g * rng.randint(-(-3 // g), top // g)
    m = g * rng.randint(0, n // g) if g > 1 else rng.randint(0, n + 1)
    return n, m


def test_closed_count_prints_the_int_count(unlimited_int_str):
    # closed_count's int or Decimal, printed by decimal_text, is the text of
    # the int closed form, with draws on both sides of the route rule: a
    # polygon count is a Decimal above n = 32,768, and an m-gon count near
    # m = n / 2 when log2 C(n, m) is above 32,768 bits
    seen = set()

    @CHECKS
    @given(st.integers(32_700, 33_100), st.one_of(st.none(), st.integers(-1200, 1200)), groups)
    def check(n, offset, group):
        if offset is None:
            value, expected = census.closed_count(n, None, group), census.count_polygons(n, group)
        else:
            m = n // 2 + offset
            value, expected = census.closed_count(n, m, group), census.count_mgons(n, m, group)
        seen.add((offset is None, type(value)))
        assert census.decimal_text(value) == str(expected)

    check()
    assert {kind for polygons, kind in seen if not polygons} == {int, decimal.Decimal}
    assert {kind for polygons, kind in seen if polygons} == {int, decimal.Decimal}


@settings(CHECKS, max_examples=100)
@given(perimeters_and_sides(), groups)
def test_closed_form_equals_the_group_average(nm, group):
    n, m = nm
    assert census.count_mgons(n, m, group) == census.count_mgons_via_burnside(n, m, group)


@settings(CHECKS, max_examples=100)
@given(perimeters_and_sides())
def test_reversal_at_most_halves_the_count(nm):
    # each dihedral orbit is one or two cyclic orbits
    n, m = nm
    dihedral = census.count_mgons(n, m)
    assert dihedral <= census.count_mgons(n, m, GroupKind.CYCLIC) <= 2 * dihedral
