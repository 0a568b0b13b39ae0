import decimal
import tracemalloc
from collections import deque
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm

import pytest

from perigon import census, cli
from perigon.fixcount import fix_mgons, fix_polygons
from perigon.model import CircularTuple, ElementClass, ElementKind, GroupKind, element_classes
from perigon.numtheory import divisor_totients
from perigon.oracle import Scan, canonical_form, orbit_count

CYCLIC = GroupKind.CYCLIC
IDENTITY = ElementClass(ElementKind.IDENTITY)


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
            for group in GroupKind:
                assert census.count_mgons(n, m, group) == 0
                assert census.count_mgons_via_burnside(n, m, group) == 0
                assert orbit_count(n, group, weight=m) == 0


# every public count, with x in one argument: a perimeter or a side count
COUNTS = {
    "polygons": lambda x: census.count_polygons(x),
    "polygons-burnside": lambda x: census.count_polygons_via_burnside(x),
    "mgons-n": lambda x: census.count_mgons(x, 4),
    "mgons-m": lambda x: census.count_mgons(10, x),
    "mgons-burnside-n": lambda x: census.count_mgons_via_burnside(x, 4),
    "mgons-burnside-m": lambda x: census.count_mgons_via_burnside(10, x),
    "triangles-nearest": lambda x: census.triangles_nearest(x),
    "quadrilaterals-nearest": lambda x: census.quadrilaterals_nearest(x),
    "oracle": lambda x: orbit_count(x, GroupKind.DIHEDRAL),
    "oracle-cyclic-mgons": lambda x: orbit_count(x, CYCLIC, weight=4),
    "oracle-weight": lambda x: orbit_count(10, GroupKind.DIHEDRAL, weight=x),
    "polygon-values": lambda x: next(census.polygon_values(x, 12)),
    "polygon-decimal": lambda x: next(census.polygon_decimal(x, 12)),
    "mgon-values": lambda x: next(census.mgon_values(4, x, 12)),
    "mgon-columns": lambda x: next(census.mgon_columns(x)),
    "closed-count-n": lambda x: census.closed_count(x),
    "closed-count-m": lambda x: census.closed_count(10, x),
    # x - 8: a side count outside 3..n, refused as a float, not counted 0
    "mgons-degenerate-m": lambda x: census.count_mgons(10, x - 8),
    "mgons-burnside-degenerate-m": lambda x: census.count_mgons_via_burnside(10, x - 8),
    # m = 2: no m-gon, yet a float perimeter is refused, not counted 0
    "mgons-burnside-degenerate-n": lambda x: census.count_mgons_via_burnside(x, 2),
    "asymptotic": lambda x: census.asymptotic_mgon_coefficient(x),
    "asymptotic-degenerate": lambda x: census.asymptotic_mgon_coefficient(x - 8),
    "scan": lambda x: Scan(x),
    "scan-weight": lambda x: Scan(10).orbit_count(GroupKind.DIHEDRAL, x),
    "fix-polygons": lambda x: fix_polygons(x, IDENTITY),
    "fix-mgons-n": lambda x: fix_mgons(x, 3, IDENTITY),
    "fix-mgons-m": lambda x: fix_mgons(10, x, IDENTITY),
    "divisor-totients": lambda x: divisor_totients(x),
}


@pytest.mark.parametrize("count", COUNTS.values(), ids=COUNTS)
def test_every_count_refuses_a_float(count):
    # an integral float is not a perimeter or a side count: every route
    # raises the TypeError of int-only arithmetic, none answers 2.0
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        count(10.0)


@pytest.mark.parametrize("count", COUNTS.values(), ids=COUNTS)
def test_every_count_reads_a_bool_as_its_int(count):
    # True and False are the ints 1 and 0, as to math.comb: each route gives
    # the same value of the same type (True == 1, so the value alone would
    # pass a bool through), or the same exception with the same message
    def outcome(x):
        try:
            value = count(x)
        except Exception as err:  # the exception is the outcome
            return type(err), str(err)
        return type(value), value

    for flag in (True, False):
        assert outcome(flag) == outcome(int(flag))


# every public count that takes a group, the oracle's entry points and
# element_classes, with x as the group; "-degenerate" asks for an m outside
# 3..n, which each route answers with 0 for a GroupKind
GROUP_COUNTS = {
    "polygons": lambda x: census.count_polygons(10, x),
    "polygons-burnside": lambda x: census.count_polygons_via_burnside(10, x),
    "mgons": lambda x: census.count_mgons(10, 4, x),
    "mgons-degenerate": lambda x: census.count_mgons(10, 2, x),
    "mgons-burnside": lambda x: census.count_mgons_via_burnside(10, 4, x),
    "mgons-burnside-degenerate": lambda x: census.count_mgons_via_burnside(10, 2, x),
    "polygon-values": lambda x: next(census.polygon_values(10, 12, x)),
    "polygon-decimal": lambda x: next(census.polygon_decimal(10, 12, x)),
    "mgon-values": lambda x: next(census.mgon_values(4, 3, 12, x)),  # n = 3 is below m
    "closed-count": lambda x: census.closed_count(10, None, x),
    "closed-count-m": lambda x: census.closed_count(10, 4, x),
    "oracle": lambda x: orbit_count(10, x),
    "oracle-degenerate": lambda x: orbit_count(10, x, weight=2),
    "scan": lambda x: Scan(10).orbit_count(x),
    "scan-degenerate": lambda x: Scan(10).orbit_count(x, 2),
    "scan-minimum": lambda x: Scan(7).is_minimum(CircularTuple((0, 0, 0, 1, 1, 0, 1)), x),
    "canonical-form": lambda x: canonical_form(CircularTuple((1, 1, 0, 1, 0, 0, 0)), x),
    "element-classes": lambda x: element_classes(10, x),
}


@pytest.mark.parametrize("count", GROUP_COUNTS.values(), ids=GROUP_COUNTS)
def test_every_count_refuses_a_group_that_is_not_a_group_kind(count):
    # a group's name, None or a number is not a group: every route raises the
    # one TypeError naming the type, none answers with the dihedral or the
    # cyclic count, nor fails in some other way
    for group in GroupKind:
        count(group)
    for x in ("cyclic", None, 0):
        with pytest.raises(TypeError) as err:
            count(x)
        assert str(err.value) == f"group must be a GroupKind, got {type(x).__name__}"


# every run, built with a float in one argument or with a group's name
RUNS = {
    "mgon-values-m": lambda: census.mgon_values(4.0, 3, 12),
    "mgon-values-start": lambda: census.mgon_values(4, 3.0, 12),
    "mgon-values-end": lambda: census.mgon_values(4, 3, 12.0),
    "mgon-values-group": lambda: census.mgon_values(4, 3, 12, "cyclic"),
    "mgon-columns": lambda: census.mgon_columns(10.0),
    "polygon-values-end": lambda: census.polygon_values(3, 12.0),
    "polygon-values-group": lambda: census.polygon_values(3, 12, "cyclic"),
    "polygon-decimal-end": lambda: census.polygon_decimal(3, 12.0),
    "polygon-decimal-group": lambda: census.polygon_decimal(3, 12, "cyclic"),
}


@pytest.mark.parametrize("run", RUNS)
def test_every_run_checks_its_arguments_at_the_call(run):
    # a run that is never read still refuses its arguments, with the
    # TypeError that COUNTS and GROUP_COUNTS expect, not a run that fails later
    with pytest.raises(TypeError) as err:
        RUNS[run]()
    assert str(err.value) == ("group must be a GroupKind, got str" if run.endswith("-group")
                              else "'float' object cannot be interpreted as an integer")


def test_count_polygons_examples():
    assert census.count_polygons(3) == 1
    assert census.count_polygons(10) == 54
    assert census.count_polygons(20) == 26452


def test_count_polygons_rejects_small_n():
    for group in GroupKind:
        with pytest.raises(ValueError):
            census.count_polygons(2, group)


def test_burnside_assembly_examples():
    assert census.count_mgons_via_burnside(12, 4) == 16 == census.count_mgons(12, 4)
    assert census.count_polygons_via_burnside(9) == 32 == census.count_polygons(9)
    assert census.count_mgons_via_burnside(6, 6) == 1


def test_burnside_assembly_rejects_bad_input():
    with pytest.raises(ValueError):
        census.count_polygons_via_burnside(2)
    with pytest.raises(ValueError):
        census.count_polygons_via_burnside(2, CYCLIC)
    assert census.count_mgons_via_burnside(10, 2) == 0
    assert census.count_mgons_via_burnside(10, 11) == 0


def test_closed_forms_equal_burnside_assembly():
    for group in GroupKind:
        # the shifted powers of two at large n, in every residue of n mod 4
        for n in (*range(3, 201), *range(10**5, 10**5 + 4)):
            assert census.count_polygons(n, group) == census.count_polygons_via_burnside(n, group)
        for n in range(3, 201):
            for m in range(3, n + 1):
                assert census.count_mgons(n, m, group) == \
                    census.count_mgons_via_burnside(n, m, group)
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
    for group in GroupKind:
        run = list(census.polygon_values(3, 1000, group))
        assert run == [census.count_polygons_via_burnside(n, group) for n in range(3, 1001)]
        assert run == [census.count_polygons(n, group) for n in range(3, 1001)]
        assert list(census.polygon_values(10, 9, group)) == []
        assert list(census.polygon_values(3, -5, group)) == []
        with pytest.raises(ValueError) as single_error:
            census.count_polygons(2, group)
        with pytest.raises(ValueError) as run_error:
            census.polygon_values(2, 10, group)
        assert str(run_error.value) == str(single_error.value)


def test_polygon_runs_of_every_shape(unlimited_int_str):
    # each power a term reads is held and doubled from the term that first
    # asks for it: runs of one n; starts 3 to 8, across the n = 3 tail and
    # the first quarter power; long runs whose divisor chains start mid-run;
    # runs that start above end / 2, wide enough to sieve or narrow enough to
    # factorise each n, with the two either side of the rule's bound at
    # end = 1000; in both groups and both number types
    shapes = [(n, n) for n in (*range(3, 12), 60, 97, 500, 1000, 1024)]
    shapes += [(s, e) for s in range(3, 9) for e in (s + 1, s + 4, 2 * s, 2 * s + 1, 60)]
    shapes += [(3, 2000), (17, 40), (17, 60), (64, 100), (101, 1000), (250, 500),
               (333, 1200)]  # long
    shapes += [(31, 60), (251, 500), (601, 1200), (777, 800), (1000, 1200),
               (950, 1000), (951, 1000)]  # start above end / 2
    for group in GroupKind:
        expected = dict(enumerate(census.polygon_values(3, 2000, group), 3))
        assert [expected[n] for n in range(3, 61)] == \
            [census.count_polygons_via_burnside(n, group) for n in range(3, 61)]
        for start, end in shapes:
            terms = [expected[n] for n in range(start, end + 1)]
            assert list(census.polygon_values(start, end, group)) == terms, (start, end, group)
            assert [str(v) for v in census.polygon_decimal(start, end, group)] == \
                [str(v) for v in terms], (start, end, group)


def test_polygon_run_sieves_when_wide(monkeypatch):
    # a run of at least end / _SIEVE_SHARE terms, every run from start <=
    # end / 2 among them, reads phi from a sieve; a narrower one, a run of
    # one n among them, factorises each n
    real = census.divisor_totients
    asked = []
    monkeypatch.setattr(census, "divisor_totients", lambda n: asked.append(n) or real(n))
    bound = 1000 // census._SIEVE_SHARE  # the least width that sieves at end = 1000
    for start, end, sieved in ((1000 - bound, 1000, True), (1001 - bound, 1000, False),
                               (1000, 1000, False), (3, 1000, True), (500, 1000, True),
                               (2600, 5000, True), (4900, 5000, False)):
        for group in GroupKind:
            asked.clear()
            deque(census.polygon_values(start, end, group), maxlen=0)
            assert asked == ([] if sieved else list(range(start, end + 1))), (start, end)


def test_polygon_run_asks_for_each_power_once():
    # a run of one n asks power(k) for the powers its term reads, in the
    # term's order: the tails, the rotation terms of the divisors
    # 1 < d <= sqrt(n) in ascending k, then 2^n; a long run asks only at
    # each held value's first term, and doubles it after that
    for group in GroupKind:
        for n in (*range(3, 40), 997, 1000, 1024, 32769):
            asks = []
            list(census._polygon_run(n, n, group, lambda k: asks.append(k) or 1 << k))
            tails = ([n // 2] if group is CYCLIC
                     else [(n - 4) // 4 if n % 4 < 2 else (n + 2) // 4, (n - 3) // 2])
            rotations = [n // d for d in range(isqrt(n), 1, -1) if n % d == 0]
            assert asks == [*tails, *rotations, n], (n, group)
        asks = []
        list(census._polygon_run(3, 4000, group, lambda k: asks.append(k) or 1 << k))
        assert len(asks) <= isqrt(4000) + 3, group  # 2^n, the tails, one per divisor d > 1


@pytest.mark.parametrize("shape", ["long", "short"])
@pytest.mark.parametrize("run", [census.polygon_values, census.polygon_decimal],
                         ids=["int", "decimal"])
def test_polygon_run_memory_grows_as_end_log_end(run, shape):
    # the held powers add up to about end log(end) bits: doubling the end of a
    # run from 3, or of a short run from end / 2, about doubles its peak, where
    # holding every 2^k with k <= end / 2 made it grow 2.6-2.9 times
    deque(run(3, 40), maxlen=0)  # first-call allocations outside the measure

    def peak(end):
        tracemalloc.start()
        try:
            deque(run(3 if shape == "long" else end // 2 + 1, end), maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8000) < 2.5 * peak(4000)


def _proof_range(m):
    """n = m .. m + (m+1) L - 1 with L = lcm(m, 4): m + 1 points in each
    residue class of n mod L, one more than a proof needs."""
    return range(m, m + (m + 1) * lcm(m, 4))


def test_mgon_values_equal_burnside_assembly():
    """The closed form equals the assembly route for every n >= m, for
    m = 3..20, under both groups: a proof for each m, not a sample.

    For n >= m each route is, within each residue class of n mod
    L = lcm(m, 4), a polynomial in n of degree at most m - 1.  Each route
    sums binomials C(x, k), times constants or multiples of n, and divides
    the sum by the group order, n or 2n.  Each x is n/d for a divisor d of
    m, n//2, n//2 - 1, n//4, (n+2)//4 or m//2 + (n-m)//2.  Within the class,
    whether d divides n is settled, and x is linear in n and at least 0, so
    C(x, k) is the polynomial x (x-1) ... (x-k+1) / k! of degree k.  Every
    binomial with k >= m comes from a rotation, C(n/d, m/d), and n divides
    it as a polynomial, since C(x, j) = (x/j) C(x-1, j-1).  Two polynomials
    of degree at most m - 1 that agree at m points are equal, so agreement
    at m points of each class is agreement at every n >= m (R. Stanley,
    Enumerative Combinatorics I, 2nd ed., section 4.4).  _proof_range holds
    m + 1 points of each class; below n = m both routes are 0.

    At m = 2018 = 2 * 1009, a divisor above 1,000, it checks agreement, not
    proof, on two runs: only a run with end > start tries every divisor of
    m, and the runs hold n that 1009 divides (2018, 3027) and n that it does
    not, so a rotation term of d = 1009 or 2018 taken at the wrong n shows.
    """
    for group in GroupKind:
        for m in range(3, 21):
            span = _proof_range(m)
            assert list(census.mgon_values(m, span.start, span.stop - 1, group)) == \
                [census.count_mgons_via_burnside(n, m, group) for n in span], (m, group)
        for start, end in ((2018, 2030), (3020, 3040)):
            assert list(census.mgon_values(2018, start, end, group)) == \
                [census.count_mgons_via_burnside(n, 2018, group)
                 for n in range(start, end + 1)], (start, group)


def test_mgon_growth_law_is_exact():
    # the paper's p(m, n) ~ c(m) n^(m-1) as an exact statement: within each
    # residue class of n mod L = lcm(m, 4) the count is a polynomial of degree
    # m - 1 whose leading coefficient is c(m), or 2 c(m) without reversals.
    # Forward differences with step L show it: the m-th is 0, and the
    # (m-1)-th is (m-1)! L^(m-1) times that coefficient
    for group in GroupKind:
        for m in range(3, 21):
            span, step = _proof_range(m), lcm(m, 4)
            values = list(census.mgon_values(m, span.start, span.stop - 1, group))
            lead = census.asymptotic_mgon_coefficient(m) * (2 if group is CYCLIC else 1)
            for r in range(step):
                column = values[r::step]  # m + 1 values, n = m + r + i L for i = 0..m
                for _ in range(m - 1):
                    column = [b - a for a, b in zip(column, column[1:])]
                assert column[1] - column[0] == 0, (m, group, r)
                assert column[0] == factorial(m - 1) * step ** (m - 1) * lead, (m, group, r)


def test_mgon_values_runs_of_one_n_equal_the_long_run():
    # a run of one n takes the divisors of gcd(n, m), a longer run those of m
    for group in GroupKind:
        for m in (12, 30, 60):
            assert [next(census.mgon_values(m, n, n, group)) for n in range(1, 201)] == \
                list(census.mgon_values(m, 1, 200, group)), (m, group)


def test_mgon_values_start_below_m_yield_zeros():
    for group in GroupKind:
        single = [census.count_mgons(n, 7, group) for n in range(1, 13)]
        assert list(census.mgon_values(7, 1, 12, group)) == single
        assert single[:6] == [0] * 6
        assert list(census.mgon_values(7, -3, 5, group)) == [0] * 9
        for m in (2, 1, 0, -4):  # no m-gon at any n
            assert list(census.mgon_values(m, 1, 20, group)) == [0] * 20
        assert list(census.mgon_values(7, 10, 9, group)) == []
        assert list(census.mgon_values(7, 12, 5, group)) == []


def test_mgon_values_compute_each_binomial_once_per_term(monkeypatch):
    # the d = 2 rotation term C(n/2, m/2) is the first reflection binomial
    # for even n and m, and C(n//4, m/2) = C((n+2)//4, m/2) for even m and
    # n = 0 or 1 mod 4: each is computed once; C(x, 0) and C(x, x) are 1 and
    # cost nothing (C(1, 1) is two reflection binomials at m = 3, n = 4)
    calls = []
    real = census.binomial
    monkeypatch.setattr(census, "binomial", lambda x, k: calls.append((x, k)) or real(x, k))
    for group in GroupKind:
        for m in range(3, 13):
            for n in range(m, 101):
                calls.clear()
                census.count_mgons(n, m, group)
                nontrivial = [(x, k) for x, k in calls if 0 < k < x]
                assert len(nontrivial) == len(set(nontrivial)), (group, m, n, calls)
    calls.clear()
    census.count_mgons(20, 6)  # C(10, 3) is read for d = 2, and C(5, 3) once
    assert sorted(calls) == [(5, 3), (10, 3), (10, 5), (20, 6)]
    # closed_count's decimal route asks its own binomial for the same ones
    calls.clear()
    expected = census.count_mgons(40_000, 20_000)
    int_calls = sorted(calls)
    asked = []
    real_decimal = census._decimal_binomial
    monkeypatch.setattr(census, "_decimal_binomial",
                        lambda x, k: asked.append((x, k)) or real_decimal(x, k))
    assert census.closed_count(40_000, 20_000) == expected
    assert sorted(asked) == int_calls


def test_polygon_decimal_equals_int_counts(unlimited_int_str):
    # runs of one n below, at and above 2^15 bits, in every residue of n mod 4,
    # under both groups (test_polygon_runs_of_every_shape takes longer runs)
    for group in GroupKind:
        for n in (*range(3, 60), *range(2**15 - 1, 2**15 + 4), *range(10**5, 10**5 + 4)):
            assert ([str(v) for v in census.polygon_decimal(n, n, group)]
                    == [str(census.count_polygons(n, group))]), (n, group)
        assert list(census.polygon_decimal(10, 9, group)) == []
        assert list(census.polygon_decimal(3, -5, group)) == []
        with pytest.raises(ValueError, match="at least 3"):
            census.polygon_decimal(2, 10, group)  # at the call, before the run is read


def test_closed_count_decimal_mgons_equal_int_counts(monkeypatch, unlimited_int_str):
    # with the bound at 0, closed_count builds every m-gon count whose C(n, m)
    # the product tree builds in decimal: binomials of both kinds, the product
    # tree's with Decimal leaves and math.comb's converted, at central and far
    # from central m (m = 3n/10 factorises C(n/2, m - 1), whose k is far above
    # x / 2), in every residue of n mod 4, both parities of m and both groups,
    # and at gcd(n, m) with many divisors; the caller's context stays as it was
    monkeypatch.setattr(census, "_DECIMAL_FROM_BITS", 0)
    caller = decimal.getcontext()
    prec, flags = caller.prec, dict(caller.flags)
    cases = [(n, m) for n in range(4000, 4004)
             for m in (3, 40, 3 * n // 10, n // 2, n // 2 + 1, n - 1, n)]
    cases += [(90_000, 45_000), (60_000, 1_500), (10, 11), (10, 2)]
    for group in GroupKind:
        for n, m in cases:
            value = census.closed_count(n, m, group)
            assert isinstance(value, decimal.Decimal) == census._factorises(n, m), (n, m)
            assert str(value) == str(census.count_mgons(n, m, group)), (n, m, group)
    assert sum(census._factorises(n, m) for n, m in cases) == 13
    assert decimal.getcontext() is caller
    assert (caller.prec, dict(caller.flags)) == (prec, flags)


def test_polygon_decimal_leaves_the_callers_context():
    # each term is evaluated under the exact context; between terms the
    # caller's context is in force, unchanged
    caller = decimal.getcontext()
    prec, flags = caller.prec, dict(caller.flags)
    run = census.polygon_decimal(3, 200)
    for expected in census.polygon_values(3, 200):
        assert next(run) == expected
        assert decimal.getcontext() is caller
        assert (caller.prec, dict(caller.flags)) == (prec, flags)
    assert next(run, None) is None


def test_two_power_equals_the_exact_power():
    # every branch of the builder: a read, 2^(k-c) 2^c for each c, the half
    # rule (2^j)^2 2^(k-2j) with k - 2j >= 0 and < 0, and a fresh exact power;
    # each made power is stored, and a derived one is built from the held one
    def check():
        exact = {k: decimal.Decimal(2) ** k for k in range(1000)}
        held = {100: exact[100]}
        assert census._two_power(held, 100) is exact[100]
        cases = [(100 + c, 100) for c in range(1, census._NEAR)]  # k - c
        cases += [(2 * 100 + c, 100) for c in range(1 - census._NEAR, census._NEAR)]  # half
        for k, j in cases:
            kept = {j: exact[j]}
            assert census._two_power(kept, k) == exact[k] and kept == {j: exact[j], k: exact[k]}, k
            off = {j: exact[j] + 1}  # a held power marked by +1 shows the derivation read it
            assert census._two_power(off, k) != exact[k], k
        assert census._two_power({}, 700) == exact[700]
        assert census._two_power({1: exact[1]}, 999) == exact[999]  # nothing close is held
        kept = {}
        assert [census._two_power(kept, k) for k in range(1000)] == list(exact.values())
        return exact

    exact = census._exact_scope().run(check)
    assert all(str(p) == str(2**k) for k, p in exact.items())


def test_skewed_totient_fails_every_closed_form(monkeypatch):
    # phi(2) = 2 adds 2^(n/2) to the rotation sum of an even n, which the
    # group order does not divide: both number types must stop, not round
    real = census.divisor_totients
    monkeypatch.setattr(census, "divisor_totients",
                        lambda n: [(d, phi + (d == 2)) for d, phi in real(n)])
    for n in (20, 40_000):
        with pytest.raises(census.InternalError, match=rf"polygon rotation sum \(n={n}\) \(\d+ bits\)"):
            census.count_polygons(n)
        with pytest.raises(census.InternalError, match=rf"\(n={n}\) \(\d+ digits\)"):
            next(census.polygon_decimal(n, n))
        with pytest.raises(census.InternalError, match=rf"cyclic rotation sum \(n={n}\)"):
            next(census.polygon_decimal(n, n, CYCLIC))
    # a longer run that factorises each n (one too narrow to sieve) yields
    # the terms before the first even n, then stops there
    run = census.polygon_decimal(1001, 1030)
    assert next(run) == census.count_polygons(1001)
    with pytest.raises(census.InternalError, match=r"\(n=1002\)"):
        next(run)
    # phi(2) C(n/2, m/2) too, for even n and m, in both groups and in the table
    for group in GroupKind:
        for n, m in ((20, 4), (40_000, 20_000)):
            with pytest.raises(census.InternalError, match=rf"\({m},{n}\) \(\d+ bits\)"):
                census.count_mgons(n, m, group)
        # and in decimal: closed_count takes that route for C(40000, 20000)
        with pytest.raises(census.InternalError, match=r"\(20000,40000\) \(\d+ digits\)"):
            census.closed_count(40_000, 20_000, group)
    with pytest.raises(census.InternalError, match=r"^m-gon census numerator \(4,4\) "):
        cli._table(20)


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
        # the rotation by q has gcd(n, q) cycles, each all corners or none
        total = sum(Fraction(2**gcd(n, q) - 1, 2 * n) for q in range(n))
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


# ---------------------------------------------------------------------------
# rotation-only equivalence


def test_cyclic_examples():
    assert census.count_mgons(12, 3, CYCLIC) == 4
    # 6 orbits: 3311, 3131, 3221, 3212, 3122, 2222 as cyclic side sequences
    assert census.count_mgons(8, 4, CYCLIC) == 6
    for n in range(5, 11):
        assert census.count_mgons(n, n, CYCLIC) == 1
    assert census.count_polygons(3, CYCLIC) == 1
    assert census.count_polygons(10, CYCLIC) == 75


def test_cyclic_between_one_and_two_dihedral_counts():
    # dropping reversals splits each orbit into at most two
    for n in range(3, 61):
        pn = census.count_polygons(n)
        assert pn <= census.count_polygons(n, CYCLIC) <= 2 * pn
        for m in range(3, n + 1):
            pmn = census.count_mgons(n, m)
            assert pmn <= census.count_mgons(n, m, CYCLIC) <= 2 * pmn


# ---------------------------------------------------------------------------
# nearest-integer rules


def test_triangles_nearest_examples():
    assert census.triangles_nearest(12) == 3
    assert census.triangles_nearest(15) == 7
    assert census.triangles_nearest(3) == 1
    with pytest.raises(ValueError):
        census.triangles_nearest(0)


def test_quadrilaterals_nearest_examples():
    assert census.quadrilaterals_nearest(6) == 2
    assert census.quadrilaterals_nearest(13) == 22
    assert census.quadrilaterals_nearest(20) == 75


def test_nearest_rules_never_hit_half_integers():
    for n in range(1, 1001):
        census.triangles_nearest(n)
        census.quadrilaterals_nearest(n)


# ---------------------------------------------------------------------------
# integrality and growth


def test_polygon_growth_law_is_exact():
    # the paper's growth law p(n) ~ 2^(n-1) / n as an exact inequality, far
    # beyond the oracle: the rotation terms with d > 1 add at most 2^(n/2) / 2
    # to n p(n) - 2^(n-1), and the tails of the closed form at most 2^((n-3)/2)
    for n, p in enumerate(census.polygon_values(3, 2000), 3):
        assert abs(n * p - (1 << (n - 1))) <= n << (n // 2), n


def test_asymptotic_coefficients():
    assert census.asymptotic_mgon_coefficient(5) == Fraction(11, 3840)
    assert census.asymptotic_mgon_coefficient(6) == Fraction(13, 23040)
    assert census.asymptotic_mgon_coefficient(7) == Fraction(19, 215040)
    assert census.asymptotic_mgon_coefficient(8) == Fraction(1, 86016)
    assert census.asymptotic_mgon_coefficient(9) == Fraction(247, 185794560)
    assert census.asymptotic_mgon_coefficient(10) == Fraction(251, 1857945600)
    with pytest.raises(ValueError):
        census.asymptotic_mgon_coefficient(2)
