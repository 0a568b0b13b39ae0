"""Acceptance suite: the package's exit criteria, each with its time budget.

Reference values are the published tables for perimeters up to 20; they are
independently confirmed here by the brute-force oracle over the same range.
"""

import subprocess
import sys
import time
from fractions import Fraction

from perigon import census, cli, fixcount, model, oracle, verify

# p(m, n) for n = m..20, one row per side count m
MGON_TABLE = {
    3: [1, 0, 1, 1, 2, 1, 3, 2, 4, 3, 5, 4, 7, 5, 8, 7, 10, 8],
    4: [1, 1, 2, 3, 5, 7, 9, 13, 16, 22, 25, 34, 38, 50, 54, 70, 75],
    5: [1, 1, 3, 4, 9, 13, 23, 29, 48, 60, 92, 109, 158, 186, 258, 296],
    6: [1, 1, 4, 7, 15, 25, 46, 72, 113, 172, 248, 360, 491, 686, 896],
    7: [1, 1, 4, 8, 20, 37, 75, 129, 228, 359, 584, 868, 1324, 1870],
    8: [1, 1, 5, 10, 29, 57, 125, 231, 435, 745, 1261, 2031, 3195],
    9: [1, 1, 5, 12, 35, 79, 185, 374, 749, 1382, 2489, 4237],
    10: [1, 1, 6, 14, 47, 111, 280, 600, 1281, 2493, 4746],
    11: [1, 1, 6, 16, 56, 147, 392, 912, 2052, 4261],
    12: [1, 1, 7, 19, 72, 196, 561, 1368, 3260],
    13: [1, 1, 7, 21, 84, 252, 756, 1980],
    14: [1, 1, 8, 24, 104, 324, 1032],
    15: [1, 1, 8, 27, 120, 406],
    16: [1, 1, 9, 30, 145],
    17: [1, 1, 9, 33],
    18: [1, 1, 10],
    19: [1, 1],
    20: [1],
}

# p(n) for n = 3..20
POLYGON_ROW = [1, 1, 3, 5, 10, 16, 32, 54, 102, 180, 336, 607,
               1144, 2098, 3960, 7397, 14022, 26452]


def reference_pmn(m, n):
    return MGON_TABLE[m][n - m]


def test_c1_mgon_table_reproduction(capsys):
    started = time.perf_counter()
    assert cli.main(["table", "--max-n", "20", "--format", "csv"]) == 0
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out

    rows = [line.split(",") for line in out.splitlines()]
    header = rows[0]
    assert header == ["m\\n"] + [str(n) for n in range(3, 21)]
    emitted = {}
    for row in rows[1:-1]:
        m = int(row[0])
        for n, cell in zip(range(3, 21), row[1:]):
            if cell != "":
                emitted[(m, n)] = int(cell)
    expected = {(m, n): reference_pmn(m, n)
                for m in range(3, 21) for n in range(m, 21)}
    assert len(expected) == 171
    assert emitted == expected
    # called-out entries and the one-gon-per-perimeter diagonal
    assert emitted[(3, 12)] == 3
    assert emitted[(4, 8)] == 5
    assert emitted[(5, 10)] == 13
    assert emitted[(10, 20)] == 4746
    assert all(emitted[(n, n)] == 1 for n in range(3, 21))
    assert elapsed < 1.0, f"table took {elapsed:.2f} s"


def test_c2_polygon_row_reproduction():
    started = time.perf_counter()
    values = [census.count_polygons(n) for n in range(3, 21)]
    elapsed = time.perf_counter() - started
    assert values == POLYGON_ROW
    assert elapsed < 1.0, f"polygon row took {elapsed:.2f} s"


def test_c3_three_way_census_agreement():
    # the census records of the `verify` engine: the closed forms against the
    # group average and against the oracle's orbits under both groups
    started = time.perf_counter()
    subjects = {"polygons", "polygons-cyclic", "mgons", "mgons-cyclic"}
    checks = [c for c in verify.verify_checks(20, cli.DEFAULT_SEED, 0) if c["subject"] in subjects]
    elapsed = time.perf_counter() - started
    assert all(c["agree"] for c in checks)
    want = [(n, m, ("polygons" if m is None else "mgons") + group, ["closed-form", route])
            for n in range(3, 21) for m in (None, *range(3, n + 1))
            for group, route in (("", "burnside"), ("", "oracle"), ("-cyclic", "oracle"))]
    assert [(c["n"], c["m"], c["subject"], c["pair"]) for c in checks] == want
    assert elapsed < 60.0, f"census sweep took {elapsed:.2f} s"


def test_c4_fix_set_formulas_match_direct_counts():
    started = time.perf_counter()
    for n in range(3, 21):
        scan = oracle.Scan(n)
        for sigma in model.dihedral_group(n):
            cls, (good, every, bad) = model.classify(sigma), scan.fixed_counts(sigma)
            assert sum(good) == every - bad
            assert fixcount.fix_polygons(n, cls) == sum(good)
            for m in range(3, n + 1):
                assert fixcount.fix_mgons(n, m, cls) == good[m]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"fix sweep took {elapsed:.2f} s"


def test_c5_triangle_nearest_rule_agreement():
    started = time.perf_counter()
    for n in range(3, 10_001):
        assert census.triangles_nearest(n) == census.count_mgons(n, 3)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"triangle sweep took {elapsed:.2f} s"


# the exact quadrilateral count is cubic(n) / 96, one cubic per residue of n
# mod 4: the coefficients of n^3, n^2, n and 1
QUADRILATERAL_CUBICS = {0: (1, -3, 20, 0), 1: (1, 0, -7, 6), 2: (1, -3, 20, -36), 3: (1, 0, -7, -6)}


def test_c6_quadrilateral_rules_agreement():
    started = time.perf_counter()
    for n in range(4, 10_001):
        expected = census.count_mgons(n, 4)
        assert census.quadrilaterals_nearest(n) == expected
        a, b, c, d = QUADRILATERAL_CUBICS[n % 4]
        assert divmod(((a * n + b) * n + c) * n + d, 96) == (expected, 0)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"quadrilateral sweep took {elapsed:.2f} s"


def test_c7_rotation_sum_integrality():
    started = time.perf_counter()
    top = 10_000
    # the divisors of every n and Euler's phi, each by its own sieve
    divisors = [[] for _ in range(top + 1)]
    for d in range(1, top + 1):
        for n in range(d, top + 1, d):
            divisors[n].append(d)
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:  # no smaller prime divides p
            for n in range(p, top + 1, p):
                phi[n] -= phi[n] // p
    for n in range(3, top + 1):
        assert sum(phi[d] * 2**(n // d - 1) for d in divisors[n]) % n == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"integrality sweep took {elapsed:.2f} s"


def test_c8_millionth_term_benchmark():
    fields = []
    for _ in range(2):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "perigon", "bench", "--n", "1000000"],
            capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 60.0, f"bench run took {elapsed:.2f} s"
        fields.append(dict(line.split() for line in proc.stdout.splitlines()))
    assert fields[0]["sha256"] == fields[1]["sha256"]
    assert fields[0]["digits"] == fields[1]["digits"] == "301024"


# Thresholds below were computed during development and frozen; the polygon
# deviation drops under 1/100 from perimeter 20 onward (max 2477/262144 at
# n=21) and decreases strictly within each parity class.
POLYGON_DEV_START = 20
POLYGON_DEV_BOUND = Fraction(1, 100)

# per-m deviation bound at n=200 for the m-gon growth estimate
MGON_DEV_BOUNDS_AT_200 = {
    3: Fraction(1, 1000),
    4: Fraction(3, 200),
    5: Fraction(9, 200),
    6: Fraction(7, 100),
    7: Fraction(1, 10),
    8: Fraction(13, 100),
    9: Fraction(17, 100),
    10: Fraction(21, 100),
}


def test_c9_asymptotic_sanity():
    # exact coefficients of the growth law, including the published constants
    assert census.asymptotic_mgon_coefficient(5) == Fraction(11, 3840)
    assert census.asymptotic_mgon_coefficient(10) == Fraction(251, 1857945600)

    # the leading-order estimates 2^(n-1)/n and c(m)·n^(m-1)
    devs = {n: abs(Fraction(census.count_polygons(n)) / Fraction(2 ** (n - 1), n) - 1)
            for n in range(POLYGON_DEV_START, 201)}
    assert all(dev < POLYGON_DEV_BOUND for dev in devs.values())
    assert all(devs[n + 2] < devs[n] for n in range(POLYGON_DEV_START, 199))

    for m in range(3, 11):
        lo = max(m, 20)
        c = census.asymptotic_mgon_coefficient(m)
        mdevs = {n: abs(Fraction(census.count_mgons(n, m)) / (c * n ** (m - 1)) - 1)
                 for n in range(lo, 201)}
        early = max(dev for n, dev in mdevs.items() if n <= 110)
        late = max(dev for n, dev in mdevs.items() if n > 110)
        assert late < early, f"m={m} deviation did not shrink"
        assert mdevs[200] < MGON_DEV_BOUNDS_AT_200[m], f"m={m} deviation at 200"
