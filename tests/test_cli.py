import decimal
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import perigon
from perigon import census, cli, model, oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# count


def test_count_mgon(capsys):
    code, out, _ = run(capsys, "count", "--n", "20", "--m", "10")
    assert code == 0 and out.strip() == "4746"


def test_count_polygons(capsys):
    code, out, _ = run(capsys, "count", "--n", "20")
    assert code == 0 and out.strip() == "26452"


def test_count_rejects_small_n(capsys):
    code, _, err = run(capsys, "count", "--n", "2")
    assert code == 2
    assert "at least 3" in err


def test_count_degenerate_m_is_zero(capsys):
    code, out, _ = run(capsys, "count", "--n", "7", "--m", "2")
    assert code == 0 and out.strip() == "0"


def test_count_methods_agree(capsys):
    values = set()
    for method in ("closed", "burnside", "oracle"):
        code, out, _ = run(capsys, "count", "--n", "12", "--m", "4", "--method", method)
        assert code == 0
        values.add(out.strip())
    assert values == {"16"}


def test_count_cyclic(capsys):
    for method in ("closed", "burnside", "oracle"):
        code, out, _ = run(capsys, "count", "--n", "8", "--m", "4", "--cyclic",
                           "--method", method)
        assert code == 0 and out.strip() == "6"


def test_count_oracle_bound(capsys):
    code, _, err = run(capsys, "count", "--n", "30", "--method", "oracle")
    assert code == 2 and "oracle bound" in err


def test_count_json_report(capsys):
    code, out, _ = run(capsys, "count", "--n", "9", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == cli.REPORT_SCHEMA
    assert report["n"] == 9 and report["m"] is None
    assert report["method"] == "closed-form"
    assert report["value"] == "32"
    assert report["agreement"] is None


def test_count_unknown_flag(capsys):
    assert run(capsys, "count", "--bogus")[0] == 2


# ---------------------------------------------------------------------------
# table


def test_table_single_cell(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["m\\n,3", "3,1", "total,1"]


def test_table_rejects_small_max(capsys):
    assert run(capsys, "table", "--max-n", "2")[0] == 2


def test_table_csv_values(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "8", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    header = rows[0]
    assert header == ["m\\n", "3", "4", "5", "6", "7", "8"]
    cells = {(int(r[0]), int(n)): v
             for r in rows[1:-1] for n, v in zip(header[1:], r[1:])}
    assert cells[(3, 7)] == "2"
    assert cells[(4, 8)] == "5"
    assert cells[(8, 3)] == ""
    totals = rows[-1]
    assert totals[0] == "total"
    assert totals[1:] == ["1", "1", "3", "5", "10", "16"]


def test_table_plain_contains_values(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "6")
    assert code == 0
    assert "m\\n" in out
    assert out.splitlines()[-1].split() == ["total", "1", "1", "3", "5"]


@pytest.mark.parametrize("max_n", [3, 4, 5, 6, 7, 41])
def test_table_matches_cell_by_cell_census(capsys, max_n):
    ns = range(3, max_n + 1)
    csv = ["m\\n," + ",".join(map(str, ns))]
    csv += [f"{m}," + ",".join(str(census.count_mgons(n, m)) if m <= n else "" for n in ns)
            for m in ns]
    csv.append("total," + ",".join(str(census.count_polygons(n)) for n in ns))
    code, out, _ = run(capsys, "table", "--max-n", str(max_n), "--format", "csv")
    assert code == 0 and out == "\n".join(csv) + "\n"

    code, out, _ = run(capsys, "table", "--max-n", str(max_n))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(ns) + 3
    assert lines[0].split() == ["m\\n", *map(str, ns)]
    assert set(lines[-2]) == {"-"}
    for m, line in zip(ns, lines[1:-2]):
        cells = line.split()
        # blank cells sit left of the diagonal, so the values right-align to n = m..max_n
        assert int(cells[0]) == m
        assert list(map(int, cells[1:])) == [census.count_mgons(n, m) for n in range(m, max_n + 1)]
    assert lines[-1].split() == ["total", *(str(census.count_polygons(n)) for n in ns)]


def test_table_checks_row_sums(capsys, monkeypatch):
    polygons = census.count_polygons
    monkeypatch.setattr(census, "count_polygons", lambda n: polygons(n) + (n == 9))
    with pytest.raises(census.InternalError, match="perimeter 9"):
        cli.main(["table", "--max-n", "12", "--format", "csv"])


# ---------------------------------------------------------------------------
# b-files


def test_bfile_pn(capsys):
    code, out, _ = run(capsys, "bfile", "--family", "pn", "--start", "3", "--end", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 1"
    assert lines[-1] == "20 26452"
    assert len(lines) == 18
    assert out.endswith("\n") and not out.endswith("\n\n")
    assert all(line == line.rstrip() for line in lines)


def test_bfile_triangles(capsys):
    code, out, _ = run(capsys, "bfile", "--family", "triangles-nearest",
                       "--start", "3", "--end", "12")
    assert code == 0
    assert out.splitlines()[-1] == "12 3"


def test_bfile_pmn_default_start(capsys):
    code, out, _ = run(capsys, "bfile", "--family", "pmn", "--m", "4", "--end", "8")
    assert code == 0
    assert out.splitlines() == ["4 1", "5 1", "6 2", "7 3", "8 5"]


def test_bfile_offset_override(capsys):
    code, out, _ = run(capsys, "bfile", "--family", "pn", "--start", "3", "--end", "5",
                       "--offset", "1")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 1", "3 3"]


def test_bfile_matches_census_values(capsys):
    families = {
        ("pmn", 5): lambda n: census.count_mgons(n, 5),
        ("pn", None): census.count_polygons,
        ("pmn-cyclic", 3): lambda n: census.count_mgons_cyclic(n, 3),
        ("pn-cyclic", None): census.count_polygons_cyclic,
        ("triangles-nearest", None): census.triangles_nearest,
        ("quadrilaterals-nearest", None): census.quadrilaterals_nearest,
    }
    for (family, m), value_fn in families.items():
        argv = ["bfile", "--family", family, "--end", "30"]
        if m is not None:
            argv += ["--m", str(m)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines, family
        for line in lines:
            n, value = map(int, line.split())
            assert value == value_fn(n), (family, n)


def test_bfile_to_file_and_byte_stable(tmp_path, capsys):
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        code, out, _ = run(capsys, "bfile", "--family", "pn-cyclic", "--end", "25",
                           "--out", str(path))
        assert code == 0 and out == ""
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first.decode().splitlines()[0] == "3 1"


def test_bfile_range_errors(capsys):
    assert run(capsys, "bfile", "--family", "pmn", "--end", "8")[0] == 2  # missing --m
    assert run(capsys, "bfile", "--family", "pn", "--m", "4", "--end", "8")[0] == 2
    assert run(capsys, "bfile", "--family", "pn", "--start", "2", "--end", "8")[0] == 2
    assert run(capsys, "bfile", "--family", "pn", "--start", "9", "--end", "8")[0] == 2
    assert run(capsys, "bfile", "--family", "nonsense", "--end", "8")[0] == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_small_sweep(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "8")
    assert code == 0, err
    report = json.loads(out)
    assert report["schema"] == cli.VERIFY_SCHEMA
    assert report["all_agree"] is True
    assert report["first_failure"] is None
    assert all(entry["agree"] for entry in report["checks"])
    subjects = {entry["subject"] for entry in report["checks"]}
    assert {"polygons", "mgons", "mgons-cyclic", "fix-polygons", "fix-mgons",
            "fix-partition", "canonical-probes"} <= subjects


def test_verify_documented_sweep(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "14")
    assert code == 0, err
    assert json.loads(out)["all_agree"] is True


def test_verify_census_record_order(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "7")
    assert code == 0
    subjects = {"polygons", "polygons-cyclic", "mgons", "mgons-cyclic"}
    records = [c for c in json.loads(out)["checks"] if c["subject"] in subjects]
    assert all(list(c) == ["n", "m", "subject", "pair", "agree"] for c in records)
    want = []
    for n in range(3, 8):
        want += [(n, None, "polygons", ["closed-form", "burnside"]),
                 (n, None, "polygons", ["closed-form", "oracle"]),
                 (n, None, "polygons-cyclic", ["closed-form", "oracle"])]
        for m in range(3, n + 1):
            want += [(n, m, "mgons", ["closed-form", "burnside"]),
                     (n, m, "mgons", ["closed-form", "oracle"]),
                     (n, m, "mgons-cyclic", ["closed-form", "oracle"])]
    assert [(c["n"], c["m"], c["subject"], c["pair"]) for c in records] == want


def test_verify_rejects_beyond_oracle_bound(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "30")
    assert code == 2 and "oracle bound" in err


def test_verify_detects_injected_fault(capsys, monkeypatch):
    real = census.count_mgons

    def skewed(n, m):
        value = real(n, m)
        return value + 1 if (n, m) == (7, 4) else value

    monkeypatch.setattr(census, "count_mgons", skewed)
    code, out, err = run(capsys, "verify", "--max-n", "8")
    assert code == 1
    assert "n=7" in err and "m=4" in err
    report = json.loads(out)
    assert report["all_agree"] is False
    assert report["first_failure"]["n"] == 7
    assert report["first_failure"]["m"] == 4


def test_verify_fix_partition_compares_two_goodness_rules(capsys, monkeypatch):
    # call the regular hexagon no polygon in the corner-gap mask only: the
    # zero-run rule still says it is not bad, so good + bad != all for every
    # symmetry, all of which fix it
    real = oracle._good_mask

    def broken(n, columns, full):
        good = real(n, columns, full)
        return good & ~(1 << 0b111111) if n == 6 else good

    monkeypatch.setattr(oracle, "_good_mask", broken)
    try:
        oracle._SCAN.clear()
        identity = model.GroupElement.identity(6)
        good, bad, everything = (oracle.fix_count_direct(6, identity, subset) for subset in
                                 (oracle.TupleSet.GOOD, oracle.TupleSet.BAD, oracle.TupleSet.ALL))
        assert good != everything - bad
        code, out, _ = run(capsys, "verify", "--max-n", "6")
        assert code == 1
        partition = [c for c in json.loads(out)["checks"]
                     if c["subject"] == "fix-partition" and c["n"] == 6]
        assert partition and not any(c["agree"] for c in partition)
    finally:
        oracle._SCAN.clear()


def test_verify_seed_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--max-n", "6", "--seed", "99")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# bench


def test_bench_output(capsys):
    code, out, _ = run(capsys, "bench", "--n", "100")
    assert code == 0
    fields = dict(line.split() for line in out.splitlines())
    assert fields["n"] == "100"
    assert int(fields["digits"]) == len(str(census.count_polygons(100)))
    assert len(fields["sha256"]) == 64
    assert float(fields["seconds"]) < 5


def test_bench_rejects_small_n(capsys):
    assert run(capsys, "bench", "--n", "1")[0] == 2


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str size guard before Python 3.10.7")
def test_huge_counts_leave_int_str_limit_alone(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "count", "--n", "100000")
    assert code == 0
    assert len(out.strip()) == cli._decimal_digits(census.count_polygons(100000))
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run(capsys, "bfile", "--family", "pn", "--start", "14990", "--end", "15000")
    assert code == 0 and len(out.splitlines()) == 11
    assert sys.get_int_max_str_digits() == limit


@pytest.fixture
def unlimited_int_str():
    """Lift the int-to-str digit limit for one test, so str() can be the reference."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _floor_log10_2_misses():
    """Bit lengths b below 10^5 where b * 30103 // 100000 overshoots floor(b log10 2)."""
    alpha = Fraction(decimal.Context(prec=60).log10(2))
    return [b for b in range(2, 100_000) if b * 30103 // 100000 != int(b * alpha)][:6]


def test_decimal_digits_matches_str(unlimited_int_str):
    values = [1, 9, 10, 11, 99, 100, 12345, 10**50, 10**50 - 1, 2**333]
    for k in (1, 2, 17, 300, 1000, 4299, 4300, 4301, 9999, 20_000, 30_103):
        values += [10**k - 1, 10**k, 10**k + 1]
    misses = _floor_log10_2_misses()
    assert misses  # the old 30103/100000 estimate is off by one at these lengths
    for b in misses:
        values += [2**(b - 1), 2**b - 1, 2**(b - 2), 2**(b - 1) - 1]
    for v in values:
        assert cli._decimal_digits(v) == len(str(v)), v


def test_log10_2_constant_is_exact_below_2_to_64():
    alpha = Fraction(decimal.Context(prec=100).log10(2))  # correctly rounded
    slack = Fraction(1, 10**98)
    shortfall = alpha - Fraction(cli._LOG10_2, 2**cli._LOG10_2_SHIFT)
    assert -slack < shortfall < Fraction(1, 2**cli._LOG10_2_SHIFT) + slack
    # (b * _LOG10_2) >> _LOG10_2_SHIFT can fall below floor(b log10 2) only when
    # b log10 2 lies within b * shortfall above an integer.  For b < 2^64 the
    # closest approach to an integer is at the last continued-fraction
    # denominator below 2^64 (best approximation), so comparing there suffices.
    x, q, q_prev = alpha, 1, 0
    while True:
        a = x.numerator // x.denominator
        if a * q + q_prev >= 2**64:
            break
        q, q_prev = a * q + q_prev, q
        x = 1 / (x - a)
    closest = abs(q * alpha - round(q * alpha))
    assert 2**64 * (shortfall + slack) < closest - slack


def test_decimal_path_matches_str(unlimited_int_str):
    values = [0, 1, 2**511, 2**512 - 1, 2**512, 2**513 + 1]
    for k in (9_860, 9_864, 9_865, 9_870, 30_000):
        values += [10**k - 1, 10**k, 10**k + 1]
    for b in (cli._DECIMAL_FROM_BITS - 1, cli._DECIMAL_FROM_BITS, cli._DECIMAL_FROM_BITS + 1,
              65_537, 100_000):
        values.append(2**b - 1)
    rng = random.Random(5)
    values += [rng.getrandbits(rng.randrange(1, 100_000)) for _ in range(12)]
    for v in values:
        text = str(v)
        assert cli._decimal_text(v) == text, v.bit_length()
        assert cli._fmt_count(v) == text, v.bit_length()


def test_huge_count_prints_its_decimal_value(capsys, unlimited_int_str):
    code, out, _ = run(capsys, "count", "--n", "200000")
    assert code == 0 and out == str(census.count_polygons(200000)) + "\n"


# ---------------------------------------------------------------------------
# start-up


def test_import_loads_no_command_only_modules():
    # a fresh interpreter without site hooks (-S), so that nothing a site
    # file preloads can hide a module the package itself pulls in at start-up
    lazy = ("dataclasses", "inspect", "typing", "fractions", "decimal", "json", "hashlib",
            "random", "pathlib")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(perigon.__file__).resolve().parents[1])
    code = f"import perigon.cli, sys; print(*sorted(set({lazy!r}) & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=60).stdout.split()
    assert loaded == []
