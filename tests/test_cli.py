import decimal
import json
import os
import random
import stat
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


def test_count_decimal_route_at_thresholds(capsys, monkeypatch, unlimited_int_str):
    # a closed-form polygon count is built in decimal exactly when n passes
    # _decimal_path, the bit-length test of _fmt_count: above 2^15, and above
    # 3 x the int-to-str digit limit (4,300 by default) when one is set
    real = census.polygon_decimal
    built = []
    monkeypatch.setattr(census, "polygon_decimal",
                        lambda n, cyclic=False: built.append(n) or real(n, cyclic))
    cases = [(0, cli._DECIMAL_FROM_BITS + d) for d in (-1, 0, 1)]
    if hasattr(sys, "set_int_max_str_digits"):
        cases += [(4300, 3 * 4300 + d) for d in (-1, 0, 1)]
    for limit, n in cases:
        expected = str(census.count_polygons(n))
        if limit:
            sys.set_int_max_str_digits(limit)
        try:
            built.clear()
            code, out, _ = run(capsys, "count", "--n", str(n))
            assert code == 0 and out == expected + "\n", n
            code, out, _ = run(capsys, "count", "--n", str(n), "--format", "json")
            assert code == 0 and json.loads(out)["value"] == expected, n
        finally:
            if limit:
                sys.set_int_max_str_digits(0)
        threshold = 3 * limit if limit else cli._DECIMAL_FROM_BITS
        assert built == ([n, n] if n > threshold else []), (limit, n)


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
    polygons = census.polygon_values
    monkeypatch.setattr(census, "polygon_values", lambda start, end: (
        v + (n == 9) for n, v in enumerate(polygons(start, end), start)))
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
    # (family, extra arguments, first n, first printed index) -> the single-term function
    families = {
        ("pmn", ("--m", "5"), 5, 5): lambda n: census.count_mgons(n, 5),
        ("pn", (), 3, 3): census.count_polygons,
        ("pn", ("--start", "17", "--offset", "1"), 17, 1): census.count_polygons,
        ("pmn-cyclic", ("--m", "3"), 3, 3): lambda n: census.count_mgons_cyclic(n, 3),
        ("pn-cyclic", (), 3, 3): census.count_polygons_cyclic,
        ("pn-cyclic", ("--start", "17", "--offset", "1"), 17, 1): census.count_polygons_cyclic,
        ("triangles-nearest", (), 1, 1): census.triangles_nearest,
        ("quadrilaterals-nearest", (), 1, 1): census.quadrilaterals_nearest,
    }
    for (family, extra, first, base), value_fn in families.items():
        code, out, _ = run(capsys, "bfile", "--family", family, "--end", "30", *extra)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 31 - first, (family, extra)
        for n, line in enumerate(lines, first):
            index, value = map(int, line.split())
            assert index == n - first + base and value == value_fn(n), (family, extra, n)


def test_bfile_to_file_and_byte_stable(tmp_path, capsys):
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for path in paths:
        code, out, _ = run(capsys, "bfile", "--family", "pn-cyclic", "--end", "25",
                           "--out", str(path))
        assert code == 0 and out == ""
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first.decode().splitlines()[0] == "3 1"


def test_bfile_batches_keep_the_bytes(tmp_path, capsys):
    # runs of many chunks of lines that end inside one, to stdout and to --out
    for family, end, value in (("pn", 1030, census.count_polygons),
                               ("triangles-nearest", 2055, census.triangles_nearest)):
        first = 1 if family.endswith("-nearest") else 3
        expected = "".join(f"{n} {value(n)}\n" for n in range(first, end + 1))
        code, out, _ = run(capsys, "bfile", "--family", family, "--end", str(end))
        assert code == 0 and out == expected
        path = tmp_path / f"{family}.txt"
        code, out, _ = run(capsys, "bfile", "--family", family, "--end", str(end),
                           "--out", str(path))
        assert code == 0 and out == "" and path.read_bytes() == expected.encode()
    assert sorted(os.listdir(tmp_path)) == ["pn.txt", "triangles-nearest.txt"]


def test_bfile_run_stopped_partway_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    def failing(start, end, m):
        yield from census.polygon_values(start, 2000)  # many chunks written before it stops
        raise census.InternalError("stopped partway")

    monkeypatch.setitem(cli.FAMILIES, "pn", failing)
    path = tmp_path / "b_pn.txt"
    path.write_text("3 1\n")
    with pytest.raises(census.InternalError, match="stopped partway"):
        cli.main(["bfile", "--family", "pn", "--end", "3000", "--out", str(path)])
    assert path.read_text() == "3 1\n"
    assert os.listdir(tmp_path) == ["b_pn.txt"]  # no partial file left beside it
    # through a symlink, the file it names is replaced and the link kept
    monkeypatch.undo()
    link = tmp_path / "link.txt"
    link.symlink_to(path)
    assert run(capsys, "bfile", "--family", "pn", "--end", "5", "--out", str(link))[0] == 0
    assert link.is_symlink()
    assert path.read_text() == "".join(f"{n} {census.count_polygons(n)}\n" for n in (3, 4, 5))


def test_bfile_out_writes_a_pipe_in_place(tmp_path, capsys):
    # only a file is written beside itself and moved; a pipe or device such as
    # /dev/null stays what it is
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, "bfile", "--family", "pn", "--end", "5", "--out", str(fifo))[0] == 0
        assert os.read(reader, 4096).decode() == "".join(
            f"{n} {census.count_polygons(n)}\n" for n in (3, 4, 5))
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and os.listdir(tmp_path) == ["fifo"]


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


def test_verify_rejects_negative_probes(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "5", "--probes", "-3")
    assert code == 2 and out == "" and "--probes" in err
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--probes", "0")
    assert code == 0 and json.loads(out)["all_agree"] is True


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


def test_power5_bounds_enclose_powers_of_five():
    power = 1
    for k in range(1, 2001):
        power *= 5
        lo, hi, e = cli._power5_bounds(k)
        assert lo << e <= power <= hi << e, k
        # at most about 2^(log2 k) apart, out of 128 bits: the fallback is rare
        assert hi.bit_length() <= 129 and hi - lo < 1 << k.bit_length(), k
    for k in (4_300, 30_103, 65_536, 99_991, 299_999, 10**6):
        lo, hi, e = cli._power5_bounds(k)
        assert lo << e <= 5**k <= hi << e, k


def test_decimal_digits_falls_back_inside_the_bounds(unlimited_int_str):
    # 10^k - 1, 10^k and 10^k + 1 put v's top bits between the bounds, so the
    # exact comparison decides; just outside the bounds, the bounds decide alone
    for k in (60, 100, 1000, 4301, 30_103, 100_000):
        lo, hi, e = cli._power5_bounds(k)
        assert e > 0
        for v in (10**k - 1, 10**k, 10**k + 1):
            assert lo <= (v >> k) >> e < hi, k
            assert cli._decimal_digits(v) == len(str(v)), v
        for top, digits in ((hi, k + 1), (lo - 1, k)):
            v = (top << (e + k)) | ((1 << (e + k)) - 1)
            assert (v.bit_length() * cli._LOG10_2) >> cli._LOG10_2_SHIFT == k
            assert cli._decimal_digits(v) == len(str(v)) == digits, (k, top == hi)


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


def test_closed_pipe_exits_quietly():
    # the reader takes one line and closes the pipe while the command still
    # has output to write: no traceback, and the status a shell gives SIGPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(perigon.__file__).resolve().parents[1]))
    for argv in (("table", "--max-n", "200"), ("verify", "--max-n", "10"),
                 ("bfile", "--family", "pn", "--end", "3000")):
        # unbuffered, so that reading the line takes no more than it from the pipe
        proc = subprocess.Popen([sys.executable, "-m", "perigon", *argv], env=env, bufsize=0,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141, argv
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert "Traceback" not in err, (argv, err)


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
