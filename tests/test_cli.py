import decimal
import hashlib
import io
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import perigon
from perigon import census, cli, fixcount, model, numtheory, oracle, verify

CYCLIC = model.GroupKind.CYCLIC

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
    # two counts that census builds in exact decimal, a polygon and an
    # m-gon count of 12,037 and 12,034 digits: the JSON writer prints the same text
    for flags, m in ((("--n", "40000"), None), (("--n", "40000", "--m", "20000"), 20000)):
        assert isinstance(census.closed_count(40000, m), decimal.Decimal)
        code, plain, _ = run(capsys, "count", *flags)
        assert code == 0
        code, out, _ = run(capsys, "count", *flags, "--format", "json")
        assert code == 0 and json.loads(out)["value"] + "\n" == plain


def test_count_decimal_route_at_thresholds(capsys, monkeypatch, unlimited_int_str):
    # census.closed_count builds a polygon count in decimal exactly when n is
    # above _DECIMAL_FROM_BITS, whatever the int-to-str digit limit, and count
    # prints the same bytes under every limit
    real = census.polygon_decimal
    built = []
    monkeypatch.setattr(census, "polygon_decimal",
                        lambda start, end, group: built.append((start, end))
                        or real(start, end, group))
    limits = [0, 640, 4300] if hasattr(sys, "set_int_max_str_digits") else [0]
    for n in (census._DECIMAL_FROM_BITS + d for d in (-1, 0, 1)):
        expected = str(census.count_polygons(n))
        for limit in limits:
            if limit:
                sys.set_int_max_str_digits(limit)
            try:
                built.clear()
                code, out, _ = run(capsys, "count", "--n", str(n))
                assert code == 0 and out == expected + "\n", (limit, n)
                code, out, _ = run(capsys, "count", "--n", str(n), "--format", "json")
                assert code == 0 and json.loads(out)["value"] == expected, (limit, n)
            finally:
                if limit:
                    sys.set_int_max_str_digits(0)
            assert built == ([(n, n)] * 2 if n > census._DECIMAL_FROM_BITS else []), (limit, n)


def test_count_mgon_decimal_route_at_thresholds(capsys, monkeypatch, unlimited_int_str):
    # census.closed_count builds an m-gon count in decimal exactly when log2
    # C(n, m) is above _DECIMAL_FROM_BITS (C(n, m) has more bits than that,
    # being no power of two) and the product tree builds C(n, m), and count
    # prints the same bytes as the int, plain and in JSON, under every digit
    # limit.  C(n, n//2) has 32,765 to 32,772 bits for n = 32,772..32,779:
    # every n mod 4 and both parities of m, below, at (n = 32,775) and above
    # the bound
    real = census.closed_count
    built = []

    def spy(n, m, group):
        value = real(n, m, group)
        if isinstance(value, decimal.Decimal):
            built.append((n, m))
        return value

    monkeypatch.setattr(census, "closed_count", spy)
    limits = [0, 640, 4300] if hasattr(sys, "set_int_max_str_digits") else [0]
    central = [(n, m) for n in range(32_772, 32_780) for m in (n // 2, n // 2 + 1)]
    above = {(n, m) for n, m in central
             if math.comb(n, m).bit_length() > census._DECIMAL_FROM_BITS}
    assert 0 < len(above) < len(central)
    # gcd(90000, 45000) has 60 divisors, each a rotation term in decimal;
    # C(10^6, 4000) has about 41,000 bits but is math.comb's; the others are degenerate
    above.add((90_000, 45_000))
    for n, m in (*central, (90_000, 45_000), (10**6, 4000), (40_000, 40_000), (40_000, 2),
                 (40_000, 40_001)):
        for group in model.GroupKind:
            expected = str(census.count_mgons(n, m, group))
            flags = ["count", "--n", str(n), "--m", str(m)] + (["--cyclic"] if group is CYCLIC else [])
            for limit in limits:
                if limit:
                    sys.set_int_max_str_digits(limit)
                try:
                    built.clear()
                    code, out, _ = run(capsys, *flags)
                    assert code == 0 and out == expected + "\n", (limit, n, m, group)
                    code, out, _ = run(capsys, *flags, "--format", "json")
                    assert code == 0 and json.loads(out)["value"] == expected, (limit, n, m, group)
                finally:
                    if limit:
                        sys.set_int_max_str_digits(0)
                assert built == ([(n, m)] * 2 if (n, m) in above else []), (limit, n, m, group)


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


@pytest.mark.parametrize("max_n", [3, 4, 9, 12, 41, 120])
def test_table_plain_right_aligns_the_csv_cells(capsys, max_n):
    # each plain column is as wide as its longest csv cell, cells right-aligned
    # and one space apart, with no trailing blanks, and a rule above the totals
    code, out, _ = run(capsys, "table", "--max-n", str(max_n), "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = [" ".join(map(str.rjust, row, widths)).rstrip() for row in rows]
    lines.insert(-1, "-" * (sum(widths) + len(widths) - 1))
    code, out, _ = run(capsys, "table", "--max-n", str(max_n))
    assert code == 0 and out == "\n".join(lines) + "\n"


def test_table_checks_row_sums(capsys, monkeypatch):
    polygons = census.polygon_values
    monkeypatch.setattr(census, "polygon_values", lambda start, end: (
        v + (n == 9) for n, v in enumerate(polygons(start, end), start)))
    with pytest.raises(census.InternalError, match="perimeter 9"):
        cli.main(["table", "--max-n", "12", "--format", "csv"])


def test_table_holds_ints_not_text(monkeypatch):
    # the table holds the census ints and converts each row as it prints: its
    # Python allocations peak below twice its text (the cells held as text
    # took 2.6 times it), with standard output sent to a counting writer
    class Counter(io.TextIOBase):
        written = 0

        def write(self, text):
            self.written += len(text)
            return len(text)

    out = Counter()
    monkeypatch.setattr(sys, "stdout", out)
    cli.main(["table", "--max-n", "20", "--format", "csv"])  # first-call allocations
    out.written = 0
    tracemalloc.start()
    try:
        assert cli.main(["table", "--max-n", "300", "--format", "csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.written > 1.9e6 and peak < 2 * out.written, (peak, out.written)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str size guard before Python 3.10.7")
def test_table_prints_cells_past_the_digit_limit(capsys, monkeypatch, unlimited_int_str):
    # every cell, total and column width is printed through
    # census.decimal_text: a cell of more than 640 digits, the least limit the
    # interpreter takes, prints the same bytes in both formats as under none
    big = 10**700 + 7
    monkeypatch.setattr(cli, "_table", lambda max_n: ([[1, big], [big + 1]], [1, 2 * big + 1]))
    expected = {fmt: run(capsys, "table", "--max-n", "4", "--format", fmt)
                for fmt in ("csv", "plain")}
    assert all(code == 0 and str(big) in out for code, out, _ in expected.values())
    sys.set_int_max_str_digits(640)
    for fmt, printed in expected.items():
        assert run(capsys, "table", "--max-n", "4", "--format", fmt) == printed, fmt


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
        ("pmn-cyclic", ("--m", "3"), 3, 3): lambda n: census.count_mgons(n, 3, CYCLIC),
        ("pn-cyclic", (), 3, 3): lambda n: census.count_polygons(n, CYCLIC),
        ("pn-cyclic", ("--start", "17", "--offset", "1"), 17, 1):
            lambda n: census.count_polygons(n, CYCLIC),
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


def test_bfile_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a missing directory, a directory, then a move into place that fails:
    # exit status 2, one error line, and nothing left beside the target
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run(capsys, "bfile", "--family", "pn", "--end", "5", "--out", str(target))
        assert code == 2 and out == "", target
        assert err.startswith(f"error: cannot write --out {target}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "b.txt"
    code, out, err = run(capsys, "bfile", "--family", "pn", "--end", "5", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {target}: Permission denied\n"
    assert os.listdir(tmp_path) == []


def test_bfile_range_errors(capsys):
    assert run(capsys, "bfile", "--family", "pmn", "--end", "8")[0] == 2  # missing --m
    assert run(capsys, "bfile", "--family", "pn", "--m", "4", "--end", "8")[0] == 2
    assert run(capsys, "bfile", "--family", "pn", "--start", "2", "--end", "8")[0] == 2
    assert run(capsys, "bfile", "--family", "pn", "--start", "9", "--end", "8")[0] == 2
    assert run(capsys, "bfile", "--family", "nonsense", "--end", "8")[0] == 2
    assert run(capsys, "bfile", "--family", "pmn", "--m", "2", "--end", "8") == (
        2, "", "error: --m must be at least 3, got 2\n")


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


def test_verify_census_record_order():
    subjects = {"polygons", "polygons-cyclic", "mgons", "mgons-cyclic"}
    records = [c for c in verify.verify_checks(7, cli.DEFAULT_SEED, 5) if c["subject"] in subjects]
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
    assert run(capsys, "verify", "--max-n", "2") == (2, "", "error: --max-n must be at least 3, got 2\n")


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # each route in turn counts one more 4-gon of perimeter 7: the first
    # failure names it, on the side of the pair that holds the larger value.
    # The fixed-set formula's skew is seen first in the identity's class,
    # which the failure line names too
    skews = [
        (census, "count_mgons", "closed-form", "mgons",
         lambda real: lambda n, m, group: real(n, m, group) + ((n, m) == (7, 4))),
        (census, "count_mgons_via_burnside", "burnside", "mgons",
         lambda real: lambda n, m, group: real(n, m, group) + ((n, m) == (7, 4))),
        (oracle.Scan, "orbit_count", "oracle", "mgons",
         lambda real: lambda scan, group, m=None: real(scan, group, m) + ((scan.n, m) == (7, 4))),
        (fixcount, "fix_mgons", "formula", "fix-mgons",
         lambda real: lambda n, m, cls: real(n, m, cls) + ((n, m) == (7, 4))),
    ]
    for owner, name, route, subject, skew in skews:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, skew(getattr(owner, name)))
            code, out, err = run(capsys, "verify", "--max-n", "8")
        assert code == 1, route
        assert "n=7" in err and "m=4" in err
        report = json.loads(out)
        assert report["all_agree"] is False
        failure = report["first_failure"]
        assert (failure["n"], failure["m"], failure["subject"]) == (7, 4, subject)
        assert ("class=identity:" in err) == (subject == "fix-mgons"), err
        lhs, rhs = map(int, failure["values"])
        assert abs(lhs - rhs) == 1
        assert failure["pair"][lhs < rhs] == route


def test_verify_probes_detect_injected_faults(capsys, monkeypatch):
    # two faults that only the probes can see, on one orbit that the probes at
    # n = 7 reach: its members' canonical forms skewed, and its least tuple's
    # bit cleared from the cyclic minima mask.  The orbit is a bad one, so no
    # count moves, and the one failing record is the probes' at n = 7
    n, dihedral = 7, model.GroupKind.DIHEDRAL
    real_form, real_compare = oracle.canonical_form, oracle._compare
    probed = set()

    def recording_form(b, kind):
        if b.n == n:
            probed.add(real_form(b, dihedral))
        return real_form(b, kind)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "canonical_form", recording_form)
        assert all(c["agree"] for c in verify.verify_checks(8, cli.DEFAULT_SEED, 5))
    columns = oracle._columns(n)
    good = oracle._good_mask(n, columns, (1 << (1 << n)) - 1)  # over all 2^n tuples
    target = min((t for t in probed if len(set(t.bits)) == 2 and not good >> int(str(t), 2) & 1),
                 key=lambda t: t.bits)

    def skewed_form(b, kind):
        form = real_form(b, kind)
        if b.n == n and real_form(b, dihedral) == target:
            return model.CircularTuple(tuple(1 - x for x in form.bits))
        return form

    def cleared_compare(columns, full, sigma):
        less, equal = real_compare(columns, full, sigma)
        if sigma == model.GroupElement.rotation(n, 1):  # it fixes only the constant tuples
            less &= ~(1 << int(str(target), 2))
        return less, equal

    for name, skew in (("canonical_form", skewed_form), ("_compare", cleared_compare)):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, name, skew)
            code, out, err = run(capsys, "verify", "--max-n", "8")
        assert code == 1, name
        assert "n=7" in err and "canonical-probes" in err
        report = json.loads(out)
        failures = [c for c in report["checks"] if not c["agree"]]
        assert failures == [report["first_failure"]], name
        assert (failures[0]["n"], failures[0]["subject"]) == (n, "canonical-probes")


def test_verify_fix_partition_compares_two_goodness_rules(monkeypatch):
    # call the regular hexagon no polygon in the corner-gap mask only: the
    # zero-run rule still says it is not bad, so good + bad != all for every
    # symmetry, all of which fix it
    real = oracle._good_mask

    def broken(n, columns, full):
        good = real(n, columns, full)
        return good & ~(1 << 0b111111) if n == 6 else good

    monkeypatch.setattr(oracle, "_good_mask", broken)
    scan = oracle.Scan(6)
    good, every, bad = scan.fixed_counts(model.GroupElement.rotation(6, 0))
    assert sum(good) != every - bad
    partition = [c for c in verify.verify_checks(6, cli.DEFAULT_SEED, 0)
                 if c["subject"] == "fix-partition" and c["n"] == 6]
    assert partition and not any(c["agree"] for c in partition)


def test_verify_runs_one_comparator_per_element_and_group(capsys, monkeypatch):
    # each of the 66 elements of the dihedral groups for n = 3..8 is compared
    # once, in the pass of its scan's constructor over the one block, which
    # keeps both groups' orbit minima and every fixed count: no element is
    # compared again
    calls = []
    real = oracle._compare
    monkeypatch.setattr(oracle, "_compare", lambda *args: calls.append(args[2]) or real(*args))
    code, _, _ = run(capsys, "verify", "--max-n", "8")
    assert code == 0
    assert len(calls) == 66 and len(set(calls)) == 66


def test_verify_compares_every_fixed_count_within_a_class(capsys, monkeypatch):
    # one bad tuple that a non-first reflection of its class already undercuts
    # is added to that reflection's fixed set: the minima and the good count
    # stay, every and bad grow by one, and fix-class-independence fails
    n, sigma = 8, model.GroupElement.reflection(8, 2)
    first = next(t for t in model.dihedral_group(n) if model.classify(t) == model.classify(sigma))
    assert first != sigma
    real = oracle._compare

    def skewed(columns, full, element):
        less, equal = real(columns, full, element)
        if element == sigma:
            extra = less & oracle._bad_mask(n, columns, full)
            equal |= extra & -extra  # its lowest tuple
        return less, equal

    monkeypatch.setattr(oracle, "_compare", skewed)
    scan = oracle.Scan(n)
    good, every, bad = scan.fixed_counts(first)
    assert scan.fixed_counts(sigma) == (good, every + 1, bad + 1)
    code, out, err = run(capsys, "verify", "--max-n", "8")
    assert code == 1 and "fix-class-independence" in err
    failures = [c for c in json.loads(out)["checks"] if not c["agree"]]
    assert [(c["n"], c["subject"]) for c in failures] == [(n, "fix-class-independence")]


def test_verify_checks_hold_one_scan_at_a_time(monkeypatch):
    # a perimeter's scan goes when its checks end, before the next one is built
    live = peak = 0

    def gone():
        nonlocal live
        live -= 1

    class CountedScan(oracle.Scan):
        def __init__(self, n):
            nonlocal live, peak
            super().__init__(n)
            live += 1
            peak = max(peak, live)
            weakref.finalize(self, gone)

    monkeypatch.setattr(oracle, "Scan", CountedScan)
    checks = list(verify.verify_checks(10, cli.DEFAULT_SEED, 2))
    assert all(c["agree"] for c in checks)
    assert {c["n"] for c in checks} == set(range(3, 11))
    assert (peak, live) == (1, 0)


def test_verify_seed_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--max-n", "6", "--seed", "99")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize("argv, digest", [
    (("--max-n", "12"), "ec3e67ffdfaf1fccaecc009f45d115a370c7c9a1b0272960cb59e477eadab266"),
    (("--max-n", "11", "--seed", "7", "--probes", "9"),
     "c01efac1bdaa3e83de7d63df7063438fc14da015edd4797cdf1b1c834674db91"),
], ids=["max-n-12", "seed-7-probes-9"])
def test_verify_report_bytes_are_pinned(capsys, argv, digest):
    # the whole report, byte for byte: a change to how the checks are computed
    # must leave every record, value and its order as it was
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class RecordedWrites(io.StringIO):
    """A text stream that keeps the text of each write call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_verify_report_is_written_as_it_is_encoded(monkeypatch):
    # the report is json.dumps(indent=2) and a newline, written in pieces of
    # at most 8 KiB, never as one string; the encoder yields no empty piece,
    # which the writer's 64-piece chunks rely on to find the end
    out = RecordedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["verify", "--max-n", "12"]) == 0
    text = "".join(out.writes)
    assert len(text) == 104_534 and text == json.dumps(json.loads(text), indent=2) + "\n"
    assert max(map(len, out.writes)) <= 8192
    assert all(json.JSONEncoder(indent=2).iterencode(json.loads(text)))


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
    assert len(out.strip()) == census.decimal_digits(census.count_polygons(100000))
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
        assert census.decimal_digits(v) == len(str(v)), v


def test_power5_bounds_enclose_powers_of_five():
    power = 1
    for k in range(1, 2001):
        power *= 5
        lo, hi, e = census._power5_bounds(k)
        assert lo << e <= power <= hi << e, k
        # at most about 2^(log2 k) apart, out of 128 bits: the fallback is rare
        assert hi.bit_length() <= 129 and hi - lo < 1 << k.bit_length(), k
    for k in (4_300, 30_103, 65_536, 99_991, 299_999, 10**6):
        lo, hi, e = census._power5_bounds(k)
        assert lo << e <= 5**k <= hi << e, k


def test_decimal_digits_falls_back_inside_the_bounds(unlimited_int_str):
    # 10^k - 1, 10^k and 10^k + 1 put v's top bits between the bounds, so the
    # exact comparison decides; just outside the bounds, the bounds decide alone
    for k in (60, 100, 1000, 4301, 30_103, 100_000):
        lo, hi, e = census._power5_bounds(k)
        assert e > 0
        for v in (10**k - 1, 10**k, 10**k + 1):
            assert lo <= (v >> k) >> e < hi, k
            assert census.decimal_digits(v) == len(str(v)), v
        for top, digits in ((hi, k + 1), (lo - 1, k)):
            v = (top << (e + k)) | ((1 << (e + k)) - 1)
            assert (v.bit_length() * census._LOG10_2) >> census._LOG10_2_SHIFT == k
            assert census.decimal_digits(v) == len(str(v)) == digits, (k, top == hi)


def test_log10_2_constant_is_exact_below_2_to_64():
    alpha = Fraction(decimal.Context(prec=100).log10(2))  # correctly rounded
    slack = Fraction(1, 10**98)
    shortfall = alpha - Fraction(census._LOG10_2, 2**census._LOG10_2_SHIFT)
    assert -slack < shortfall < Fraction(1, 2**census._LOG10_2_SHIFT) + slack
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
    values = [0, 1]
    leaf, top = numtheory._LEAF_FROM_BITS, census._DECIMAL_FROM_BITS
    for b in (leaf - 1, leaf, leaf + 1, top - 1, top, top + 1, 65_537, 100_000):
        values += [2**b - 1, 2**b, 2**b + 1]
    for k in (9_860, 9_864, 9_865, 9_870, 30_000):
        values += [10**k - 1, 10**k, 10**k + 1]
    rng = random.Random(5)
    values += [rng.getrandbits(rng.randrange(1, 100_000)) for _ in range(12)]
    caller = decimal.getcontext()
    prec, flags = caller.prec, dict(caller.flags)
    for v in values:
        text = str(v)
        assert census.decimal_text(v) == text, v.bit_length()
        assert census.decimal_text(decimal.Decimal(text)) == text, v.bit_length()
    assert decimal.getcontext() is caller and (caller.prec, dict(caller.flags)) == (prec, flags)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str size guard before Python 3.10.7")
def test_decimal_text_reads_no_digit_limit(monkeypatch, unlimited_int_str):
    # census.decimal_text tries str() and falls back to its exact conversion
    # on the ValueError of the digit limit; it never asks for the limit
    # itself.  640 is the least nonzero limit the interpreter takes
    values = [2**b - 1 for b in (1, 1_920, 1_921, census._DECIMAL_FROM_BITS)]
    texts = [str(v) for v in values]

    def lookup():
        raise AssertionError("the digit limit was read")

    monkeypatch.setattr(sys, "get_int_max_str_digits", lookup)
    sys.set_int_max_str_digits(640)
    with pytest.raises(ValueError):
        str(values[-1])
    assert [census.decimal_text(v) for v in values] == texts


def test_huge_count_prints_its_decimal_value(capsys, unlimited_int_str):
    code, out, _ = run(capsys, "count", "--n", "200000")
    assert code == 0 and out == str(census.count_polygons(200000)) + "\n"


# ---------------------------------------------------------------------------
# process exit: each test starts a fresh interpreter, which ends through cli.run


def child_env():
    """The environment without PYTHON* settings, so that standard output is
    buffered as it is by default, and with the package on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(perigon.__file__).resolve().parents[1])
    return env


def run_process(*argv, prelude=None, module="perigon"):
    """`python -m perigon ARGV` in a fresh process; with a prelude, a fresh
    interpreter runs the prelude's code first and then the module as
    __main__, as -m does."""
    if prelude is None:
        cmd = [sys.executable, "-m", module, *argv]
    else:
        code = prelude + f"\nimport runpy\nrunpy.run_module({module!r}, run_name='__main__')"
        cmd = [sys.executable, "-c", code, *argv]
    return subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=60)


def test_process_exits_with_its_output_and_status(monkeypatch):
    done = run_process("count", "--n", "20")
    assert (done.returncode, done.stdout, done.stderr) == (0, "26452\n", "")
    done = run_process("count", "--n", "2")
    assert (done.returncode, done.stdout, done.stderr) == \
        (2, "", "error: --n must be at least 3 (a polygon needs perimeter >= 3), got 2\n")
    # main leaves --help in the buffer: run's flush writes it
    monkeypatch.setenv("COLUMNS", "80")  # the same help text in both processes
    done = run_process("--help")
    assert (done.returncode, done.stdout, done.stderr) == (0, cli.build_parser().format_help(), "")


@pytest.mark.parametrize("module", ["perigon", "perigon.cli"])
def test_process_ends_without_interpreter_teardown(module):
    # an exit handler runs in the interpreter's teardown, which run skips
    done = run_process("count", "--n", "20", module=module,
                       prelude="import atexit\natexit.register(print, 'teardown')")
    assert (done.returncode, done.stdout, done.stderr) == (0, "26452\n", "")


def test_process_exits_with_status_1_on_a_disagreement():
    skew = ("from perigon import census\n"
            "real = census.count_mgons\n"
            "census.count_mgons = lambda n, m, group: real(n, m, group) + ((n, m) == (7, 4))")
    done = run_process("verify", "--max-n", "8", prelude=skew)
    assert done.returncode == 1
    assert json.loads(done.stdout)["all_agree"] is False
    assert done.stderr == "verification failed at n=7, m=4: mgons closed-form != burnside\n"


def test_process_without_stderr_takes_the_interpreters_exit():
    # a stream that cannot be flushed leaves the exit to the interpreter,
    # with main's status and every byte main wrote (print sends the error
    # line to stdout when stderr is None)
    done = run_process("count", "--n", "2", prelude="import sys\nsys.stderr = None")
    assert (done.returncode, done.stdout, done.stderr) == \
        (2, "error: --n must be at least 3 (a polygon needs perimeter >= 3), got 2\n", "")


def test_process_bfile_out_leaves_the_whole_file(tmp_path, capsys):
    out = tmp_path / "pn.txt"
    done = run_process("bfile", "--family", "pn", "--end", "50", "--out", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert os.listdir(tmp_path) == ["pn.txt"]  # no pn.txt.part
    code, expected, _ = run(capsys, "bfile", "--family", "pn", "--end", "50")
    assert code == 0 and out.read_text() == expected and expected.count("\n") == 48


def run_closed_stdout(*argv):
    """`python -m perigon ARGV` in a fresh process started with standard
    output closed, as the shell's `>&-` leaves it."""
    cmd = ["sh", "-c", 'exec "$0" -m perigon "$@" >&-', sys.executable, *argv]
    return subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [("count", "--n", "5"), ("verify", "--max-n", "5"),
                                  ("bfile", "--family", "pn", "--end", "50"), ("--help",),
                                  ("count", "--help")],
                         ids=["count", "verify", "bfile", "help", "count-help"])
def test_process_with_stdout_closed_is_a_usage_error(argv):
    done = run_closed_stdout(*argv)
    assert (done.returncode, done.stdout, done.stderr) == \
        (2, "", "error: standard output is closed\n")


def test_process_with_stdout_closed_writes_bfile_out(tmp_path, capsys):
    out = tmp_path / "pn.txt"
    done = run_closed_stdout("bfile", "--family", "pn", "--end", "50", "--out", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert os.listdir(tmp_path) == ["pn.txt"]
    code, expected, _ = run(capsys, "bfile", "--family", "pn", "--end", "50")
    assert code == 0 and out.read_text() == expected


def test_main_returns_its_code_and_never_ends_the_process(capsys, monkeypatch):
    def ended(code):
        raise AssertionError(f"main ended the process with status {code}")

    monkeypatch.setattr(os, "_exit", ended)
    assert cli.main(["count", "--n", "20"]) == 0
    assert cli.main(["count", "--n", "2"]) == 2
    assert cli.main(["count", "--bogus"]) == 2
    assert capsys.readouterr().out == "26452\n"


def test_closed_pipe_exits_quietly():
    # the reader takes one line and closes the pipe while the command still
    # has output to write: no traceback, and the status a shell gives SIGPIPE
    env = child_env()
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
# reading the command line

# every command and option, each flag, some options in two orders, defaults left
# out, and a path with spaces that must reach the command as written
ACCEPTED = [
    ["count", "--n", "16"],
    ["count", "--n", "16", "--m", "9", "--cyclic", "--method", "burnside", "--format", "json"],
    ["count", "--format", "plain", "--method", "oracle", "--cyclic", "--m", "4", "--n", "12"],
    ["count", "--method", "closed", "--n", "16"],
    ["table", "--max-n", "9"],
    ["table", "--format", "csv", "--max-n", "9"],
    ["table", "--max-n", "9", "--format", "plain"],
    *(["bfile", "--family", family, "--end", "40"] for family in cli.FAMILIES),
    ["bfile", "--family", "pmn", "--m", "5", "--end", "40"],
    ["bfile", "--out", " b file.txt ", "--offset", "7", "--end", "40", "--start", "2",
     "--family", "triangles-nearest"],
    ["verify", "--max-n", "8"],
    ["verify", "--probes", "2", "--seed", "3", "--max-n", "8"],
    ["bench", "--n", "50"],
]

# the shapes the reader leaves to argparse that argparse refuses, or answers with help
REFUSED = [
    [], ["--help"], ["-h"], ["count", "--help"], ["count", "-h"], ["bfile", "--end", "5", "-h"],
    ["nope", "--n", "16"], ["--n", "16"], ["count", "--n", "16", "extra"],
    ["count", "--n", "16", "--bogus"], ["count", "--", "--n", "16"],
    ["count", "--n", "x"], ["count", "--n", "1.5"], ["count", "--n", ""],
    ["count", "--n", "16", "--method", "nope"], ["table", "--max-n", "9", "--format", "json"],
    ["bfile", "--family", "nope", "--end", "5"],
    ["count"], ["count", "--m", "9"], ["bfile", "--family", "pn"], ["count", "--n"],
    ["count", "--n", "16", "--cyclic", "7"], ["count", "--n", "16", "--format"],
]

# shapes argparse reads that the reader leaves to it, each with the plain spelling
# that the reader reads to the same namespace
OTHER_SPELLINGS = [
    (["count", "--n=16"], ["count", "--n", "16"]),
    (["count", "--n", "16", "--m=9"], ["count", "--n", "16", "--m", "9"]),
    (["table", "--max", "9"], ["table", "--max-n", "9"]),
    (["count", "--n", "16", "--meth", "oracle"], ["count", "--n", "16", "--method", "oracle"]),
    (["count", "--n", "17", "--n", "16"], ["count", "--n", "16"]),
    (["count", "--cyclic", "--n", "16", "--cyclic"], ["count", "--n", "16", "--cyclic"]),
]


def test_accepted_command_lines_name_every_option():
    for name, (_, _, options) in cli._COMMANDS.items():
        named = {word for argv in ACCEPTED if argv[0] == name for word in argv[1:]}
        assert {flag for flag, *_ in options} <= named, name


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_read_argv_gives_argparses_namespace(argv):
    assert vars(cli._read_argv(argv)) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", REFUSED, ids=lambda argv: " ".join(argv) or "empty")
def test_refused_command_lines_get_argparses_answer(capsys, argv):
    assert cli._read_argv(argv) is None
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    expected = (exc.value.code or 0, *capsys.readouterr())
    assert run(capsys, *argv) == expected
    assert expected[0] == (0 if "-h" in argv or "--help" in argv else 2)


@pytest.mark.parametrize("argv, plain", OTHER_SPELLINGS, ids=lambda argv: " ".join(argv))
def test_other_spellings_are_read_by_argparse(capsys, argv, plain):
    assert cli._read_argv(argv) is None
    assert vars(cli.build_parser().parse_args(argv)) == vars(cli._read_argv(plain))
    assert run(capsys, *argv) == run(capsys, *plain)


def test_negative_values_reach_the_range_checks(capsys):
    # a value that starts with "-" goes to argparse, which reads it as a
    # number, and the command then refuses it
    assert cli._read_argv(["count", "--n", "-5"]) is None
    assert run(capsys, "count", "--n", "-5") == \
        (2, "", "error: --n must be at least 3 (a polygon needs perimeter >= 3), got -5\n")
    assert cli._read_argv(["verify", "--max-n", "6", "--probes", "-1"]) is None
    assert run(capsys, "verify", "--max-n", "6", "--probes", "-1") == \
        (2, "", "error: --probes must not be negative, got -1\n")


def test_well_formed_command_line_loads_no_argparse():
    # a fresh interpreter without site hooks: main runs a well-formed `count`
    # with neither argparse, gettext nor the verification engine loaded, and
    # through `python -m perigon` a bad choice still gets argparse's message
    # and status
    code = ("import sys\nfrom perigon import cli\nstatus = cli.main(sys.argv[1:])\n"
            "print(status, *sorted({'argparse', 'gettext', 'perigon.verify'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, "count", "--n", "16"],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "2098\n0\n", "")
    done = subprocess.run([sys.executable, "-S", "-m", "perigon", "count", "--n", "16",
                           "--method", "nope"],
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: perigon count")
    assert "argument --method: invalid choice: 'nope'" in done.stderr


# ---------------------------------------------------------------------------
# start-up


def test_import_loads_no_command_only_modules():
    # a fresh interpreter without site hooks (-S), so that nothing a site
    # file preloads can hide a module the package itself pulls in at start-up
    lazy = ("dataclasses", "inspect", "typing", "fractions", "decimal", "json", "hashlib",
            "random", "pathlib", "argparse", "gettext", "perigon.verify")
    env = child_env()
    code = f"import perigon.cli, sys; print(*sorted(set({lazy!r}) & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                            capture_output=True, text=True, timeout=60).stdout.split()
    assert loaded == []
    # bench takes its SHA-256 from the interpreter's own module, which
    # hashlib falls back to: hashlib would load OpenSSL (about 3.6 MB)
    code = ("import sys\nfrom perigon import cli\nstatus = cli.main(['bench', '--n', '100'])\n"
            "print(status, *sorted({'hashlib', '_hashlib'} & set(sys.modules)), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.startswith("n 100\n") and done.stderr == "0\n"


def test_small_counts_load_no_decimal():
    # a fresh interpreter without site hooks runs small commands of each kind
    # through cli.main: none loads decimal or contextvars, which only huge
    # counts and the polygon b-files need
    commands = [["count", "--n", "16"], ["count", "--n", "20", "--m", "6", "--format", "json"],
                ["count", "--n", "60", "--m", "12", "--method", "burnside"],
                ["table", "--max-n", "30"], ["bfile", "--family", "pmn", "--m", "5", "--end", "60"]]
    code = ("import sys\nfrom perigon import cli\n"
            f"statuses = [cli.main(argv) for argv in {commands!r}]\n"
            "print(*statuses, *sorted({'decimal', 'contextvars'} & set(sys.modules)), "
            "file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(), check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.startswith("2098\n") and done.stderr == "0 0 0 0 0\n"


# ---------------------------------------------------------------------------
# the README


def test_readme_tour_states_its_values():
    # the library tour, run line by line: a line whose comment starts with an
    # integer states its expression's value, so a tour line that names a
    # missing function or shows a stale value fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    namespace: dict = {}
    checked = 0
    for line in tour.split("```", 1)[0].splitlines():
        code, _, comment = line.partition("#")
        stated = re.match(r"\s*(\d+)\b", comment)
        if stated:
            assert eval(code, namespace) == int(stated.group(1)), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked >= 8
