"""The three workloads: the `perigon` commands each runs, and the checks that
hold what each command printed against `reference.py`.

A workload is a fixed list of commands; the seed picks only parameters that
leave the amount of work unchanged (the residue of n mod 4, a prime p for the
central m-gon terms, the side count of the m-gon b-file, the verify seed, the
table cells sampled), so runs with different seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import reference as ref

PRIMES = (65521, 65519, 65497, 65479, 65449, 65447, 65437, 65423)
NUMERAL = re.compile(r"(0|[1-9][0-9]*)\n")

# verify: sweep size and canonical-form probes per perimeter
VERIFY_MAX_N = 15
VERIFY_PROBES = 5
# brute force over side lists runs up to this perimeter
BRUTE_MAX_N = 14


class CheckError(Exception):
    """A command's output disagrees with the independent computation."""


@dataclass(frozen=True)
class Command:
    key: str
    args: tuple[str, ...]
    # check(text, ctx) raises CheckError; ctx maps earlier keys to their text
    check: Callable[[str, dict[str, str]], None]
    # how to drop one item of output in the checker self-test
    drop: str = "line"
    # the output holds a timing, so it differs from round to round
    volatile: bool = False


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@lru_cache(maxsize=None)
def brute(n: int) -> dict:
    return ref.brute_force_census(n)


def primes_for(n: int, count: int = 4) -> list[int]:
    return [p for p in PRIMES if (2 * n) % p][:count]


@lru_cache(maxsize=None)
def mod_ring(p: int) -> ref.ModRing:
    return ref.ModRing(p)


# ---------------------------------------------------------------------------
# parsers


def parse_numeral(text: str) -> str:
    expect(NUMERAL.fullmatch(text) is not None, f"not one decimal numeral: {text[:40]!r}")
    return text[:-1]


def parse_int(text: str) -> int:
    digits = parse_numeral(text)
    expect(len(digits) < 4000, "value too long for an exact comparison")
    return int(digits)


def parse_bfile(text: str, start: int, end: int) -> dict[int, int]:
    lines = text.split("\n")
    expect(lines[-1] == "", "b-file does not end in a newline")
    lines = lines[:-1]
    expect(len(lines) == end - start + 1,
           f"b-file has {len(lines)} lines, expected {end - start + 1}")
    values = {}
    for i, line in enumerate(lines):
        parts = line.split(" ")
        expect(len(parts) == 2 and parts[0] == str(start + i), f"bad b-file line {line[:40]!r}")
        values[start + i] = parse_int(parts[1] + "\n")
    return values


def parse_table(text: str, max_n: int, fmt: str) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Cells {(m, n): value} and the totals row, with the shape checked."""
    ns = list(range(3, max_n + 1))
    lines = text.split("\n")
    expect(lines[-1] == "", "table does not end in a newline")
    lines = lines[:-1]
    if fmt == "csv":
        rows = [line.split(",") for line in lines]
        expect(len(rows) == len(ns) + 2, f"csv table has {len(rows)} rows")
        expect(rows[0] == ["m\\n"] + [str(n) for n in ns], "csv header is wrong")
        body, total = rows[1:-1], rows[-1]
        for m, row in zip(ns, body):
            expect(len(row) == len(ns) + 1 and row[0] == str(m), f"csv row {m} has wrong shape")
            expect(all(c == "" for c in row[1:m - 2]), f"csv row {m} fills cells with n < m")
        cells_of = {m: row[m - 2:] for m, row in zip(ns, body)}
    else:
        expect(len(lines) == len(ns) + 3, f"plain table has {len(lines)} lines")
        rows = [line.split() for line in lines]
        expect(rows[0] == ["m\\n"] + [str(n) for n in ns], "plain header is wrong")
        expect(set(lines[-2]) == {"-"} and len(lines[-2]) == len(lines[0]),
               "plain separator line is wrong")
        body, total = rows[1:-2], rows[-1]
        # blank cells are spaces, so row m lists its label and then n = m..max_n
        for m, row in zip(ns, body):
            expect(len(row) == max_n - m + 2 and row[0] == str(m), f"plain row {m} has wrong shape")
        cells_of = {m: row[1:] for m, row in zip(ns, body)}
    expect(len(total) == len(ns) + 1 and total[0] == "total", "totals row is wrong")
    cells = {}
    for m, row in cells_of.items():
        for n, cell in zip(range(m, max_n + 1), row):
            cells[(m, n)] = parse_int(cell + "\n")
    return cells, [parse_int(c + "\n") for c in total[1:]]


# ---------------------------------------------------------------------------
# checks


def check_small_count(expected: int, *routes: str):
    """An exact count, also equal to the same census printed by other routes."""
    def check(text: str, ctx: dict[str, str]) -> None:
        value = parse_int(text)
        expect(value == expected, f"value {value}, reference {expected}")
        for key in routes:
            expect(ctx[key] == text, f"route {key} printed {ctx[key]!r}, this one {text!r}")
    return check


def check_huge_count(n: int, m: int | None, cyclic: bool):
    """Digit count and leading digits from the leading-order term; exact
    residues modulo primes from the modular group sum."""
    def check(text: str, ctx: dict[str, str]) -> None:
        digits = parse_numeral(text)
        width = 30
        count, prefix, margin = ref.digits_and_prefix(ref.log10_leading(n, m, cyclic), width)
        expect(len(digits) == count, f"{len(digits)} digits, expected {count}")
        if margin > 1e-6:
            expect(int(digits[:width]) == prefix, f"leading digits {digits[:width]}, expected {prefix}")
        for p in primes_for(n):
            got = ref.mod_decimal_text(digits, p)
            want = ref.census(n, m, cyclic, mod_ring(p))
            expect(got == want, f"residue mod {p} is {got}, expected {want}")
    return check


@lru_cache(maxsize=4)
def exact_polygons(n: int) -> int:
    return ref.census(n)


def check_bench(n: int):
    def check(text: str, ctx: dict[str, str]) -> None:
        lines = text.split("\n")
        expect(len(lines) == 5 and lines[-1] == "", "bench prints four lines")
        value = exact_polygons(n)
        count, _, margin = ref.digits_and_prefix(ref.log10_leading(n, None, False), 4)
        if margin < 1e-6:   # too close to a power of ten to call from the logarithm
            count = count if value >= 10 ** (count - 1) else count - 1
        digest = hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()
        expect(lines[0] == f"n {n}", f"bad n line {lines[0]!r}")
        expect(lines[1] == f"digits {count}", f"bad digits line {lines[1]!r}")
        expect(lines[2] == f"sha256 {digest}", "sha256 differs from the reference value")
        expect(re.fullmatch(r"seconds [0-9]+\.[0-9]+", lines[3]) is not None, "bad seconds line")
    return check


def check_table(max_n: int, fmt: str, seed: int):
    def check(text: str, ctx: dict[str, str]) -> None:
        cells, totals = parse_table(text, max_n, fmt)
        ns = range(3, max_n + 1)
        for n in ns:
            expect(cells[(n, n)] == 1, f"p({n},{n}) != 1")
            expect(cells[(3, n)] == ref.honsberger(n), f"triangle row breaks Honsberger's rule at {n}")
            if n >= 4:
                expect(cells[(4, n)] == ref.quadrilateral_rule(n), f"m = 4 row breaks the cubic rule at {n}")
            column = sum(cells[(m, n)] for m in range(3, n + 1))
            expect(column == totals[n - 3], f"column {n} sums to {column}, total row says {totals[n - 3]}")
            expect(totals[n - 3] == ref.census(n), f"total p({n}) differs from the reference")
        for n in range(3, min(max_n, BRUTE_MAX_N) + 1):
            for m in range(3, n + 1):
                expect(cells[(m, n)] == brute(n)[(m, False)], f"p({m},{n}) differs from brute force")
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.randrange(3, max_n + 1)
            m = rng.randrange(3, n + 1)
            expect(cells[(m, n)] == ref.census(n, m), f"p({m},{n}) differs from the reference")
    return check


def check_bfile(family: str, start: int, end: int, m: int | None = None):
    def check(text: str, ctx: dict[str, str]) -> None:
        values = parse_bfile(text, start, end)
        for n, v in values.items():
            if family == "pn":
                want = ref.census(n)
            elif family == "pn-cyclic":
                want = ref.census(n, cyclic=True)
            elif family == "pmn":
                want = ref.census(n, m)
            elif family == "triangles-nearest":
                want = ref.honsberger(n)
                expect(n < 3 or v == ref.census(n, 3), f"rule and census differ at n={n}")
            else:
                want = ref.quadrilateral_rule(n)
                expect(n < 4 or v == ref.census(n, 4), f"rule and census differ at n={n}")
            expect(v == want, f"{family}({n}) = {v}, reference {want}")
            if n <= BRUTE_MAX_N and family in ("pn", "pn-cyclic"):
                expect(v == brute(n)[(None, family == "pn-cyclic")], f"{family}({n}) differs from brute force")
        if family == "pn" and "table-csv" in ctx:
            _, totals = parse_table(ctx["table-csv"], SWEEP_TABLE_N, "csv")
            expect(all(values[n] == totals[n - 3] for n in range(3, SWEEP_TABLE_N + 1)),
                   "pn b-file disagrees with the table totals")
        if family == "pn-cyclic" and "pn" in ctx:
            pn = parse_bfile(ctx["pn"], start, end)
            expect(all(pn[n] <= values[n] <= 2 * pn[n] for n in values),
                   "p(n) <= p_cyclic(n) <= 2 p(n) fails")
    return check


def expected_verify_records(max_n: int) -> list[tuple]:
    """(n, m, subject, pair, class) of every check `verify` reports, in order."""
    out = []
    for n in range(3, max_n + 1):
        out += [(n, None, "polygons", ("closed-form", "burnside"), None),
                (n, None, "polygons", ("closed-form", "oracle"), None),
                (n, None, "polygons-cyclic", ("closed-form", "oracle"), None)]
        for m in range(3, n + 1):
            out += [(n, m, "mgons", ("closed-form", "burnside"), None),
                    (n, m, "mgons", ("closed-form", "oracle"), None),
                    (n, m, "mgons-cyclic", ("closed-form", "oracle"), None)]
        # classes in the order the group lists them: rotations, then reflections
        classes = ["identity"] + [f"rotation({d})" for d in
                                  dict.fromkeys(n // math.gcd(n, q) for q in range(1, n))]
        classes += (["reflection-odd"] if n % 2 else
                    ["reflection-even-two-fixed-points", "reflection-even-no-fixed-point"])
        for cls in classes:
            out += [(n, None, "fix-polygons", ("formula", "direct"), cls),
                    (n, None, "fix-partition", ("good", "all-minus-bad"), cls)]
            out += [(n, m, "fix-mgons", ("formula", "direct"), cls) for m in range(3, n + 1)]
        out += [(n, None, "fix-class-independence", ("direct", "direct"), None),
                (n, None, "canonical-probes", ("oracle", "oracle"), None)]
    return out


def check_verify(max_n: int, seed: int):
    def check(text: str, ctx: dict[str, str]) -> None:
        try:
            report = json.loads(text)
        except ValueError as err:
            raise CheckError(f"verify output is not JSON: {err}") from None
        expect(report.get("schema") == "perigon-verify/1", "wrong verify schema")
        expect(report.get("max_n") == max_n and report.get("seed") == seed, "wrong max_n or seed")
        expect(report.get("all_agree") is True and report.get("first_failure") is None,
               "verify reports a disagreement")
        checks = report.get("checks")
        expect(isinstance(checks, list), "verify lists no checks")
        got = [(c.get("n"), c.get("m"), c.get("subject"), tuple(c.get("pair", ())), c.get("class"))
               for c in checks]
        want = expected_verify_records(max_n)
        expect(len(got) == len(want), f"verify made {len(got)} checks, the sweep implies {len(want)}")
        expect(got == want, "verify checks differ from the sweep's shape")
        expect(all(c.get("agree") is True for c in checks), "a verify check disagrees")
    return check


# ---------------------------------------------------------------------------
# workloads


def primes_from(start: int, count: int) -> list[int]:
    out = []
    while len(out) < count:
        if ref.factorize(start) == ((start, 1),):
            out.append(start)
        start += 1
    return out


def giant(seed: int) -> list[Command]:
    """A few huge single terms: big binomials and big decimal output.

    The m-gon terms are central ones, n = 2p and m = p for a prime p, so
    that every seed sums over the same divisors of gcd(n, m) = p and the same
    kinds of reflection.  Near m = n/2 otherwise the divisors of gcd(n, m),
    and with them the work, would change with the seed."""
    rng = random.Random(seed)
    n1 = 1_000_000 + rng.randrange(4)
    p2 = rng.choice(primes_from(100_000, 8))
    p3 = rng.choice(primes_from(75_000, 8))
    n2, m2, n3, m3 = 2 * p2, p2, 2 * p3, p3
    # the same census as the first command, hashed instead of printed in decimal
    n4 = n1
    return [
        Command("pn", ("count", "--n", str(n1)), check_huge_count(n1, None, False), "char"),
        Command("pmn", ("count", "--n", str(n2), "--m", str(m2)), check_huge_count(n2, m2, False), "char"),
        Command("pmn-cyclic", ("count", "--n", str(n3), "--m", str(m3), "--cyclic"),
                check_huge_count(n3, m3, True), "char"),
        Command("bench", ("bench", "--n", str(n4)), check_bench(n4), volatile=True),
    ]


SWEEP_TABLE_N = 300
SWEEP_BFILE_N = 5000
SWEEP_NEAREST_N = 10_000


def sweep(seed: int) -> list[Command]:
    """Many small and medium terms, as a table or b-file user asks for them."""
    rng = random.Random(seed)
    m = rng.randrange(5, 9)
    t, b, e = SWEEP_TABLE_N, SWEEP_BFILE_N, SWEEP_NEAREST_N
    return [
        Command("table-csv", ("table", "--max-n", str(t), "--format", "csv"),
                check_table(t, "csv", seed), "cell"),
        Command("table-plain", ("table", "--max-n", str(t)), check_table(t, "plain", seed), "cell"),
        Command("pn", ("bfile", "--family", "pn", "--end", str(b)), check_bfile("pn", 3, b)),
        Command("pn-cyclic", ("bfile", "--family", "pn-cyclic", "--end", str(b)),
                check_bfile("pn-cyclic", 3, b)),
        Command("pmn", ("bfile", "--family", "pmn", "--m", str(m), "--end", str(b)),
                check_bfile("pmn", m, b, m)),
        Command("triangles", ("bfile", "--family", "triangles-nearest", "--end", str(e)),
                check_bfile("triangles-nearest", 1, e)),
        Command("quadrilaterals", ("bfile", "--family", "quadrilaterals-nearest", "--end", str(e)),
                check_bfile("quadrilaterals-nearest", 1, e)),
    ]


CROSS_ORACLE_N = 16


def crosscheck(seed: int) -> list[Command]:
    """The three routes against each other: verify's sweep, the oracle at its
    practical size, and a grid of group-average (burnside) counts."""
    rng = random.Random(seed)
    vseed = rng.randrange(10**6)
    n = CROSS_ORACLE_N
    m = rng.randrange(3, n + 1)
    nm = ("--n", str(n), "--m", str(m))
    cmds = [
        Command("verify", ("verify", "--max-n", str(VERIFY_MAX_N), "--seed", str(vseed),
                           "--probes", str(VERIFY_PROBES)),
                check_verify(VERIFY_MAX_N, vseed), "record"),
        Command("closed-pmn", ("count", *nm), check_small_count(ref.census(n, m)), "char"),
        Command("burnside-pmn", ("count", *nm, "--method", "burnside"),
                check_small_count(ref.census(n, m), "closed-pmn"), "char"),
        Command("oracle-pmn", ("count", *nm, "--method", "oracle"),
                check_small_count(ref.census(n, m), "closed-pmn", "burnside-pmn"), "char"),
        Command("closed-pn-cyclic", ("count", "--n", str(n), "--cyclic"),
                check_small_count(ref.census(n, cyclic=True)), "char"),
        Command("oracle-pn-cyclic", ("count", "--n", str(n), "--cyclic", "--method", "oracle"),
                check_small_count(ref.census(n, cyclic=True), "closed-pn-cyclic"), "char"),
    ]
    # group averages at every residue of n mod 4, for both parities of m
    for r in range(4):
        gn = 4 * rng.randrange(10, 40) + r
        gm = 2 * rng.randrange(2, gn // 2 - 1) + rng.randrange(2)
        cmds.append(Command(f"burnside-{r}", ("count", "--n", str(gn), "--m", str(gm), "--method", "burnside"),
                            check_small_count(ref.census(gn, gm)), "char"))
    return cmds


WORKLOADS = {"giant": giant, "sweep": sweep, "crosscheck": crosscheck}
# which calibration in run.py scales each workload's command timings: giant's
# time is big-integer work in C, which the machine's slowdowns touch less
# than they touch a process's start-up and the interpreter
SCALE_BY = {"giant": "work", "sweep": "process", "crosscheck": "process"}


# ---------------------------------------------------------------------------
# checker self-test


def corrupt(text: str, how: str, rng: random.Random) -> str:
    """One changed digit, or one dropped item (line, table cell, verify
    record, or the last character of a numeral)."""
    if how == "digit":
        # the timing line of `bench` is the one unchecked part of any output
        stop = text.find("\nseconds ")
        limit = stop if stop >= 0 else len(text)
        spots = [i for i in range(limit) if text[i].isdigit()]
        i = rng.choice(spots)
        return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    if how == "char":
        return text[:-2] + "\n"
    if how == "line":
        lines = text.split("\n")
        i = rng.randrange(len(lines) - 2)
        return "\n".join(lines[:i] + lines[i + 1:])
    if how == "cell":
        lines = text.split("\n")
        i = rng.randrange(1, len(lines) - 3)
        sep = "," if "," in lines[0] else " "
        cells = lines[i].split(sep)
        j = max(k for k, c in enumerate(cells) if c)
        lines[i] = sep.join(cells[:j] + cells[j + 1:])
        return "\n".join(lines)
    if how == "record":
        report = json.loads(text)
        del report["checks"][rng.randrange(len(report["checks"]))]
        return json.dumps(report, indent=2) + "\n"
    raise ValueError(how)


def self_test(commands: list[Command], outputs: dict[str, str], seed: int) -> list[str]:
    """Problems found: references that disagree with brute force, or a
    checker that accepts a corrupted output.  Empty means all is well."""
    problems = []
    for n in range(3, BRUTE_MAX_N + 1):
        b = brute(n)
        for (m, cyclic), count in b.items():
            if ref.census(n, m, cyclic) != count:
                problems.append(f"reference census({n}, {m}, cyclic={cyclic}) differs from brute force")
    for n, m in ((1001, 500), (1002, 501), (1003, 7), (1000, None), (999, None)):
        for cyclic in (False, True):
            exact = ref.census(n, m, cyclic)
            for p in primes_for(n, 2):
                if ref.census(n, m, cyclic, mod_ring(p)) != exact % p:
                    problems.append(f"modular census({n}, {m}) mod {p} differs from the exact one")
    rng = random.Random(seed)
    for cmd in commands:
        for how in ("digit", cmd.drop):
            bad = corrupt(outputs[cmd.key], how, rng)
            try:
                cmd.check(bad, outputs)
            except CheckError:
                continue
            problems.append(f"check of {cmd.key} accepted an output with one {how} corrupted")
    return problems
