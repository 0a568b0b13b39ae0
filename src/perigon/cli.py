"""Command-line front end: single counts, tables, b-files, verification, timing.

Exit codes: 0 on success (and on a fully agreeing verify run), 1 when a
verification cross-check disagrees, 2 for usage or range errors, 141 when
the reader closes standard output before the command has written it all.

Start-up is part of every command's cost, so a standard-library module that
only some commands use (decimal, hashlib, json, random) is imported inside
the function that uses it, not here.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import islice

from . import census, fixcount, model, oracle

__all__ = ["main"]

REPORT_SCHEMA = "perigon-report/1"
VERIFY_SCHEMA = "perigon-verify/1"

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process a closed pipe stopped

DEFAULT_SEED = 1729

# b-file families: values(start, end, m), the run of terms for n = start..end,
# looking the census function up at call time
FAMILIES = {
    "pmn": lambda start, end, m: (census.count_mgons(n, m) for n in range(start, end + 1)),
    "pn": lambda start, end, m: census.polygon_values(start, end),
    "pmn-cyclic": lambda start, end, m: (census.count_mgons_cyclic(n, m)
                                         for n in range(start, end + 1)),
    "pn-cyclic": lambda start, end, m: census.polygon_values(start, end, cyclic=True),
    "triangles-nearest": lambda start, end, m: map(census.triangles_nearest,
                                                   range(start, end + 1)),
    "quadrilaterals-nearest": lambda start, end, m: map(census.quadrilaterals_nearest,
                                                        range(start, end + 1)),
}


class CliError(Exception):
    """Usage or range error; reported on stderr and mapped to exit status 2."""


# ---------------------------------------------------------------------------
# shared helpers


# floor(log10(2) * 2^144): (b * _LOG10_2) >> _LOG10_2_SHIFT is floor(b log10(2))
# for every bit length b < 2^64, far beyond any int that fits in memory (the
# test suite proves it from the continued fraction of log10(2))
_LOG10_2_SHIFT = 144
_LOG10_2 = 6713193230417222942720793591814765458232150


def _power5_bounds(k: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= 5^k <= hi * 2^e, where lo and hi keep the
    top 128 bits of 5^k: binary powering with every product cut to 128 bits,
    rounded down for lo and up for hi.  About log2 k small multiplies."""
    lo = hi = 1
    e = 0
    for bit in bin(k)[2:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi = 5 * lo, 5 * hi
        s = max(hi.bit_length() - 128, 0)
        lo, hi, e = lo >> s, -(-hi >> s), e + s
    return lo, hi, e


def _decimal_digits(v: int) -> int:
    """Digit count without converting to a decimal string (cheap for huge v)."""
    v = abs(v)
    if v == 0:
        return 1
    # 2^(b-1) <= v < 2^b puts the digit count at k or k + 1; v >= 10^k iff v >> k >= 5^k
    k = (v.bit_length() * _LOG10_2) >> _LOG10_2_SHIFT
    lo, hi, e = _power5_bounds(k)
    top = (v >> k) >> e
    if top >= hi:
        return k + 1
    if top < lo:
        return k
    return k + 1 if (v >> k) >= 5**k else k  # v's top bits fall between the bounds


# str(int) is quadratic on CPython before 3.12; above this many bits the
# split into decimal halves below is faster (measured on 3.10, 3.11 and 3.12)
_DECIMAL_FROM_BITS = 32_768
_DECIMAL_LEAF_BITS = 512


def _decimal_text(v: int) -> str:
    """Decimal text of v >= 0 by divide and conquer: v = hi * 2^h + lo, with
    hi and lo converted recursively and recombined in exact decimal
    arithmetic, where multiplication is subquadratic (the method of
    CPython 3.12's Lib/_pylong.py)."""
    import decimal

    exact = census._exact_context()
    powers: dict[int, decimal.Decimal] = {}  # 2^w for the widths of this one call

    def power(w: int) -> decimal.Decimal:
        if w not in powers:
            if w <= _DECIMAL_LEAF_BITS:
                powers[w] = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                powers[w] = exact.add(powers[w - 1], powers[w - 1])
            else:
                powers[w] = exact.multiply(power(w >> 1), power(w - (w >> 1)))
        return powers[w]

    def convert(v: int, w: int) -> decimal.Decimal:
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(v)
        h = w >> 1
        hi = v >> h
        return exact.add(exact.multiply(convert(hi, w - h), power(h)),
                         convert(v - (hi << h), h))

    return str(convert(v, v.bit_length()))


def _decimal_path(bits: int) -> bool:
    """Whether an int of this many bits is printed through decimal arithmetic:
    a large one, or one that str() would refuse under the interpreter's
    int-to-str digit limit."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    # 10^limit > 2^(3 limit), so str() accepts every int of at most 3 limit bits
    return bits > _DECIMAL_FROM_BITS or 0 < 3 * limit < bits


def _fmt_count(v) -> str:
    """Decimal text of a count (v >= 0): an int, or a Decimal that
    census.polygon_decimal built exactly."""
    if not isinstance(v, int) or not _decimal_path(v.bit_length()):
        return str(v)
    return _decimal_text(v)


def _evaluate_count(n: int, m: int | None, cyclic: bool, method: str):
    """The count by one route: an int, or a Decimal for a closed-form
    polygon count when n passes _decimal_path (the count has fewer than n
    bits, so every count that would take the decimal path does)."""
    if method == "closed":
        if m is None:
            if _decimal_path(n):
                return census.polygon_decimal(n, cyclic)
            return census.count_polygons_cyclic(n) if cyclic else census.count_polygons(n)
        return census.count_mgons_cyclic(n, m) if cyclic else census.count_mgons(n, m)
    group = model.GroupKind.CYCLIC if cyclic else model.GroupKind.DIHEDRAL
    if method == "burnside":
        if m is None:
            return census.count_polygons_via_burnside(n, group)
        return census.count_mgons_via_burnside(n, m, group)
    return oracle.orbit_count(n, group, weight=m)


METHOD_NAMES = {"closed": "closed-form", "burnside": "burnside", "oracle": "oracle"}


# ---------------------------------------------------------------------------
# count


def cmd_count(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    if n < 3:
        raise CliError(f"--n must be at least 3 (a polygon needs perimeter >= 3), got {n}")
    if args.method == "oracle" and n > oracle.ORACLE_MAX_N:
        raise CliError(f"--n {n} exceeds the oracle bound {oracle.ORACLE_MAX_N}")
    value = _evaluate_count(n, m, args.cyclic, args.method)
    if args.format == "json":
        import json

        report = {
            "schema": REPORT_SCHEMA,
            "n": n,
            "m": m,
            "cyclic": args.cyclic,
            "method": METHOD_NAMES[args.method],
            "value": _fmt_count(value),
            "agreement": None,
        }
        print(json.dumps(report, indent=2))
    else:
        print(_fmt_count(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def _table_rows(max_n: int) -> list[list[str]]:
    """The m-gon triangle, row m holding p(m, n) for n = 3..max_n (blank
    where m > n), then the totals p(n); filled one perimeter at a time."""
    ns = range(3, max_n + 1)
    triangle = [[str(m)] + [""] * (m - 3) for m in ns]
    totals = ["total"]
    for (n, column), total in zip(census.mgon_columns(max_n), census.polygon_values(3, max_n)):
        for row, value in zip(triangle, column):
            row.append(str(value))
        if sum(column) != total:  # sum over m of p(m, n) is p(n)
            raise census.InternalError(f"the m-gon counts at perimeter {n} sum to "
                                       f"{sum(column)}, not p({n}) = {total}")
        totals.append(str(total))
    return [["m\\n"] + [str(n) for n in ns], *triangle, totals]


def cmd_table(args: argparse.Namespace) -> int:
    if args.max_n < 3:
        raise CliError(f"--max-n must be at least 3, got {args.max_n}")
    rows = _table_rows(args.max_n)
    if args.format == "csv":
        for row in rows:
            print(",".join(row))
        return EXIT_OK
    widths = [max(map(len, col)) for col in zip(*rows)]
    for row in rows[:-1]:
        print(" ".join(map(str.rjust, row, widths)).rstrip())
    print("-" * (sum(widths) + len(widths) - 1))
    print(" ".join(map(str.rjust, rows[-1], widths)).rstrip())
    return EXIT_OK


# ---------------------------------------------------------------------------
# b-files


def cmd_bfile(args: argparse.Namespace) -> int:
    lo = 1 if args.family.endswith("-nearest") else 3  # the nearest rules start at 1
    if args.family in ("pmn", "pmn-cyclic"):
        if args.m is None:
            raise CliError(f"--family {args.family} needs --m")
        if args.m < 3:
            raise CliError(f"--m must be at least 3, got {args.m}")
        lo = args.m
    elif args.m is not None:
        raise CliError(f"--m applies to the pmn families only, not {args.family}")
    start = args.start if args.start is not None else lo
    if start < lo:
        raise CliError(f"--start {start} is below the smallest valid index {lo} "
                       f"for family {args.family}")
    if args.end < start:
        raise CliError(f"--end {args.end} is below --start {start}")
    values = FAMILIES[args.family](start, args.end, args.m)
    base = args.offset if args.offset is not None else start
    lines = (f"{i} {_fmt_count(v)}\n" for i, v in enumerate(values, base))
    if not args.out:
        _write_chunks(sys.stdout, lines)
        return EXIT_OK
    import os

    path = os.path.realpath(args.out)  # through a symlink, as open() writes
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as out:  # a device or pipe, such as /dev/null
            _write_chunks(out, lines)
        return EXIT_OK
    # a file is written beside itself and moved into place whole, so that a
    # run stopped partway leaves an earlier file as it was
    part = f"{path}.part"
    try:
        with open(part, "w") as out:
            _write_chunks(out, lines)
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise
    return EXIT_OK


def _write_chunks(out, lines) -> None:
    """Write the lines 64 at a time, one write call per chunk: a pipe's
    reader then wakes once per chunk, not once per 8 KB buffer flush as with
    out.writelines (measured: 25 ms more for the 3.8 MB of `bfile --family pn
    --end 5000` read through a pipe), and only one chunk of text is held."""
    while chunk := "".join(islice(lines, 64)):
        out.write(chunk)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    import json
    import random

    max_n = args.max_n
    if max_n < 3:
        raise CliError(f"--max-n must be at least 3, got {max_n}")
    if args.probes < 0:
        raise CliError(f"--probes must not be negative, got {args.probes}")
    if max_n > oracle.ORACLE_MAX_N:
        raise CliError(f"--max-n {max_n} exceeds the oracle bound {oracle.ORACLE_MAX_N}")

    rng = random.Random(args.seed)
    checks: list[dict] = []
    failure: dict | None = None

    def record(entry: dict, lhs: int, rhs: int) -> None:
        nonlocal failure
        entry["agree"] = lhs == rhs
        if not entry["agree"]:
            entry["values"] = [str(lhs), str(rhs)]
            if failure is None:
                failure = entry
        checks.append(entry)

    for n in range(3, max_n + 1):
        for m in (None, *range(3, n + 1)):
            for cyclic, method in ((False, "burnside"), (False, "oracle"), (True, "oracle")):
                subject = ("polygons" if m is None else "mgons") + ("-cyclic" if cyclic else "")
                record({"n": n, "m": m, "subject": subject,
                        "pair": [METHOD_NAMES["closed"], METHOD_NAMES[method]]},
                       _evaluate_count(n, m, cyclic, "closed"),
                       _evaluate_count(n, m, cyclic, method))

        # fixed-set formulas per element class, plus same-count within a class
        seen: dict[model.ElementClass, int] = {}
        independent = True
        for sigma in model.dihedral_group(n):
            cls = model.classify(sigma)
            direct_good = oracle.fix_count_direct(n, sigma, oracle.TupleSet.GOOD)
            if cls not in seen:
                seen[cls] = direct_good
                record({"n": n, "m": None, "subject": "fix-polygons",
                        "class": str(cls), "pair": ["formula", "direct"]},
                       fixcount.fix_polygons(n, cls), direct_good)
                record({"n": n, "m": None, "subject": "fix-partition",
                        "class": str(cls), "pair": ["good", "all-minus-bad"]},
                       direct_good,
                       oracle.fix_count_direct(n, sigma, oracle.TupleSet.ALL)
                       - oracle.fix_count_direct(n, sigma, oracle.TupleSet.BAD))
                for m in range(3, n + 1):
                    record({"n": n, "m": m, "subject": "fix-mgons",
                            "class": str(cls), "pair": ["formula", "direct"]},
                           fixcount.fix_mgons(n, m, cls),
                           oracle.fix_count_direct(n, sigma, oracle.TupleSet.GOOD,
                                                   weight=m))
            elif seen[cls] != direct_good:
                independent = False
        record({"n": n, "m": None, "subject": "fix-class-independence",
                "pair": ["direct", "direct"]}, independent, True)

        # randomized canonical-form probes: every member of a random tuple's
        # orbit has the explicit orbit minimum as its canonical form, and the
        # minimum is the one member set in the oracle's orbit-minima mask
        probes_ok = True
        for _ in range(args.probes):
            a = model.CircularTuple(tuple(rng.randrange(2) for _ in range(n)))
            for kind in model.GroupKind:
                orbit = {model.apply(g, a) for g in model.dihedral_group(n)
                         if kind is model.GroupKind.DIHEDRAL or not g.is_reflection}
                least = min(orbit, key=lambda t: t.bits)
                if ([b for b in orbit if oracle.is_orbit_minimum(b, kind)] != [least]
                        or any(oracle.canonical_form(b, kind) != least for b in orbit)):
                    probes_ok = False
        record({"n": n, "m": None, "subject": "canonical-probes",
                "pair": ["oracle", "oracle"]}, probes_ok, True)

    report = {
        "schema": VERIFY_SCHEMA,
        "max_n": max_n,
        "seed": args.seed,
        "all_agree": failure is None,
        "first_failure": failure,
        "checks": checks,
    }
    print(json.dumps(report, indent=2))
    if failure is not None:
        where = f"n={failure['n']}" + (f", m={failure['m']}" if failure.get("m") else "")
        if "class" in failure:
            where += f", class={failure['class']}"
        print(f"verification failed at {where}: {failure['subject']} "
              f"{failure['pair'][0]} != {failure['pair'][1]}", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args: argparse.Namespace) -> int:
    n = args.n
    if n < 3:
        raise CliError(f"--n must be at least 3, got {n}")
    import hashlib

    started = time.perf_counter()
    value = census.count_polygons(n)
    elapsed = time.perf_counter() - started
    # hash the big-endian bytes: bit-for-bit reproducibility without the cost
    # of a decimal conversion on very large results
    digest = hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()
    print(f"n {n}")
    print(f"digits {_decimal_digits(value)}")
    print(f"sha256 {digest}")
    print(f"seconds {elapsed:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perigon",
        description="Exact census of integer polygons and m-gons by perimeter.")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print one census value")
    count.add_argument("--n", type=int, required=True, help="perimeter")
    count.add_argument("--m", type=int, default=None,
                       help="side count (omit to count polygons of any side count)")
    count.add_argument("--cyclic", action="store_true",
                       help="quotient by rotations only (no reversals)")
    count.add_argument("--method", choices=("closed", "burnside", "oracle"),
                       default="closed", help="evaluation route")
    count.add_argument("--format", choices=("plain", "json"), default="plain")
    count.set_defaults(handler=cmd_count)

    table = sub.add_parser("table", help="emit the m-gon triangle and polygon totals")
    table.add_argument("--max-n", type=int, required=True, help="largest perimeter")
    table.add_argument("--format", choices=("plain", "csv"), default="plain")
    table.set_defaults(handler=cmd_table)

    bfile = sub.add_parser("bfile", help="emit a sequence in OEIS b-file format")
    bfile.add_argument("--family", choices=FAMILIES, required=True)
    bfile.add_argument("--m", type=int, default=None,
                       help="side count, for the pmn families")
    bfile.add_argument("--start", type=int, default=None,
                       help="first n (default: the family minimum)")
    bfile.add_argument("--end", type=int, required=True, help="last n, inclusive")
    bfile.add_argument("--offset", type=int, default=None,
                       help="override the printed start index")
    bfile.add_argument("--out", type=str, default=None,
                       help="output path (default: standard output)")
    bfile.set_defaults(handler=cmd_bfile)

    verify = sub.add_parser("verify",
                            help="cross-check closed forms, group averages and the oracle")
    verify.add_argument("--max-n", type=int, required=True,
                        help=f"sweep perimeters 3..max-n (at most {oracle.ORACLE_MAX_N})")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the randomized probes")
    verify.add_argument("--probes", type=int, default=5,
                        help="randomized canonical-form probes per perimeter")
    verify.set_defaults(handler=cmd_verify)

    bench = sub.add_parser("bench", help="time one polygon count")
    bench.add_argument("--n", type=int, required=True, help="perimeter")
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors; surface the code
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader stopped early: exit quietly, with stdout pointed at the
        # null device so that the interpreter's exit-time flush cannot fail again
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
