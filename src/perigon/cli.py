"""Command-line front end: single counts, tables, b-files, verification, timing.

Exit codes: 0 on success (and on a fully agreeing verify run), 1 when a
verification cross-check disagrees, 2 for usage or range errors, 141 when
the reader closes standard output before the command has written it all.
`main` returns the code and never ends the process; `run`, the entry of
`python -m perigon`, `python -m perigon.cli` and the `perigon` script,
calls `main`, flushes standard output and error, and ends the process
with the code without tearing the interpreter down.

`census` types, prints and digit-counts every count, and perigon.verify
makes the checks that `verify` reports: this module holds neither rule.

Start-up is part of every command's cost, so a module that only some
commands use (json, perigon.verify, bench's SHA-256) is imported inside
the function that uses it, not here.  argparse too loads only for help and
usage errors: main reads a well-formed command line from _COMMANDS itself.
"""

from __future__ import annotations

import os
import sys
import time
from itertools import islice
from types import SimpleNamespace

from . import census, model, oracle

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at start-up
if TYPE_CHECKING:
    import argparse
    from typing import NoReturn

__all__ = ["main", "run"]

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
    "pmn": lambda start, end, m: census.mgon_values(m, start, end),
    "pn": lambda start, end, m: census.polygon_decimal(start, end),
    "pmn-cyclic": lambda start, end, m: census.mgon_values(m, start, end, model.GroupKind.CYCLIC),
    "pn-cyclic": lambda start, end, m: census.polygon_decimal(start, end, model.GroupKind.CYCLIC),
    "triangles-nearest": lambda start, end, m: map(census.triangles_nearest,
                                                   range(start, end + 1)),
    "quadrilaterals-nearest": lambda start, end, m: map(census.quadrilaterals_nearest,
                                                        range(start, end + 1)),
}


class CliError(Exception):
    """Usage or range error; reported on stderr and mapped to exit status 2."""


# ---------------------------------------------------------------------------
# count


METHOD_NAMES = {"closed": "closed-form", "burnside": "burnside", "oracle": "oracle"}


def _evaluate_count(n: int, m: int | None, group: model.GroupKind, method: str):
    """The count by one route; census.closed_count picks the closed form's int or Decimal."""
    if method == "closed":
        return census.closed_count(n, m, group)
    if method == "burnside":
        if m is None:
            return census.count_polygons_via_burnside(n, group)
        return census.count_mgons_via_burnside(n, m, group)
    return oracle.orbit_count(n, group, weight=m)


def cmd_count(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    if n < 3:
        raise CliError(f"--n must be at least 3 (a polygon needs perimeter >= 3), got {n}")
    if args.method == "oracle" and n > oracle.ORACLE_MAX_N:
        raise CliError(f"--n {n} exceeds the oracle bound {oracle.ORACLE_MAX_N}")
    group = model.GroupKind.CYCLIC if args.cyclic else model.GroupKind.DIHEDRAL
    value = _evaluate_count(n, m, group, args.method)
    if args.format == "json":
        _write_json({
            "schema": REPORT_SCHEMA,
            "n": n,
            "m": m,
            "cyclic": args.cyclic,
            "method": METHOD_NAMES[args.method],
            "value": census.decimal_text(value),
            "agreement": None,
        })
    else:
        print(census.decimal_text(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def _table(max_n: int) -> tuple[list[list[int]], list[int]]:
    """The m-gon triangle, row m holding p(m, n) for n = m..max_n, and the
    totals p(n) for n = 3..max_n; filled one perimeter at a time.  A cell is
    an int until its row prints: at max_n = 300, 2.4 MB against 4.4 MB of text."""
    triangle = [[] for _ in range(3, max_n + 1)]
    totals = []
    for (n, column), total in zip(census.mgon_columns(max_n), census.polygon_values(3, max_n)):
        for row, value in zip(triangle, column):
            row.append(value)
        if sum(column) != total:  # sum over m of p(m, n) is p(n)
            raise census.InternalError(f"the m-gon counts at perimeter {n} sum to "
                                       f"{sum(column)}, not p({n}) = {total}")
        totals.append(total)
    return triangle, totals


def cmd_table(args: argparse.Namespace) -> int:
    max_n = args.max_n
    if max_n < 3:
        raise CliError(f"--max-n must be at least 3, got {max_n}")
    triangle, totals = _table(max_n)
    header = ["m\\n", *map(str, range(3, max_n + 1))]
    footer = ["total", *map(census.decimal_text, totals)]
    if args.format == "csv":
        print(",".join(header))
        for m, row in enumerate(triangle, 3):  # a blank cell for each n < m
            print(str(m) + "," * (m - 2) + ",".join(map(census.decimal_text, row)))
        print(",".join(footer))
        return EXIT_OK
    # each column is as wide as its largest count: n, or the total, which is
    # the sum of the column's counts; the first column holds m\\n, 3..max_n and total
    widths = [max(len(footer[0]), len(header[-1])), *map(max, map(len, header[1:]),
                                                          map(len, footer[1:]))]
    print(" ".join(map(str.rjust, header, widths)))
    lead = 0  # the width of row m's blank cells, for n < m, printed as one run of spaces
    for m, row in enumerate(triangle, 3):
        print(str(m).rjust(widths[0]),
              " " * lead + " ".join(map(str.rjust, map(census.decimal_text, row), widths[m - 2:])))
        lead += widths[m - 2] + 1
    print("-" * (sum(widths) + len(widths) - 1))
    print(" ".join(map(str.rjust, footer, widths)))
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
    lines = (f"{i} {census.decimal_text(v)}\n" for i, v in enumerate(values, base))
    if not args.out:
        _write_chunks(sys.stdout, lines)
        return EXIT_OK
    path = os.path.realpath(args.out)  # through a symlink, as open() writes
    if os.path.exists(path) and not os.path.isfile(path):
        with _for_out(args.out, open, path, "w") as out:  # a device or pipe, such as /dev/null
            _write_chunks(out, lines)
        return EXIT_OK
    # a file is written beside itself and moved into place whole, so that a
    # run stopped partway leaves an earlier file as it was
    part = f"{path}.part"
    try:
        with _for_out(args.out, open, part, "w") as out:
            _write_chunks(out, lines)
        _for_out(args.out, os.replace, part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise
    return EXIT_OK


def _for_out(name: str, call, *args):
    """call(*args), with an OSError reported as a usage error about --out name."""
    try:
        return call(*args)
    except OSError as err:
        raise CliError(f"cannot write --out {name}: {err.strerror}") from None


def _write_chunks(out, lines) -> None:
    """Write the lines 64 at a time, one write call per chunk: a pipe's
    reader then wakes once per chunk, not once per 8 KB buffer flush as with
    out.writelines (measured: 25 ms more for the 3.8 MB of `bfile --family pn
    --end 5000` read through a pipe), and only one chunk of text is held."""
    while chunk := "".join(islice(lines, 64)):
        out.write(chunk)


def _write_json(report: dict) -> None:
    """print(json.dumps(report, indent=2)), written as it is encoded: no whole text is held."""
    import json
    # the encoder yields no empty piece, so a chunk is empty only at the end
    _write_chunks(sys.stdout, json.JSONEncoder(indent=2).iterencode(report))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_checks

    max_n = args.max_n
    if max_n < 3:
        raise CliError(f"--max-n must be at least 3, got {max_n}")
    if args.probes < 0:
        raise CliError(f"--probes must not be negative, got {args.probes}")
    if max_n > oracle.ORACLE_MAX_N:
        raise CliError(f"--max-n {max_n} exceeds the oracle bound {oracle.ORACLE_MAX_N}")
    checks = list(verify_checks(max_n, args.seed, args.probes))
    failure = next((check for check in checks if not check["agree"]), None)
    _write_json({
        "schema": VERIFY_SCHEMA,
        "max_n": max_n,
        "seed": args.seed,
        "all_agree": failure is None,
        "first_failure": failure,
        "checks": checks,
    })
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
    try:  # the interpreter's own SHA-256, which hashlib falls back to: no OpenSSL load
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from _sha256 import sha256  # Python 3.10-3.11

    started = time.perf_counter()
    value = census.count_polygons(n)
    elapsed = time.perf_counter() - started
    # hash the big-endian bytes: bit-for-bit reproducibility without the cost
    # of a decimal conversion on very large results
    digest = sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()
    print(f"n {n}")
    print(f"digits {census.decimal_digits(value)}")
    print(f"sha256 {digest}")
    print(f"seconds {elapsed:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


_REQUIRED = object()  # the default of an option that must be given

# every command: its help, its handler and its options; an option is (flag,
# kind, default, help), its dest the flag without "--" and with "-" as "_";
# kind int or str takes a value, bool is a flag, and a tuple takes one of its values
_COMMANDS = {
    "count": ("print one census value", cmd_count, (
        ("--n", int, _REQUIRED, "perimeter"),
        ("--m", int, None, "side count (omit to count polygons of any side count)"),
        ("--cyclic", bool, False, "quotient by rotations only (no reversals)"),
        ("--method", ("closed", "burnside", "oracle"), "closed", "evaluation route"),
        ("--format", ("plain", "json"), "plain", None))),
    "table": ("emit the m-gon triangle and polygon totals", cmd_table, (
        ("--max-n", int, _REQUIRED, "largest perimeter"),
        ("--format", ("plain", "csv"), "plain", None))),
    "bfile": ("emit a sequence in OEIS b-file format", cmd_bfile, (
        ("--family", tuple(FAMILIES), _REQUIRED, None),
        ("--m", int, None, "side count, for the pmn families"),
        ("--start", int, None, "first n (default: the family minimum)"),
        ("--end", int, _REQUIRED, "last n, inclusive"),
        ("--offset", int, None, "override the printed start index"),
        ("--out", str, None, "output path (default: standard output)"))),
    "verify": ("cross-check closed forms, group averages and the oracle", cmd_verify, (
        ("--max-n", int, _REQUIRED, f"sweep perimeters 3..max-n (at most {oracle.ORACLE_MAX_N})"),
        ("--seed", int, DEFAULT_SEED, "seed for the randomized probes"),
        ("--probes", int, 5, "randomized canonical-form probes per perimeter"))),
    "bench": ("time one polygon count", cmd_bench, (("--n", int, _REQUIRED, "perimeter"),)),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for a command line of one shape: a command,
    then its options by exact name, each once, as a flag or as `--opt value`
    with a value that passes int() or the choices and does not start with "-",
    every required one given.  None for any other line: main hands it to
    argparse, which decides every help text, usage error and exit code."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, _, _ in options}
    given = {}
    words = iter(argv[1:])
    for flag in words:
        kind = kinds.get(flag)
        if kind is None or flag in given:
            return None
        if kind is bool:
            given[flag] = True
            continue
        value = next(words, "-")
        if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
            return None
        try:
            given[flag] = int(value) if kind is int else value
        except ValueError:
            return None
    values = {}
    for flag, _, default, _ in options:
        if default is _REQUIRED and flag not in given:
            return None
        values[flag[2:].replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(command=argv[0], handler=handler, **values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command line, built from _COMMANDS."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None) -> None:
            if file is None and sys.stdout is None:  # argparse would fall back to stderr
                self.exit(EXIT_USAGE, "error: standard output is closed\n")
            super().print_help(file)

    parser = Parser(
        prog="perigon",
        description="Exact census of integer polygons and m-gons by perimeter.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (about, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=about)
        for flag, kind, default, text in options:
            required = default is _REQUIRED
            kwargs = ({"action": "store_true"} if kind is bool
                      else {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            command.add_argument(flag, required=required, default=None if required else default,
                                 help=text, **kwargs)
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits on usage errors; surface the code
            return int(exc.code or 0)
    try:
        if sys.stdout is None and not getattr(args, "out", None):  # started with fd 1 closed
            raise CliError("standard output is closed")
        code = args.handler(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader stopped early: exit quietly, with stdout pointed at the
        # null device so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE


def run(argv: list[str] | None = None) -> NoReturn:
    """Run main as a process and end the process with its code.

    After the flush, os._exit skips the interpreter's teardown of every
    module it loaded: with CPython 3.11 on 2 vCPUs, the time from a
    command's last byte to the end of its output fell from 11-14 ms to at
    most 1.6 ms (medians; 6-8 ms to 1.3 ms under -S).  An exception that
    escapes main, or a stream that cannot be flushed, takes the
    interpreter's own exit, which reports it as it would without run.
    """
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # such as a stream the process started without (it is None)
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    run()
