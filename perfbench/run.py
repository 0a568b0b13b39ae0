"""End-to-end and per-layer benchmark of the `perigon` command line.

    python3 perfbench/run.py --workload giant --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the commands run the checkout's own src/,
started as fresh `python3 -m perigon ...` processes, one at a time, from
this process (a closed loop with one client).  A run repeats the workload's
whole command list while another round fits in --seconds, then checks every output
against independent computations (workloads.py, reference.py) and runs the
checker self-test.  Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics, in seconds at the reference speed:
about once a second between commands, and before every set-up, this process
times a fresh interpreter doing a fixed piece of standard-library work
(`Calibration`), and each timing is scaled by the calibration's reference
time over its typical time in the run (`Calibration.typical`).

--trace 1 alternates untraced rounds with rounds whose commands run under
traced_cli.py, reports the per-layer metrics, and writes every span of one
more traced round to perfbench/out/.  See README.md for what each metric
means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import LAYERS
from workloads import SCALE_BY, WORKLOADS, CheckError, Command, self_test

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
HWM_POLL_S = 0.02
HEAD_BYTES = 4096
SETUP_CODE = "import perigon.cli, sys; sys.stdout.write('.')"
# the calibration: a fresh interpreter does fixed big-integer work that
# shares no code with perigon and prints how long the work took; the times of
# the whole process and of the work at the reference speed (README.md); how
# much command time may pass between two calibrations
CAL_CODE = ("import math, sys, time; sys.set_int_max_str_digits(0); t = time.perf_counter(); "
            "len(str(3 ** 40000)); math.comb(12000, 6000); print(time.perf_counter() - t)")
CAL_REF_S = {"process": 0.080, "work": 0.012}
CAL_EVERY_S = 1.0


@dataclass
class Sample:
    key: str
    code: int
    out_bytes: int
    out_sha256: str
    out_head: bytes
    err: bytes
    start: float
    first: float
    last: float
    end: float
    rss_kb: int
    summary: dict | None = field(default=None)


def spawn(argv: list[str], env: dict[str, str], key: str, keep: Path | None = None) -> Sample:
    """Run one process to its end; time its first and last byte of output.

    Output is hashed as it arrives and written to `keep` if given.  Peak
    memory is the child's VmHWM, read while it runs: its max-RSS from
    wait4 would also count this process, whose memory it started with.
    """
    start = time.perf_counter()
    env = dict(env, PERFBENCH_SPAWN=repr(start))
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    digest, err, head = hashlib.sha256(), [], bytearray()
    nbytes = peak_kb = 0
    first = last = None
    with selectors.DefaultSelector() as sel, \
            (open(keep, "wb") if keep else open(os.devnull, "wb")) as sink:
        sel.register(proc.stdout, selectors.EVENT_READ, "out")
        sel.register(proc.stderr, selectors.EVENT_READ, "err")
        while sel.get_map():
            ready = sel.select(timeout=HWM_POLL_S)
            peak_kb = max(peak_kb, high_water_kb(proc.pid))
            for sk, _ in ready:
                data = os.read(sk.fd, 1 << 16)
                if not data:
                    sel.unregister(sk.fileobj)
                elif sk.data == "out":
                    last = time.perf_counter()
                    first = first or last
                    digest.update(data)
                    nbytes += len(data)
                    sink.write(data)
                    head += data[:HEAD_BYTES - len(head)]
                else:
                    err.append(data)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    end = time.perf_counter()
    return Sample(key, proc.returncode, nbytes, digest.hexdigest(), bytes(head), b"".join(err),
                  start, first or end, last or end, end, peak_kb or usage.ru_maxrss)


def high_water_kb(pid: int) -> int:
    """Peak resident memory of a live process since its exec, 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class Calibration:
    """Times of CAL_CODE processes, taken between the timed processes of a
    run: "process" from start to last byte, "work" the big-integer work alone
    as the process timed it."""
    env: dict[str, str]
    times: dict[str, list[float]] = field(default_factory=lambda: {kind: [] for kind in CAL_REF_S})
    last: float = float("-inf")

    def take(self) -> None:
        s = spawn([sys.executable, "-c", CAL_CODE], self.env, "calibration")
        try:
            work = float(s.out_head) if s.code == 0 else None
        except ValueError:
            work = None
        if work is None:
            raise RuntimeError(f"calibration failed: {s.err.decode(errors='replace')}")
        self.times["process"].append(s.last - s.start)
        self.times["work"].append(work)
        self.last = s.end

    def due(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.take()

    def typical(self, kind: str) -> float:
        """The mean of the middle three fifths.  A calibration that falls in
        one of the machine's short bursts of slowness reads up to 2.5x, and
        the few that do would move a plain mean by several percent from run
        to run."""
        times = sorted(self.times[kind])
        cut = len(times) // 5
        return statistics.fmean(times[cut:len(times) - cut])


def child_env() -> dict[str, str]:
    """The caller's environment without PYTHON* settings (unbuffered output,
    no bytecode cache, ...), so that every run sees the interpreter's defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "PERFBENCH_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_round(commands: list[Command], env: dict[str, str], traced: bool,
              spans: Path | None = None, keep: Path | None = None,
              cal: Calibration | None = None) -> list[Sample]:
    """One pass over the command list; outputs are written to `keep` if given,
    and `cal` calibrates between commands if given."""
    samples = []
    summary_path = OUT / "summary.json"
    if traced:
        env = dict(env, PERFBENCH_SUMMARY=str(summary_path))
        if spans is not None:
            env.update(PERFBENCH_SPANS=str(spans), PERFBENCH_T0=repr(time.perf_counter()))
    for cmd in commands:
        if traced:
            summary_path.unlink(missing_ok=True)
            s = spawn([sys.executable, str(HERE / "traced_cli.py"), cmd.key, *cmd.args], env, cmd.key)
            if summary_path.exists():
                s.summary = json.loads(summary_path.read_text())
        else:
            if cal is not None:
                cal.due()
            s = spawn([sys.executable, "-m", "perigon", *cmd.args], env, cmd.key,
                      keep / f"{cmd.key}.txt" if keep else None)
        samples.append(s)
    return samples


def wall(samples: list[Sample]) -> float:
    """From the first process start to the last command's last byte, less the
    gaps between one process's exit and the next one's start, which hold the
    calibrations."""
    return sum(s.end - s.start for s in samples[:-1]) + samples[-1].last - samples[-1].start


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup: list[Sample], rounds: list[list[Sample]], cal: Calibration,
               scale_by: str) -> dict[str, tuple[float, str]]:
    """Timings are scaled to the reference speed by the run's calibrations:
    on a shared 2-vCPU virtual machine the speed moves by up to 1.6x from
    second to second and from one minute to the next (see README.md).
    Timings over rounds are means: a median over a run's few rounds jumps
    between the machine's speeds.  Set-up is scaled by the "process"
    calibration, the commands by the workload's `scale_by`."""
    med, mean = statistics.median, statistics.fmean
    setup_scale = CAL_REF_S["process"] / cal.typical("process")
    scale = CAL_REF_S[scale_by] / cal.typical(scale_by)
    by_key: dict[str, list[Sample]] = {}
    for r in rounds:
        for s in r:
            by_key.setdefault(s.key, []).append(s)
    return {
        "setup_s": (setup_scale * med(s.first - s.start for s in setup), "s"),
        "wall_s": (scale * mean(wall(r) for r in rounds), "s"),
        # each command's mean over the rounds, then the median over commands
        "answer_p50_s": (scale * med(mean(s.last - s.start for s in ss) for ss in by_key.values()), "s"),
        "first_byte_p50_s": (scale * med(mean(s.first - s.start for s in ss) for ss in by_key.values()), "s"),
        "peak_rss_mb": (max(s.rss_kb for r in rounds for s in r) / 1024, "MB"),
    }


def per_layer(plain: list[list[Sample]], traced: list[list[Sample]]) -> dict[str, tuple[float, str]]:
    """Per-round sums over the commands, as the mean over traced rounds."""
    mean = statistics.fmean
    rows = []
    for r in traced:
        row = {"startup.import_s": sum(s.summary["imported"] - s.start for s in r),
               "cli.bytes_out": sum(s.out_bytes for s in r)}
        for name in LAYERS:
            row[f"{name}.calls"] = sum(s.summary["layers"][name][0] for s in r)
            row[f"{name}.self_s"] = sum(s.summary["layers"][name][1] for s in r)
        row["numtheory.binomial.result_bits"] = sum(s.summary["layers"]["numtheory.binomial"][2] for s in r)
        row["trace.wall_s"] = wall(r)
        accounted = row["startup.import_s"] + sum(row[f"{name}.self_s"] for name in LAYERS)
        row["trace.unaccounted_s"] = row["trace.wall_s"] - accounted
        rows.append(row)
    out = {}
    for name in rows[0]:
        unit = "s" if name.endswith("_s") else "bit" if name.endswith("_bits") else \
            "B" if name.endswith("bytes_out") else "count"
        out[name] = (mean(row[name] for row in rows), unit)
    out["trace.overhead_s"] = (out["trace.wall_s"][0] - mean(wall(r) for r in plain), "s")
    return out


def sample_table(setup: list[Sample], cal: Calibration, plain: list[list[Sample]],
                 traced: list[list[Sample]]) -> dict:
    """Every timing the run took, per command, for the result file."""
    table = {"setup": [round(s.first - s.start, 6) for s in setup],
             **{f"calibration {k}": [round(c, 6) for c in v] for k, v in cal.times.items()}}
    for kind, rounds in (("plain", plain), ("traced", traced)):
        for r in rounds:
            for s in r:
                row = table.setdefault(f"{kind} {s.key}", {"answer_s": [], "first_byte_s": [], "rss_kb": []})
                row["answer_s"].append(round(s.last - s.start, 6))
                row["first_byte_s"].append(round(s.first - s.start, 6))
                row["rss_kb"].append(s.rss_kb)
    return table


# ---------------------------------------------------------------------------
# checks


def check_rounds(commands: list[Command], rounds: list[list[Sample]], outputs: Path,
                 seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems).  A command fails when it exits with an
    error; a problem is an output that is wrong, or a checker that is.
    `outputs` holds the first round's outputs."""
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, str] = {}
    # outputs that hold a timing are checked in full every round (they are short)
    volatile: dict[str, list[str]] = {c.key: [] for c in commands if c.volatile}
    for r in rounds:
        for s in r:
            attempted += 1
            if s.code != 0:
                failed += 1
                problems.append(f"{s.key}: exit {s.code}: {s.err.decode(errors='replace')[-300:]}")
                continue
            if s.key in volatile:
                volatile[s.key].append(s.out_head.decode())
                continue
            first.setdefault(s.key, s.out_sha256)
            if s.out_sha256 != first[s.key]:
                problems.append(f"{s.key}: output differs between rounds")
    if failed:
        return attempted, failed, problems
    first = {cmd.key: (outputs / f"{cmd.key}.txt").read_text() for cmd in commands}
    for cmd in commands:
        for text in volatile.get(cmd.key, [first[cmd.key]]):
            try:
                cmd.check(text, first)
            except CheckError as err:
                problems.append(f"{cmd.key}: {err}")
    if not problems:
        problems += [f"self-test: {p}" for p in self_test(commands, first, seed)]
    return attempted, failed, problems


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "perigon" / "cli.py").is_file():
        print(f"error: no perigon sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    outputs = OUT / f"outputs-{args.workload}"
    outputs.mkdir(parents=True, exist_ok=True)
    commands = WORKLOADS[args.workload](args.seed)
    env = child_env()

    cal = Calibration(env)

    def set_up() -> Sample:
        cal.take()
        return spawn([sys.executable, "-c", SETUP_CODE], env, "setup")

    warm = spawn([sys.executable, "-c", SETUP_CODE], env, "setup")  # writes the bytecode cache
    if warm.code != 0 or warm.out_bytes != 1:
        print(f"error: cannot import perigon.cli: {warm.err.decode(errors='replace')}", file=sys.stderr)
        return 2
    # set-up is timed a few times now and once before every round, so that its
    # median spans the run as the rounds do
    setup = [set_up() for _ in range(SETUP_REPEATS)]

    plain: list[list[Sample]] = []
    traced: list[list[Sample]] = []
    began = time.perf_counter()
    cycles = 0
    while True:
        setup.append(set_up())
        plain.append(run_round(commands, env, traced=False, keep=None if plain else outputs, cal=cal))
        if args.trace:
            traced.append(run_round(commands, env, traced=True))
        cycles += 1
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / cycles > args.seconds:
            break
    spans_file = None
    if args.trace:
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        spans_file.write_text("command,span,parent,layer,start_s,end_s\n")
        spans_round = run_round(commands, env, traced=True, spans=spans_file)

    attempted, failed, problems = check_rounds(
        commands, plain + traced + ([spans_round] if args.trace else []), outputs, args.seed)
    if args.trace:
        if any(s.summary is None for r in traced for s in r):
            problems.append("a traced command wrote no layer summary")
            metrics = {}
        else:
            metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(setup, plain, cal, SCALE_BY[args.workload])

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": len(plain), "traced_rounds": len(traced),
            "commands": [" ".join(c.args) for c in commands],
            "python": platform.python_version(), "platform": platform.platform(),
            "machine": platform.machine(), "git_sha": git_sha(),
            "calibration_typical_s": {k: cal.typical(k) for k in CAL_REF_S},
            "calibrations": len(cal.times["process"]),
            "spans": spans_file and str(spans_file.relative_to(ROOT))}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps({"meta": meta, "problems": problems, **result,
                    "samples": sample_table(setup, cal, plain, traced)}, indent=2) + "\n")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"# perigon benchmark {json.dumps(meta)}")
    for k, (v, u) in metrics.items():
        print(f"{k:34s} {v:14.6f} {u}")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
