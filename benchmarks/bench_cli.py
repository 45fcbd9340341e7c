#!/usr/bin/env python3
"""Benchmark whole CLI commands, called in process through foursq.cli.main.

Each command runs several times in one process with stdout sent to a sink
that keeps only its sha256 and size.  Every run of a command must give the
same exit code and stdout digest before its times are reported.  `seq P 0 0`
does almost no work of its own, so its median over 200 calls is the fixed
cost of one main() call.  `gen 30 33 both` is a small-index `gen`, like
the median operation of the perfbench `families` workload, and `prove`
takes a few ms; both also run 200 times.  The other commands run 5 times
each.

Those rows cannot see start-up, which is most of a command's wall time when
it runs as a process of its own.  Two start-up rows time fresh processes:
`python -c "import foursq.cli"`, each run right after a control process that
imports only the stdlib modules foursq.cli used to import (the control of
the perfbench setup_s metric), reported as both medians and the median of
the per-pair ratio; and `python -m foursq seq P 0 0`, a whole command.

    python benchmarks/bench_cli.py

With --json, it appends the run to a trajectory file with the environment
fields of bench_search.py (the commit, whether src/ differs from it, the
Python version, the core count, whether the kernel loaded) and, per
command, its exit code, stdout digest and size, and the best, median and
worst wall time of its runs.

    python benchmarks/bench_cli.py --json BENCH_cli.json
"""

import argparse
import contextlib
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_search import ROOT, append_run, environment  # puts src/ on sys.path

from foursq import make_main
from foursq.cli import main as cli_main


def near_miss(n):
    """verify arguments that fail only at abc+1: main family member n with
    c replaced by the other regular completion of (a, b), a + b - 2r."""
    m = make_main(n)
    return ["verify", str(m.a), str(m.b), str(m.a + m.b - 2 * m.r)]


# (label, argv, runs)
COMMANDS = [
    ("seq P 0 0", ["seq", "P", "0", "0"], 200),
    ("gen 30 33 both --format json",
     ["gen", "30", "33", "both", "--format", "json"], 200),
    ("gen 0 1500 both --format csv",
     ["gen", "0", "1500", "both", "--format", "csv"], 5),
    ("gen 10000 10000 both --format json",
     ["gen", "10000", "10000", "both", "--format", "json"], 5),
    ("verify near-miss n=751", near_miss(751), 5),
    ("prove", ["prove"], 200),
]


# Fresh-process start-up: the stdlib modules that foursq.cli imported while
# its records were dataclasses, as the control of `import foursq.cli`.
IMPORT_CONTROL = ("import argparse, csv, dataclasses, fractions, json, "
                  "multiprocessing.pool, typing")
STARTUP_RUNS = 40


class HashSink:
    """A text stream that keeps only the sha256 and byte count of what is
    written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.size = 0

    def write(self, text):
        data = text.encode()
        self.sha256.update(data)
        self.size += len(data)
        return len(text)

    def flush(self):
        pass


def time_command(label, argv, runs):
    """The row of one command: its exit code, stdout digest and size, and
    the best, median and worst wall time of `runs` calls of main."""
    outcomes, times = set(), []
    for _ in range(runs):
        sink = HashSink()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            code = cli_main(argv)
            times.append(time.perf_counter() - start)
        outcomes.add((code, sink.sha256.hexdigest(), sink.size))
    return command_row(label, outcomes, times)


def command_row(label, outcomes, times):
    """A command's row from the set of its runs' (exit code, stdout digest,
    stdout size) and their wall times; every run must have the same
    outcome."""
    if len(outcomes) != 1:
        raise SystemExit(f"{label}: runs differ: {sorted(outcomes)}")
    code, digest, size = outcomes.pop()
    return {"command": label, "exit": code, "stdout_sha256": digest,
            "stdout_bytes": size, "runs": len(times),
            "best_s": round(min(times), 6),
            "median_s": round(statistics.median(times), 6),
            "worst_s": round(max(times), 6)}


def _run(argv):
    """Wall time and result of a fresh Python process on the checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          env=env)
    return time.perf_counter() - start, proc


def startup_rows(runs=STARTUP_RUNS):
    """The two start-up rows: `import foursq.cli` against its control, and
    a fresh `seq P 0 0`.  One untimed run of each fills the bytecode
    cache first."""
    control, probe = ["-c", IMPORT_CONTROL], ["-c", "import foursq.cli"]
    command = ["-m", "foursq", "seq", "P", "0", "0"]
    for argv in (control, probe, command):
        _run(argv)
    pairs = [(_run(control)[0], _run(probe)[0]) for _ in range(runs)]
    import_row = {
        "command": "fresh import foursq.cli", "runs": runs,
        "control": IMPORT_CONTROL,
        "control_median_s": round(statistics.median(c for c, _ in pairs), 6),
        "median_s": round(statistics.median(p for _, p in pairs), 6),
        "median_ratio": round(statistics.median(p / c for c, p in pairs), 4)}
    outcomes, times = set(), []
    for _ in range(runs):
        wall, proc = _run(command)
        times.append(wall)
        outcomes.add((proc.returncode,
                      hashlib.sha256(proc.stdout).hexdigest(),
                      len(proc.stdout)))
    return [import_row,
            command_row("fresh python -m foursq seq P 0 0", outcomes, times)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=Path, default=None,
                        help="append the run to this trajectory file")
    args = parser.parse_args(argv)
    rows = []
    for label, command, runs in COMMANDS:
        rows.append(time_command(label, command, runs))
        row = rows[-1]
        print(f"{label:36} exit {row['exit']}  {row['stdout_bytes']:>9} B  "
              f"best {row['best_s'] * 1e3:10.3f} ms  "
              f"median {row['median_s'] * 1e3:10.3f} ms  ({runs} runs)")
    imports, seq = startup_rows()
    rows += [imports, seq]
    print(f"{'fresh import foursq.cli':36} median "
          f"{imports['median_s'] * 1e3:.1f} ms, control "
          f"{imports['control_median_s'] * 1e3:.1f} ms, median ratio "
          f"{imports['median_ratio']:.3f}  ({imports['runs']} pairs)")
    print(f"{'fresh python -m foursq seq P 0 0':36} exit {seq['exit']}  "
          f"best {seq['best_s'] * 1e3:.1f} ms  median "
          f"{seq['median_s'] * 1e3:.1f} ms  ({seq['runs']} runs)")
    if args.json is not None:
        append_run(args.json, {**environment(), "rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
