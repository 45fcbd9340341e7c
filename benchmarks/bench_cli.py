#!/usr/bin/env python3
"""Benchmark whole CLI commands, called in process through foursq.cli.main.

Each command runs several times in one process with stdout sent to a sink
that keeps only its sha256 and size.  Every run of a command must give the
same exit code and stdout digest before its times are reported.  `seq P 0 0`
does almost no work of its own, so its median over 200 calls is the fixed
cost of one main() call.  `gen 30 33 both` is a small-index `gen`, like
the median operation of the perfbench `families` workload; it also runs
200 times.
The other commands run 5 times each.

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
import statistics
import sys
import time
from pathlib import Path

from bench_search import append_run, environment  # puts src/ on sys.path

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
    ("prove", ["prove"], 5),
]


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
    if len(outcomes) != 1:
        raise SystemExit(f"{label}: runs differ: {sorted(outcomes)}")
    code, digest, size = outcomes.pop()
    return {"command": label, "exit": code, "stdout_sha256": digest,
            "stdout_bytes": size, "runs": runs,
            "best_s": round(min(times), 6),
            "median_s": round(statistics.median(times), 6),
            "worst_s": round(max(times), 6)}


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
    if args.json is not None:
        append_run(args.json, {**environment(), "rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
