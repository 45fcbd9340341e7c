#!/usr/bin/env python3
"""Benchmark whole CLI commands, called in process through foursq.cli.main.

Each command runs several times in one process with stdout sent to a sink
that keeps only its sha256 and size.  `seq P 0 0` does almost no work of
its own, so its median over 200 calls is the fixed cost of one main() call.
`gen 30 33 both` is a small-index `gen`, like the median operation of the
perfbench `families` workload, and `prove` takes under a millisecond; both
also run 200 times.  `gen 1500 1503 both --format json` is the largest
`gen` that workload draws, where the five invariant checks and the
certificate strings of each row cost most.  The other commands run 5
times each.  A run's timed span covers making its sink and redirecting
stdout as well as the call: `seq P 0 0` read 54 us without them and 58 us
with them (medians of ten alternating runs of 200 calls, shared 2-core
Xeon, CPython 3.11).

Those rows cannot see start-up, which is most of a command's wall time in
a process of its own.  The last row times FRESH_RUNS fresh `python -m
foursq seq P 0 0` processes, after one untimed run that fills the bytecode
cache; perfbench's setup_s times `import foursq.cli` alone.

All rows run in interleaved rounds, as many as the fewest runs of a row:
each round calls every row in turn, with each row's runs split evenly over
the rounds, so that a slow stretch of a shared host touches every row alike
instead of moving one.  Rows are timed, summarized and printed through
bench_search.py's `time_in_rounds` and `print_row`; every run of a row must
give the same exit code, stdout digest and byte count.

    python benchmarks/bench_cli.py

With --json, it appends the run to a trajectory file, with the environment
fields of bench_search.py and the rows.

    python benchmarks/bench_cli.py --json BENCH_cli.json
"""

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

# bench_search puts src/ on sys.path
from bench_search import (ROOT, append_run, environment, print_row,
                          time_in_rounds)

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
    ("gen 1500 1503 both --format json",
     ["gen", "1500", "1503", "both", "--format", "json"], 5),
    ("gen 10000 10000 both --format json",
     ["gen", "10000", "10000", "both", "--format", "json"], 5),
    ("verify near-miss n=751", near_miss(751), 5),
    ("prove", ["prove"], 200),
]
FRESH_RUNS = 40


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


def in_process(argv):
    """A run of main(argv): its exit code, stdout digest and size."""
    sink = HashSink()
    with contextlib.redirect_stdout(sink):
        code = cli_main(argv)
    return code, sink.sha256.hexdigest(), sink.size


def fresh(argv):
    """A run of a fresh Python process on the checkout: its exit code,
    stdout digest and size."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    out = proc.stdout
    return proc.returncode, hashlib.sha256(out).hexdigest(), len(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", type=Path, default=None,
                        help="append the run to this trajectory file")
    args = parser.parse_args(argv)
    seq = ["-m", "foursq", "seq", "P", "0", "0"]
    fresh(seq)
    calls = [({"command": label}, partial(in_process, argv), runs)
             for label, argv, runs in COMMANDS]
    calls.append(({"command": "fresh python -m foursq seq P 0 0"},
                  partial(fresh, seq), FRESH_RUNS))
    rows = []
    for (code, digest, size), row in time_in_rounds(calls):
        row.update(exit=code, stdout_sha256=digest, stdout_bytes=size)
        print_row(row)
        rows.append(row)
    if args.json is not None:
        append_run(args.json, {**environment(), "rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
