#!/usr/bin/env python3
"""Benchmark the census, REPEATS runs a row.  For each bound it times:

- the path `search` takes (the kernel when it loads) at one job;
- the same path at two jobs;
- when that path is the kernel, the pure path at one job.

Pure rows are timed only up to PURE_UP_TO, so without the kernel a larger
bound has no row and is skipped with a note; a bound the census refuses
(below 3, or past the pure cap without the kernel) is a usage error.  A
bound's rows run in interleaved rounds (`time_in_rounds`, which
bench_cli.py shares), so that a slow stretch of a shared host touches
every row alike.  Every row of a bound must give the triples, pairs
scanned and candidates tested of its first row, which checks the kernel
against the pure path and two jobs against one.  Each row prints as one
line of `key value` pairs: the bound, path and job count, the number of
runs, the best, quartiles and worst of their wall times in seconds, and
the census counts.

    python benchmarks/bench_search.py
    python benchmarks/bench_search.py --bounds 10000 20000 100000

With --json, it also appends the run to a trajectory file: the commit,
whether src/ differs from it, the Python version, the core count, whether
the kernel loaded, and the rows.  On a shared machine the best alone can
swing 2x between runs of the same code; the quartiles show the spread.

    python benchmarks/bench_search.py --json BENCH_census.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from foursq import DomainError, kernel_loaded, search_triples  # noqa: E402
from foursq.search import census_path  # noqa: E402

BOUNDS = [50_000, 200_000, 1_000_000]
REPEATS = 5
PURE_UP_TO = 100_000  # a pure census to 2*10^5 takes seconds a run


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def sides(bound):
    """The (path, jobs) of each row timed at `bound`."""
    path = "kernel" if census_path(bound)[0] else "pure"
    rows = [(path, 1), (path, 2)] + [("pure", 1)] * (path == "kernel")
    return [(p, jobs) for p, jobs in rows if p == "kernel" or bound <= PURE_UP_TO]


def census_bound(text):
    """A --bounds value: a bound of at least 3 that the census can run to
    (`census_path` refuses a pure census past its cap)."""
    bound = int(text)
    if bound < 3:
        raise argparse.ArgumentTypeError(f"a bound is at least 3, not {text}")
    try:
        census_path(bound)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return bound


def timed(call):
    """The outcome of one call of `call`, and its wall time."""
    start = time.perf_counter()
    outcome = call()
    return outcome, time.perf_counter() - start


def summarize(fields, outcomes, times):
    """The outcome that every run of a row gave (it exits if they differ),
    and the row: `fields`, then the number of runs and the best, quartiles
    and worst of their wall times."""
    if outcomes.count(outcomes[0]) != len(outcomes):
        raise SystemExit(f"{fields}: the runs differ")
    spread = [min(times), *statistics.quantiles(times, method="inclusive"),
              max(times)]
    return outcomes[0], {**fields, "runs": len(times), **dict(zip(
        ["best_s", "q1_s", "median_s", "q3_s", "worst_s"],
        (round(t, 6) for t in spread)))}


def time_in_rounds(calls):
    """Time (fields, call, runs) rows in min(runs) rounds, every row once a
    round, with its runs split evenly over the rounds, and summarize each
    row's runs.  Returns the (outcome, row) of each row."""
    rounds = min(runs for _, _, runs in calls)
    done = [[] for _ in calls]
    for k in range(rounds):
        for (_, call, runs), row_runs in zip(calls, done):
            share = runs * (k + 1) // rounds - runs * k // rounds
            row_runs.extend(timed(call) for _ in range(share))
    return [summarize(fields, *zip(*row_runs))
            for (fields, _, _), row_runs in zip(calls, done)]


def print_row(row):
    """Print a row as one line of `key value` pairs, times to 1 us."""
    print("  ".join(f"{k} {v:.6f}" if k.endswith("_s") else f"{k} {v}"
                    for k, v in row.items()), flush=True)


def census(bound, path, jobs):
    """The census outcome of one run: its triples, pairs and candidates."""
    result = search_triples(bound, jobs=jobs, force_pure=path == "pure")
    return (result.triples, result.stats.pairs_scanned,
            result.stats.candidates_tested)


def time_bounds(bounds):
    """Time and print every row of every bound, a bound's rows in
    interleaved rounds; stop before printing a row whose census differs
    from its bound's first."""
    rows = []
    for bound in bounds:
        planned = sides(bound)
        if not planned:
            print(f"note: bound {bound} skipped: the pure path is timed only "
                  f"up to {PURE_UP_TO}", file=sys.stderr)
            continue
        timed_rows = time_in_rounds(
            [({"bound": bound, "path": path, "jobs": jobs},
              partial(census, bound, path, jobs), REPEATS)
             for path, jobs in planned])
        first = timed_rows[0][0]
        for (path, jobs), (got, row) in zip(planned, timed_rows):
            if got != first:
                raise SystemExit(f"{path} at {jobs} jobs differs from "
                                 f"{planned[0][0]} at 1 job at {bound}")
            row.update(triples=len(got[0]), pairs=got[1],
                       candidates=got[2])
            print_row(row)
            rows.append(row)
    return rows


def environment():
    """Where a trajectory run was taken: the commit, whether src/ differs
    from it, the Python version, the core count and whether the kernel
    loaded."""
    return {"commit": _git("rev-parse", "--short", "HEAD"),
            "src_modified": bool(_git("status", "--porcelain",
                                      "--untracked-files=no", "--", "src")),
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "kernel_loaded": kernel_loaded()}


def append_run(path, run):
    trajectory = json.loads(path.read_text()) if path.exists() else {"runs": []}
    trajectory["runs"].append(run)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bounds", type=census_bound, nargs="+",
                        default=BOUNDS,
                        help="bounds to time (default 50000 200000 1000000)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also append the run to this trajectory file")
    args = parser.parse_args(argv)

    if not kernel_loaded():
        print("note: census kernel not built; timing the pure path only\n"
              "      build it with: python setup.py build_ext --inplace",
              file=sys.stderr)
    rows = time_bounds(args.bounds)
    if args.json is not None:
        append_run(args.json, {**environment(), "rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
