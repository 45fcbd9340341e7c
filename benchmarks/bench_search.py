#!/usr/bin/env python3
"""Benchmark the census, REPEATS runs a row.  For each bound it times:

- the path `search` takes (the kernel when it loads) at one job;
- the same path at two jobs;
- when that path is the kernel, the pure path at one job.

Pure rows are timed only up to PURE_UP_TO, so without the kernel a larger
bound has no row and is skipped with a note.  Every row of a bound must
give the triples, pairs scanned and candidates tested of its first row,
which checks the kernel against the pure path and two jobs against one.
Each row prints as one line: the bound, path and job count, the census
counts, and the best and median wall time of its runs.

    python benchmarks/bench_search.py
    python benchmarks/bench_search.py --bounds 10000 20000 100000

With --json, it also appends the run to a trajectory file: the commit,
whether src/ differs from it, the Python version, the core count, whether
the kernel loaded, and the rows, each with the wall time of every run.  On
a shared machine the best alone can swing 2x between runs of the same
code; the times show the spread.

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
    try:
        path = "kernel" if census_path(bound)[0] else "pure"
    except DomainError:  # past the pure cap, so no row
        path = "pure"
    rows = [(path, 1), (path, 2)] + [("pure", 1)] * (path == "kernel")
    return [(p, jobs) for p, jobs in rows if p == "kernel" or bound <= PURE_UP_TO]


def time_row(bound, path, jobs):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = search_triples(bound, jobs=jobs, force_pure=path == "pure")
        times.append(time.perf_counter() - start)
    return result, {"bound": bound, "path": path, "jobs": jobs,
                    "best_s": round(min(times), 4),
                    "median_s": round(statistics.median(times), 4),
                    "times_s": [round(t, 4) for t in times],
                    "triples": len(result.triples),
                    "pairs": result.stats.pairs_scanned,
                    "candidates": result.stats.candidates_tested}


def time_bounds(bounds):
    """Time and print every row of every bound; stop at a row whose census
    differs from its bound's first."""
    rows = []
    for bound in bounds:
        planned = sides(bound)
        if not planned:
            print(f"note: bound {bound} skipped: the pure path is timed only "
                  f"up to {PURE_UP_TO}", file=sys.stderr)
        census = None
        for path, jobs in planned:
            result, row = time_row(bound, path, jobs)
            got = (result.triples, row["pairs"], row["candidates"])
            census = census or got
            if got != census:
                raise SystemExit(f"{path} at {jobs} jobs differs from "
                                 f"{planned[0][0]} at 1 job at {bound}")
            print(f"bound {bound:>8}  path {path:<6}  jobs {jobs}  "
                  f"triples {row['triples']:>3}  pairs {row['pairs']:>9}  "
                  f"candidates {row['candidates']:>9}  "
                  f"best_s {row['best_s']:.4f}  median_s {row['median_s']:.4f}",
                  flush=True)
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
    parser.add_argument("--bounds", type=int, nargs="+", default=BOUNDS,
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
