#!/usr/bin/env python3
"""Benchmark the census: compiled kernel vs pure-Python fallback.

Both paths must return identical triples and counters; the benchmark
asserts that before reporting timings.  Each row shows the triple count,
pairs scanned and candidates tested next to the times.

    python benchmarks/bench_search.py
    python benchmarks/bench_search.py --bounds 10000 100000 1000000 --jobs 4

With --json, it times the path `search` takes (the kernel when it loads) at
one and two jobs instead, checks that both give the same census, and appends
the run to a trajectory file: the commit, whether src/ differs from it, the
Python version, the core count, whether the kernel loaded, and per bound and
job count the wall time of each of 5 runs with their best and median,
triples, pairs and candidates.  On a shared machine the best alone can swing
2x between runs of the same code; the times show the spread.

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

from foursq import kernel_loaded, search_triples  # noqa: E402

TRAJECTORY_BOUNDS = [50_000, 200_000, 1_000_000]
TRAJECTORY_JOBS = (1, 2)
REPEATS = 5
SKIP_PURE_ABOVE = 200_000  # the comparison times no pure run beyond this bound


def time_search(bound, jobs, force_pure):
    start = time.perf_counter()
    result = search_triples(bound, jobs=jobs, force_pure=force_pure)
    return result, time.perf_counter() - start


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def trajectory_run(bounds):
    """One trajectory entry: the environment, then a row per bound and job
    count with its REPEATS wall times, their best and their median."""
    rows = []
    for bound in bounds:
        census = None
        for jobs in TRAJECTORY_JOBS:
            timed = [time_search(bound, jobs, force_pure=False)
                     for _ in range(REPEATS)]
            result = timed[0][0]
            times = [t for _, t in timed]
            got = (result.triples, result.stats.pairs_scanned,
                   result.stats.candidates_tested)
            if census is None:
                census = got
            elif got != census:
                raise SystemExit(f"jobs={jobs} differs from one job at {bound}")
            rows.append({"bound": bound, "jobs": jobs,
                         "best_s": round(min(times), 4),
                         "median_s": round(statistics.median(times), 4),
                         "times_s": [round(t, 4) for t in times],
                         "triples": len(result.triples),
                         "pairs": result.stats.pairs_scanned,
                         "candidates": result.stats.candidates_tested})
            print(rows[-1], file=sys.stderr)
    return {**environment(), "rows": rows}


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
    parser.add_argument("--bounds", type=int, nargs="+", default=None,
                        help="bounds to time (default 1000 10000 100000, "
                             "or 50000 200000 1000000 with --json)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--json", type=Path, default=None,
                        help="append a jobs-1/jobs-2 trajectory run to this "
                             "file instead of printing the comparison")
    args = parser.parse_args(argv)

    if not kernel_loaded():
        print("note: census kernel not built; timing the pure path only\n"
              "      build it with: python setup.py build_ext --inplace",
              file=sys.stderr)

    if args.json is not None:
        append_run(args.json, trajectory_run(args.bounds or TRAJECTORY_BOUNDS))
        return 0

    header = (f"{'bound':>10}  {'triples':>7}  {'pairs':>10}  {'candidates':>11}"
              f"  {'kernel':>9}  {'pure':>9}  {'speedup':>7}")
    print(header)
    print("-" * len(header))
    for bound in args.bounds or [1_000, 10_000, 100_000]:
        k_res = k_t = None
        if kernel_loaded():
            k_res, k_t = time_search(bound, args.jobs, force_pure=False)
        if bound <= SKIP_PURE_ABOVE:
            p_res, p_t = time_search(bound, args.jobs, force_pure=True)
        else:
            p_res = p_t = None
        if k_res is not None and p_res is not None:
            assert k_res.triples == p_res.triples, f"path mismatch at {bound}"
            assert k_res.stats.pairs_scanned == p_res.stats.pairs_scanned
            assert (k_res.stats.candidates_tested
                    == p_res.stats.candidates_tested)
        shown = k_res or p_res
        speedup = f"{p_t / k_t:6.1f}x" if (k_t and p_t) else "      -"
        print(f"{bound:>10}  {len(shown.triples):>7}  "
              f"{shown.stats.pairs_scanned:>10}  "
              f"{shown.stats.candidates_tested:>11}  "
              f"{f'{k_t:8.3f}s' if k_t is not None else '        -'}  "
              f"{f'{p_t:8.3f}s' if p_t is not None else '        -'}  {speedup}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
