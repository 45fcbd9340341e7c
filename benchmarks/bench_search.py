#!/usr/bin/env python3
"""Benchmark the census: compiled kernel vs pure-Python fallback.

Both paths must return identical triples and counters; the benchmark
asserts that before reporting timings.  Each row shows the triple count,
pairs scanned and candidates tested next to the times.

    python benchmarks/bench_search.py
    python benchmarks/bench_search.py --bounds 10000 100000 1000000 --jobs 4
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from foursq import kernel_loaded, search_triples  # noqa: E402


def time_search(bound, jobs, force_pure):
    start = time.perf_counter()
    result = search_triples(bound, jobs=jobs, force_pure=force_pure)
    return result, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bounds", type=int, nargs="+",
                        default=[1_000, 10_000, 100_000])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--skip-pure-above", type=int, default=200_000,
                        help="skip the pure-Python run beyond this bound")
    args = parser.parse_args(argv)

    if not kernel_loaded():
        print("note: census kernel not built; timing the pure path only\n"
              "      build it with: python setup.py build_ext --inplace",
              file=sys.stderr)

    header = (f"{'bound':>10}  {'triples':>7}  {'pairs':>10}  {'candidates':>11}"
              f"  {'kernel':>9}  {'pure':>9}  {'speedup':>7}")
    print(header)
    print("-" * len(header))
    for bound in args.bounds:
        k_res = k_t = None
        if kernel_loaded():
            k_res, k_t = time_search(bound, args.jobs, force_pure=False)
        if bound <= args.skip_pure_above:
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
