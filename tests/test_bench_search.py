import subprocess
import sys
from pathlib import Path

import pytest

from foursq import kernel_loaded, search_triples

REPO = Path(__file__).resolve().parent.parent

# runs benchmarks/bench_search.py on argv[3:] in one process; with argv[1]
# "blocked", the import of the compiled kernel fails as if it were not
# built, and argv[2] is the bound up to which pure rows are timed
BENCH = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["foursq._kernel"] = None
sys.path.insert(0, "benchmarks")
import bench_search
bench_search.PURE_UP_TO = int(sys.argv[2])
sys.exit(bench_search.main(sys.argv[3:]))
"""

BUILT = ([("kernel", 1), ("kernel", 2), ("pure", 1)] if kernel_loaded()
         else [("pure", 1), ("pure", 2)])


@pytest.mark.parametrize("run,pure_up_to,sides", [
    ("built", 100_000, BUILT),
    ("blocked", 100_000, [("pure", 1), ("pure", 2)]),
    ("blocked", 1000, []),
], ids=["built", "blocked", "blocked-below-the-cut-off"])
def test_bench_search_rows_agree_with_the_census(run, pure_up_to, sides):
    proc = subprocess.run(
        [sys.executable, "-c", BENCH, run, str(pure_up_to), "--bounds", "2000"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [dict(zip(line.split()[::2], line.split()[1::2]))
            for line in proc.stdout.splitlines()]
    assert [(row["path"], int(row["jobs"])) for row in rows] == sides
    census = search_triples(2000)
    assert all((int(row["bound"]), int(row["triples"]), int(row["pairs"]),
                int(row["candidates"]))
               == (2000, len(census.triples), census.stats.pairs_scanned,
                   census.stats.candidates_tested) for row in rows)
    if not sides:
        assert "bound 2000 skipped" in proc.stderr


# a bound below 3, and one past the pure census cap, which no census runs
# to with or without the kernel, so the census's own message names it
@pytest.mark.parametrize("bound,message", [
    ("0", "a bound is at least 3"),
    ("2", "a bound is at least 3"),
    ("20000000", "bound 20000000 exceeds the pure census cap 10000000"),
], ids=["0", "2", "20000000"])
def test_bench_search_refuses_a_bound_below_3(bound, message):
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench_search.py", "--bounds", bound],
        cwd=REPO, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
