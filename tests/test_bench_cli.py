import hashlib
import io
import subprocess
import sys
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

from foursq.cli import main

REPO = Path(__file__).resolve().parent.parent

# runs benchmarks/bench_cli.py in one process with only the `seq P 0 0` and
# near-miss `verify` rows and 2 fresh runs, the fewest that give quartiles
BENCH = """
import sys
sys.path.insert(0, "benchmarks")
import bench_cli
bench_cli.COMMANDS = [c for c in bench_cli.COMMANDS
                      if c[0] in ("seq P 0 0", "verify near-miss n=751")]
bench_cli.FRESH_RUNS = 2
sys.exit(bench_cli.main([]))
"""


def _outcome(argv):
    """The exit code, stdout sha256 and stdout bytes of a direct main call."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    data = out.getvalue().encode()
    return str(code), hashlib.sha256(data).hexdigest(), str(len(data))


def test_bench_cli_rows_match_direct_calls(monkeypatch):
    proc = subprocess.run([sys.executable, "-c", BENCH], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # a row is `key value` fields two spaces apart; a command has spaces
    rows = [dict(field.split(" ", 1) for field in line.split("  "))
            for line in proc.stdout.splitlines()]
    assert [(row["command"], row["runs"]) for row in rows] == [
        ("seq P 0 0", "200"), ("verify near-miss n=751", "5"),
        ("fresh python -m foursq seq P 0 0", "2")]
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    from bench_cli import near_miss
    seq = _outcome(["seq", "P", "0", "0"])
    assert [(row["exit"], row["stdout_sha256"], row["stdout_bytes"])
            for row in rows] == [seq, _outcome(near_miss(751)), seq]
    assert [row["exit"] for row in rows] == ["0", "1", "0"]


def test_bench_cli_takes_the_rows_in_turn(monkeypatch):
    # two rounds for the fewest runs, 2: each round runs half of every row
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    from bench_cli import time_in_rounds
    order = []
    calls = [({"command": name}, partial(order.append, name), runs)
             for name, runs in (("x", 4), ("y", 2), ("z", 3))]
    rows = time_in_rounds(calls)
    assert order == ["x", "x", "y", "z", "x", "x", "y", "z", "z"]
    assert [(row["command"], row["runs"]) for _, row in rows] == [
        ("x", 4), ("y", 2), ("z", 3)]
