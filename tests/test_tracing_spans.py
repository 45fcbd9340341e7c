"""The benchmark's tracer names package functions; they must all exist.

`perfbench/tracing.py` looks each (module, function) of `SPANS` up by name
when `perfbench/run.py --trace 1` starts, and `install` also reaches
`search._chunk_worker`, `search.Pool`, the kernel's `census_chunk` and
`cli.main`, so a rename or deletion in the package breaks every traced run.
These tests load the tracer as the benchmark does, from `perfbench/` on
`sys.path`: one resolves every span, one installs the tracer and runs the CLI.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("tracing", None)


def test_every_traced_function_exists(tracing):
    assert tracing.SPANS
    for module, func, span in tracing.SPANS:
        target = importlib.import_module(f"foursq.{module}")
        assert callable(getattr(target, func, None)), (module, func, span)


# `install` patches the package for the rest of the process, so it runs in
# a child: a sequence command and a pure two-job census, whose chunks run in
# pool workers and come back through the spill files.
TRACED_RUN = """
import json, sys
from pathlib import Path
perfbench, out = sys.argv[1], Path(sys.argv[2])
sys.path.insert(0, perfbench)
import tracing
from foursq import cli
(out / "spill").mkdir()
tracer = tracing.Tracer(out / "spill")
tracing.install(tracer)
codes = [cli.main(argv.split()) for argv in
         ("seq A 5 8", "search --max 300 --pure --jobs 2")]
tracer.merge_spills()
(out / "result.json").write_text(json.dumps(
    {"codes": codes, "calls": tracer.calls}))
"""


def test_installed_tracer_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(PERFBENCH), str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["codes"] == [0, 0]
    for span in ("sequences.conic_point", "sequences.binet_exact",
                 "search.search_triples", "search.chunk", "search.walk"):
        assert result["calls"].get(span, 0) > 0, span
