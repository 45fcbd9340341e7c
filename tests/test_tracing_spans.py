"""The benchmark's tracer names package functions; they must all exist.

`perfbench/tracing.py` looks each (module, function) of `SPANS` up by name
when `perfbench/run.py --trace 1` starts, so a rename or deletion in the
package breaks every traced run.  This loads the tracer as the benchmark
does, from `perfbench/` on `sys.path`, and resolves every span.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
