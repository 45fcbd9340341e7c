"""Runs one workload's operations through foursq.cli.main in this process.

    python3 worker.py PLAN.json RESULT.json

PLAN holds the argv list, the seconds to measure, whether to trace and an
untimed probe list.  The loop is closed with one client: the next operation
starts when the previous one returns.  The probe operations run once each,
after the loop.  Untraced runs measure only; a traced run first measures half
its time untraced, then repeats exactly those operations with spans on, so
traced minus untraced is the tracing overhead.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import foursq.cli
import foursq.search

import speed

# Outputs small enough to return whole for checks that parse them.
KEEP_TEXT = {"search", "prove"}


def run_op(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = foursq.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead run
        rc = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    latency = perf_counter() - start
    text = out.getvalue()
    lines = err.getvalue().strip().splitlines()
    return {"latency": latency, "rc": rc,
            "bytes": len(text.encode()),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "text": text if argv[0] in KEEP_TEXT else None,
            "error": lines[-1][:300] if rc != 0 and lines else None}


# Between operations, per second of operation time: calibration slices
# (see speed.py) and fresh-process import probes for setup_s.  Owed samples
# are taken after each operation, so both are spread over the whole run and
# cover a fixed share of it however long single operations are.
CALIBRATIONS_PER_S = 3
PROBES_PER_S = 1 / 3
IMPORT_PROBE = [sys.executable, "-c", "import foursq.cli"]
IMPORT_CONTROL = [sys.executable, "-c", speed.IMPORT_CONTROL]


def _wall(cmd: list) -> float:
    start = perf_counter()
    subprocess.run(cmd, check=True)
    return perf_counter() - start


def setup_probe() -> list:
    """Wall times of a fresh process that imports only stdlib modules (the
    control, see speed.py), then of one that imports the CLI (and kernel)."""
    return [_wall(IMPORT_CONTROL), _wall(IMPORT_PROBE)]


def closed_loop(ops: list, seconds: float, result: dict, calibrate) -> list:
    """Run ops in order (cycling) until `seconds` of op time have passed."""
    records = []
    busy = 0.0
    owed_calibrations, owed_probes = float(CALIBRATIONS_PER_S), 1.0
    while not records or busy < seconds:
        while owed_calibrations >= 1:
            result["calibration"].extend(calibrate())
            owed_calibrations -= 1
        while owed_probes >= 1:
            result["setup"].append(setup_probe())
            owed_probes -= 1
        index = len(records) % len(ops)
        record = {"op": index, **run_op(ops[index])}
        records.append(record)
        busy += record["latency"]
        owed_calibrations += record["latency"] * CALIBRATIONS_PER_S
        owed_probes += record["latency"] * PROBES_PER_S
    result["loop_s"] = busy
    return records


def kernel_parity() -> bool:
    """The kernel-equals-pure check of benchmarks/bench_search.py, at 2000."""
    docs = []
    for extra in ([], ["--pure"]):
        result = run_op(["search", "--max", "2000", "--format", "json", *extra])
        docs.append(json.loads(result["text"])["payload"] if result["rc"] == 0
                    else None)
    kernel, pure = docs
    return (kernel is not None and pure is not None
            and kernel["triples"] == pure["triples"]
            and kernel["stats"]["pairs_scanned"] == pure["stats"]["pairs_scanned"])


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    ops, seconds = plan["ops"], plan["seconds"]
    loaded = foursq.search.kernel_loaded()
    result = {"kernel_loaded": loaded,
              "kernel_parity": kernel_parity() if loaded else None,
              "calibration": [], "setup": []}
    setup_probe()  # untimed: fills the bytecode cache, as an install would
    # A workload on n cores is calibrated with n slices at once, so the
    # slices meet the same contention as its operations.
    cores = plan["cores"]
    with (multiprocessing.get_context("spawn").Pool(cores) if cores > 1
          else contextlib.nullcontext()) as pool:
        def calibrate():
            if pool is None:
                return [speed.calibrate()]
            return pool.map(speed.calibrate_one, range(cores))
        if not plan["trace"]:
            result["records"] = closed_loop(ops, seconds, result, calibrate)
        else:
            records = closed_loop(ops, seconds / 2, result, calibrate)
    result["probe_records"] = [run_op(argv) for argv in plan["probe"]]
    if plan["trace"]:
        if plan["speedup_argv"] is not None:
            # the first operation again with --jobs 1, for the speed-up ratio
            result["speedup_record"] = run_op(plan["speedup_argv"])
        import tracing
        tracer = tracing.Tracer(Path(plan["spill_dir"]))
        tracing.install(tracer)
        traced = []
        for rec in records:
            traced.append({"op": rec["op"], **run_op(ops[rec["op"]])})
            tracer.merge_spills()
        result["records"], result["traced_records"] = records, traced
        result["layers"] = tracer.totals()
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result["peak_rss_kb"] = max(usage)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
