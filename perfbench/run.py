#!/usr/bin/env python3
"""foursq benchmark: one workload, its outputs checked, its metrics printed.

    python3 perfbench/run.py --workload census|census_jobs2|families \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each run builds the package the documented
way (`setup.py build`) in a scratch copy of the sources, then runs the
workload's operations through `foursq.cli.main` in one fresh process
(worker.py), which also times fresh-process imports for setup_s.  The last
stdout line is the result as JSON: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  The line before it holds run metadata.
The scratch copy is removed on exit.  perfbench/LAYERS.md explains the
workloads and metrics.
"""

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import expect  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole run must end within 180 s
# operations generated per run; the loop cycles if it runs out
OP_COUNT = {"census": 64, "census_jobs2": 64, "families": 4000}
# files setup.py may read besides the sources
BUILD_FILES = ("setup.py", "setup.cfg", "pyproject.toml", "MANIFEST.in",
               "README.md", "LICENSE")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def run_child(cmd, env, cwd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} timed out after {timeout:.0f} s")
    return proc.returncode, out, err


def build(work: Path) -> dict:
    """`setup.py build` in a copy of the sources; returns where it put foursq."""
    if not (ROOT / "src" / "foursq" / "__init__.py").is_file() or not (
            ROOT / "setup.py").is_file():
        raise BenchError(f"no foursq sources under {ROOT}")
    pkg = work / "pkg"
    shutil.copytree(ROOT / "src", pkg / "src", ignore=shutil.ignore_patterns(
        "__pycache__", "*.egg-info", "*.so", "build"))
    for name in BUILD_FILES:
        if (ROOT / name).is_file():
            shutil.copy2(ROOT / name, pkg / name)
    start = perf_counter()
    rc, out, err = run_child([sys.executable, "setup.py", "build"],
                             os.environ.copy(), pkg, 600)
    build_s = perf_counter() - start
    if rc != 0:
        raise BenchError(f"setup.py build failed:\n{err[-2000:]}")
    libs = sorted(p.parent.parent for p in
                  (pkg / "build").glob("lib*/foursq/__init__.py"))
    if not libs:
        raise BenchError("setup.py build produced no foursq package")
    notes = [line.strip() for line in err.splitlines()
             if "kernel" in line.lower()]
    return {"lib": libs[0], "build_s": build_s, "build_notes": notes}


def program_env(lib: Path, work: Path) -> dict:
    """Environment of the program's processes: none of the FOURSQ_* switches,
    the built package on the path, bytecode cached in the scratch copy."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FOURSQ_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(lib)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    return env


# ---- output checks ---------------------------------------------------------

def judge(argv: list, rec: dict, reference: dict, digests: dict) -> str:
    """'ok', 'failed' (an error exit) or 'wrong' (an incorrect answer).

    Expected stdout is rendered only for operations that exited as expected,
    and its digest is kept in `digests` for repeats of the same argv.
    """
    kind = argv[0]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    if kind == "verify":
        rc, text = expect.render_verify(*map(int, argv[1:4]), fmt)
        if rec["rc"] != rc:
            # verify's exit code 0 or 1 is its answer; others are errors
            return "wrong" if rec["rc"] in (0, 1) else "failed"
        return "ok" if rec["sha256"] == expect.sha256(text) else "wrong"
    if rec["rc"] != 0:
        return "failed"
    if kind == "search":
        problem = expect.census_problem(rec["text"], int(argv[2]), reference)
        return "ok" if problem is None else "wrong"
    if kind == "prove":
        return "ok" if expect.prove_problem(rec["text"], fmt) is None else "wrong"
    key = tuple(argv)
    if key not in digests:
        text = (expect.render_gen(int(argv[1]), int(argv[2]), argv[3], fmt)
                if kind == "gen" else
                expect.render_seq(argv[1], int(argv[2]), int(argv[3])))
        digests[key] = expect.sha256(text)
    return "ok" if rec["sha256"] == digests[key] else "wrong"


def error_group(rec: dict) -> str:
    """Error text with run-specific numbers elided, to group failures by cause."""
    text = rec["error"] or f"exit code {rec['rc']}, no message"
    return re.sub(r"value has \d+ digits", "value has N digits", text)


def check_outputs(checked: list, reference: dict, digests: dict) -> tuple:
    """Verdict counts over (argv, record) pairs, and failures by cause."""
    verdicts = Counter()
    failures = Counter()
    for argv, rec in checked:
        verdict = judge(argv, rec, reference, digests)
        verdicts[verdict] += 1
        if verdict == "failed":
            failures[f"failed {argv[0]}: {error_group(rec)}"] += 1
        elif verdict == "wrong":
            failures[f"wrong {argv[0]}: exit code {rec['rc']}, output not "
                     f"as expected"] += 1
    return verdicts, failures


# ---- metrics ---------------------------------------------------------------

def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: dict, scale: bool = True) -> dict:
    """The end-to-end metrics, with timings at reference speed (see speed.py)
    unless `scale` is false."""
    records = result["records"]
    f = speed.factor(result["calibration"]) if scale else 1.0
    setup = (speed.setup_time(result["setup"]) if scale else
             statistics.median(probe for _, probe in result["setup"]))
    return {"setup_s": (setup, "s"),
            "op_p50_s": (statistics.median(r["latency"] for r in records) * f,
                         "s"),
            "ops_per_s": (len(records) / (result["loop_s"] * f), "1/s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB")}


def op_p90(records: list):
    """p90 latency, only when at least ten samples lie beyond it."""
    latencies = [r["latency"] for r in records]
    p90 = percentile(latencies, 0.9)
    return p90 if sum(v > p90 for v in latencies) >= 10 else None


SEQUENCE_SPANS = ("sequences.pell_P", "sequences.seq_A", "sequences.seq_R",
                  "sequences.conic_point", "sequences.sequence_values",
                  "sequences.binet_exact")


def per_layer(result: dict) -> dict:
    """Per-layer values per traced operation, from the span totals."""
    layers = result["layers"]
    n = len(result["traced_records"])
    calls, total = layers["calls"], layers["total"]
    self_time, counts = layers["self_time"], layers["counts"]

    def per_op(table, key):
        return table.get(key, 0) / n

    candidates = counts.get("search.candidates_tested", 0)
    speedup = 0.0
    if "speedup_record" in result:
        speedup = (result["speedup_record"]["latency"]
                   / result["records"][0]["latency"])
    # same operations in the same order, so pair them: robust to bursts
    overhead = statistics.median(
        t["latency"] - u["latency"]
        for u, t in zip(result["records"], result["traced_records"]))
    return {
        "search.sieve_s": (per_op(total, "search.sieve"), "s/op"),
        "search.sieve_calls": (per_op(calls, "search.sieve"), "1/op"),
        "search.pairs_s": (per_op(total, "search.pairs"), "s/op"),
        "search.pairs_scanned": (per_op(counts, "search.pairs_scanned"), "1/op"),
        "search.unit_roots_s": (per_op(total, "search.unit_roots"), "s/op"),
        "search.unit_roots_calls": (per_op(calls, "search.unit_roots"), "1/op"),
        "search.roots_total": (per_op(counts, "search.roots_total"), "1/op"),
        "search.walk_s": (per_op(self_time, "search.walk"), "s/op"),
        "search.candidates_tested": (candidates / n, "1/op"),
        "search.hit_ratio": (counts.get("search.triples", 0) / candidates
                             if candidates else 0.0, "ratio"),
        "search.driver_s": (per_op(self_time, "search.search_triples"), "s/op"),
        "search.parallel_speedup": (speedup, "x"),
        "certify.square_tests": (per_op(calls, "certify.square_test"), "1/op"),
        "certify.square_hits": (per_op(counts, "certify.square_hits"), "1/op"),
        "certify.isqrt_calls": (per_op(calls, "certify.isqrt"), "1/op"),
        "certify.isqrt_bits": (per_op(counts, "certify.isqrt_bits"), "bit/op"),
        "certify.isqrt_s": (per_op(total, "certify.isqrt"), "s/op"),
        "certify.verify_four_s": (per_op(total, "certify.verify_four"), "s/op"),
        "sequences.calls": (sum(calls.get(k, 0) for k in SEQUENCE_SPANS) / n,
                            "1/op"),
        "sequences.s": (sum(self_time.get(k, 0) for k in SEQUENCE_SPANS) / n,
                        "s/op"),
        "forms.evaluate_calls": (per_op(calls, "forms.evaluate"), "1/op"),
        "forms.evaluate_s": (per_op(total, "forms.evaluate"), "s/op"),
        "family.make_main_s": (per_op(self_time, "family.make_main"), "s/op"),
        "family.make_companion_s": (per_op(self_time, "family.make_companion"),
                                    "s/op"),
        "symbolic.prove_s": (per_op(total, "symbolic.prove"), "s/op"),
        "symbolic.reduce_calls": (per_op(calls, "symbolic.reduce"), "1/op"),
        "symbolic.reduce_s": (per_op(total, "symbolic.reduce"), "s/op"),
        "cli.self_s": (per_op(self_time, "cli.main"), "s/op"),
        "cli.output_bytes": (sum(r["bytes"] for r in result["traced_records"])
                             / n, "B/op"),
        "trace.overhead_s": (overhead, "s"),
    }


def commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def run(args, work: Path, started: float):
    built = build(work)
    env = program_env(built["lib"], work)

    ops = workloads.make_ops(args.workload, args.seed, OP_COUNT[args.workload])
    speedup_argv = None
    if args.trace and args.workload == "census_jobs2":
        jobs = ops[0].index("--jobs") + 1
        speedup_argv = ops[0][:jobs] + ["1"] + ops[0][jobs + 1:]
    spill_dir = work / "spill"
    spill_dir.mkdir()
    plan = {"ops": ops, "seconds": args.seconds, "trace": bool(args.trace),
            "cores": workloads.cores(args.workload),
            "probe": (workloads.limit_probe() if args.workload == "families"
                      else []),
            "spill_dir": str(spill_dir), "speedup_argv": speedup_argv}
    (work / "plan.json").write_text(json.dumps(plan))
    timeout = max(DEADLINE_S - (perf_counter() - started), args.seconds * 2 + 30)
    rc, _, err = run_child([sys.executable, str(HERE / "worker.py"),
                            str(work / "plan.json"), str(work / "result.json")],
                           env, work, timeout)
    if rc != 0:
        raise BenchError(f"worker failed:\n{err[-2000:]}")
    result = json.loads((work / "result.json").read_text())

    reference, digests = expect.census_reference(), {}
    checked = [(ops[r["op"]], r) for r in result["records"]]
    checked += [(ops[r["op"]], r) for r in result.get("traced_records", [])]
    if speedup_argv is not None:
        checked.append((speedup_argv, result["speedup_record"]))
    verdicts, failures = check_outputs(checked, reference, digests)
    probe, probe_failures = check_outputs(
        list(zip(plan["probe"], result["probe_records"])), reference, digests)
    correct = (verdicts["wrong"] == 0 and probe["wrong"] == 0
               and result["kernel_parity"] is not False)

    records = result["records"]
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result)
    kernel_reason = ("compiled foursq._kernel imported" if result["kernel_loaded"]
                     else "; ".join(built["build_notes"])
                     or "setup.py build produced no foursq._kernel")
    attempted = sum(verdicts.values())
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "kernel_loaded": result["kernel_loaded"], "kernel_reason": kernel_reason,
        "kernel_parity": result["kernel_parity"],
        "build_s": round(built["build_s"], 4),
        "setup_samples": len(result["setup"]),
        "op_samples": len(records), "loop_s": round(result["loop_s"], 4),
        "op_p90_s": op_p90(records),
        "raw": {k: v for k, (v, _) in
                end_to_end(result, scale=False).items()},
        "calibration_s": statistics.median(result["calibration"]),
        "ops_by_kind": dict(Counter(ops[r["op"]][0] for r in records)),
        "fail_ratio": (verdicts["failed"] + verdicts["wrong"]) / attempted,
        "failures": dict(failures.most_common()),
    }
    if plan["probe"]:
        meta["limit_probe"] = {
            "attempted": len(plan["probe"]),
            "fail_ratio": (probe["failed"] + probe["wrong"]) / len(plan["probe"]),
            "failures": dict(probe_failures.most_common())}
    kernel_s = result.get("layers", {}).get("total", {}).get("search.kernel")
    if kernel_s is not None:
        meta["search.kernel_s"] = kernel_s / len(result["traced_records"])
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": verdicts["failed"] + verdicts["wrong"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    scratch = ROOT / ".perfbench_work"
    work = scratch / str(os.getpid())
    work.mkdir(parents=True)
    try:
        run(args, work, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
