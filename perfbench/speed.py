"""Machine-speed calibration for timings taken on a shared, drifting host.

The host this benchmark was built on changed speed by up to 2x over minutes,
so raw wall times of identical runs minutes apart disagree by more than any
useful regression bound.  The workload process therefore also times a fixed
slice of pure-Python work a few times per second, between operations, and
the run's end-to-end timings are reported scaled to a machine on which that
slice takes REFERENCE_S: value * REFERENCE_S / (median slice time).  A
workload that runs on n cores is calibrated with n slices at once; a single
slice did not track the two-process census, and scaling by it widened that
workload's run-to-run spread.  The raw values are printed in the run's
metadata.  The slice is benchmark code, so no change to foursq can move it.

A fresh process's import time follows the host differently from the slice
(scaling setup_s by the slice widened its spread), so setup_s has a control
of its own: each timed `import foursq.cli` process comes right after a
control process that imports the stdlib modules foursq uses and nothing of
foursq.  setup_s is the median of probe/control over those pairs, times the
control's time on the reference machine.  Only foursq's own import work
moves the ratio, and it moves setup_s by that work's time at reference speed.
"""

import statistics
from time import perf_counter

REFERENCE_S = 0.02  # the slice's time on the reference machine
# Stdlib modules that foursq.cli imports, as the import control's program.
IMPORT_CONTROL = ("import argparse, csv, dataclasses, fractions, json, "
                  "multiprocessing.pool, typing")
CONTROL_REFERENCE_S = 0.12  # the control's time on the reference machine


def calibrate() -> float:
    """Seconds for one fixed slice of pure-Python integer work."""
    start = perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return perf_counter() - start


def calibrate_one(_) -> float:
    """calibrate() for Pool.map, which passes one argument."""
    return calibrate()


def factor(samples: list) -> float:
    """Multiply a measured time by this to express it at reference speed."""
    return REFERENCE_S / statistics.median(samples)


def setup_time(pairs: list) -> float:
    """setup_s at reference speed from (control, probe) wall-time pairs."""
    return CONTROL_REFERENCE_S * statistics.median(
        probe / control for control, probe in pairs)
