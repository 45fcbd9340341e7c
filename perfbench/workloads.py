"""Seeded operation lists for the three workloads; each operation is a CLI argv.

Sizes are drawn from a golden-ratio (Kronecker) sequence of antithetic pairs
with a seeded start rather than independently: every prefix of the list then
covers its range evenly, so the few census operations that fit in a run give
a median that does not depend on the luck of the draw.  The families mix is
dealt in shuffled blocks of 20 for the same reason.
"""

import itertools
import math
import random

import expect

INDEX_CAP = 10_000  # the CLI's advertised index range is -INDEX_CAP..INDEX_CAP
# The timed families operations stay where every integer the CLI reads or
# prints has at most 4300 digits, CPython's default int/str limit, so none of
# them fails: past these |n| (found with expect.py) the first such integer
# appears.  gen prints s ~ A(n)^5; verify a near-miss's failing abc+1 ~ A(n)^10;
# seq A(n) and R(n).  The rest of the range, up to INDEX_CAP, is covered by
# LIMIT_PROBE, which is run once per families run and reported apart.
INDEX_LIMIT = {"gen": 1503, "verify": 751, "seq": 7517}
# Operations the seed's CLI fails with the 4300-digit error (ROADMAP item 2).
# A fixed list, so every run attempts the same ones; expect.py renders what a
# fixed CLI must print for them.
LIMIT_PROBE = [
    ["gen", "1504", "1504", "main", "--format", "json"],
    ["gen", "10000", "10000", "companion"],
    ["seq", "A", "7518", "7518"],
    ["seq", "P", "-10000", "-9998"],
    ["verify", "@near-miss", "752"],
    ["verify", "@triple", "2000", "--format", "json"],
]
GOLDEN = (math.sqrt(5) - 1) / 2

# name -> (lowest N, highest N, --jobs)
CENSUS = {"census": (18_000, 22_000, 1), "census_jobs2": (45_000, 55_000, 2)}
# 60% gen, 20% verify, 15% seq, 5% prove
FAMILIES_BLOCK = ["gen"] * 12 + ["verify"] * 4 + ["seq"] * 3 + ["prove"]


def _even_stream(rng: random.Random):
    """Points of [0, 1): golden-ratio steps from a seeded start, each followed
    by its mirror 1-u.  Every prefix is evenly spread, and every even-length
    prefix is symmetric about 1/2 (antithetic pairs), so its median size is
    the middle of the range whatever the seed."""
    u = rng.random()
    while True:
        yield u
        yield 1.0 - u
        u = (u + GOLDEN) % 1.0


def census_ops(name: str, seed: int, count: int) -> list:
    lo, hi, jobs = CENSUS[name]
    # The middle of the range first: with the antithetic pairs after it,
    # every odd-length prefix has its median size exactly there, and an
    # even-length one close by.  A run fits only 5 to 15 census operations,
    # and without it their median size moved with the seed by about 5%.
    stream = itertools.chain([0.5], _even_stream(random.Random(seed)))
    return [["search", "--max", str(lo + round(next(stream) * (hi - lo))),
             "--jobs", str(jobs), "--format", "json"] for _ in range(count)]


def _index(stream, rng: random.Random, cap: int) -> int:
    """Index with log-uniform magnitude over 0..cap and random sign."""
    magnitude = int((cap + 1) ** next(stream)) - 1
    return magnitude if rng.random() < 0.5 else -magnitude


def _window(stream, rng: random.Random, cap: int):
    width = rng.randint(0, 3)
    lo = min(_index(stream, rng, cap), cap - width)
    return lo, lo + width


def _verify_args(n: int, variant: str, near_miss: bool) -> list:
    """The family triple of `variant` at index n, or a near-miss of it."""
    a, r, b, c = expect.family_entries(n, variant)
    if min(a, b, c) < 1:  # companion n=0 has b=0, outside verify's domain
        a, r, b, c = expect.family_entries(n, "main")
    if near_miss:
        # the other regular completion keeps ab, ac, bc square; c+2 breaks ac
        lower = a + b - 2 * r
        c = lower if 1 <= lower and lower not in (a, b) else c + 2
    return [str(a), str(b), str(c)]


def limit_probe() -> list:
    """LIMIT_PROBE as argvs, its verify placeholders filled in."""
    ops = []
    for argv in LIMIT_PROBE:
        if argv[0] == "verify":
            args = _verify_args(int(argv[2]), "main", argv[1] == "@near-miss")
            argv = ["verify", *args, *argv[3:]]
        ops.append(argv)
    return ops


def families_ops(seed: int, count: int) -> list:
    rng = random.Random(seed)
    streams = {kind: _even_stream(rng) for kind in ("gen", "verify", "seq")}
    ops = []
    while len(ops) < count:
        block = FAMILIES_BLOCK[:]
        rng.shuffle(block)
        for kind in block:
            json_or_table = ["--format", rng.choice(["json", "table"])]
            if kind == "gen":
                lo, hi = _window(streams["gen"], rng, INDEX_LIMIT["gen"])
                ops.append(["gen", str(lo), str(hi),
                            rng.choice(["main", "companion", "both"]),
                            "--format", rng.choice(["json", "csv", "table"])])
            elif kind == "verify":
                n = _index(streams["verify"], rng, INDEX_LIMIT["verify"])
                args = _verify_args(n, rng.choice(["main", "companion"]),
                                    rng.random() < 0.5)
                ops.append(["verify", *args, *json_or_table])
            elif kind == "seq":
                lo, hi = _window(streams["seq"], rng, INDEX_LIMIT["seq"])
                ops.append(["seq", rng.choice("PAR"), str(lo), str(hi)])
            else:
                ops.append(["prove", *json_or_table])
    return ops[:count]


def cores(name: str) -> int:
    """Processes that run a workload's operations at once."""
    return CENSUS[name][2] if name in CENSUS else 1


def make_ops(name: str, seed: int, count: int) -> list:
    if name in CENSUS:
        return census_ops(name, seed, count)
    return families_ops(seed, count)


WORKLOADS = [*CENSUS, "families"]
