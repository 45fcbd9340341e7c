"""Acceptance suite: one test per release criterion, one printed line each.

Run with output enabled to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from foursq import (binet_exact, brute_oracle, conic_point, isqrt,
                    kernel_loaded, make_companion, make_main,
                    perfect_square_root, pell_P, prove_identities, search_triples,
                    seq_A, seq_R, verify_four)
from foursq import forms
from foursq.cli import main as cli_main
from foursq.sequences import sequence_values

SECTION1 = [
    (5, 7, 24), (8, 45, 91), (8, 105, 171), (3, 133, 176), (11, 105, 184),
    (20, 84, 186), (44, 102, 280), (40, 119, 297), (24, 301, 495),
    (24, 477, 715),
]


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid} failed: {detail}"


@pytest.fixture(scope="module")
def census_100k():
    start = time.perf_counter()
    result = search_triples(100_000, jobs=1)
    return result, time.perf_counter() - start


def test_criterion_1_machine_checked_identities():
    start = time.perf_counter()
    report = prove_identities()
    elapsed = time.perf_counter() - start
    core = [report[f"I{k}"] for k in range(1, 9)]
    ok = all(it.passed for it in core) and elapsed < 1.0
    _report("C1", ok,
            f"identity chain I1-I8 reduces to zero exactly "
            f"({sum(it.passed for it in core)}/8, {elapsed:.3f}s < 1s)")


def test_criterion_2_closing_example(capsys):
    index = next(n for n in range(-12, 13)
                 if (conic_point(n).x, conic_point(n).y) == (780, 209))
    code = cli_main(["gen", str(index), str(index), "main", "--format", "json"])
    out = capsys.readouterr().out
    rec = json.loads(out)["payload"]["records"][0]
    want = {"a": "1435208", "r": "2347998213", "b": "3841321681771",
            "c": "3846019113405", "s": "4604722693427179"}
    got = {k: rec[k] for k in want}
    verified = verify_four(int(rec["a"]), int(rec["b"]), int(rec["c"])).ok
    ok = code == 0 and got == want and verified
    _report("C2", ok,
            f"conic point (780, 209) at index {index} reproduces "
            f"a=1435208 ... s=4604722693427179 exactly, verify_four ok")


def test_criterion_3_table_reproduction():
    main_want = [(5, 7, 24), (40, 2387, 3045), (533, 509736, 543235),
                 (7400, 101263737, 103002439)]
    comp_want = [(40, 119, 297), (533, 33475, 42456),
                 (7400, 7102165, 7568067)]
    main_got = [(t.a, t.b, t.c) for t in (make_main(n) for n in range(0, 4))]
    comp_got = [(t.a, t.b, t.c) for t in (make_companion(n) for n in range(1, 4))]
    ok = main_got == main_want and comp_got == comp_want
    _report("C3", ok,
            "main family n=0..3 and companion n=1..3 match the observed "
            "rows exactly")


def test_criterion_4_census_750():
    start = time.perf_counter()
    result = search_triples(750, jobs=1)
    elapsed = time.perf_counter() - start
    got = [t[:3] for t in result.triples]
    contains_all = all(t in got for t in SECTION1)
    all_verify = all(verify_four(a, b, c).ok for a, b, c, _ in result.triples)
    oracle = brute_oracle(750)
    ok = (contains_all and all_verify
          and result.triples == oracle.triples and elapsed < 5.0)
    _report("C4", ok,
            f"census(750) = {len(got)} triples, contains all 10 known "
            f"examples, equals the brute-force oracle, {elapsed:.3f}s < 5s")


def test_criterion_5_property_suites(census_100k):
    # sequence recurrences and the closed-form cross-check: binet_exact
    # against the forward sweep, which P(0) = 0, P(1) = 1 pins
    sweep = sequence_values("P", -50, 50)
    assert sweep[50:52] == [0, 1]
    for n in range(-50, 51):
        assert pell_P(n + 1) == 4 * pell_P(n) - pell_P(n - 1)
        assert seq_A(n + 1) == 4 * seq_A(n) - seq_A(n - 1)
        assert seq_R(n + 1) == 4 * seq_R(n) - seq_R(n - 1) + 1
        w = binet_exact(n)
        assert w.v == sweep[n + 50] and w.u ** 2 - 3 * w.v ** 2 == 1
        pt = conic_point(n)
        x, y = pt.x, pt.y
        assert x * x - 4 * x * y + y * y == 1
        assert seq_A(n) == x + 2 * y
        assert 2 * seq_R(n) == 5 * x - 3 * y - 1
        assert seq_A(n + 1) == 6 * x - y
        assert seq_A(n - 1) == 9 * y - 2 * x
        assert 2 * seq_R(n - 1) == 3 * x - 7 * y - 1

    # exact root contracts on random 256-bit values
    rng = random.Random(0xF00D)
    for _ in range(10_000):
        v = rng.getrandbits(256)
        r = isqrt(v)
        assert r * r <= v < (r + 1) * (r + 1)
        assert r == math.isqrt(v)
        w = rng.getrandbits(128) + 1
        assert perfect_square_root(w * w) == w
        assert perfect_square_root(w * w + 1) is None

    # every admissible family member inside the box appears in the census
    result, _ = census_100k
    census = {t[:3] for t in result.triples}
    members = 0
    for n in range(-8, 9):
        for cand in (make_main(n), make_companion(n)):
            if cand.admissible and cand.c <= 100_000:
                members += 1
                key = tuple(sorted((cand.a, cand.b, cand.c)))
                assert key in census, f"{cand.variant} n={n}: {key} missing"

    _report("C5", True,
            f"recurrence/closed-form/conic invariants for |n|<=50, "
            f"10^4 random 256-bit root contracts, {members} family members "
            f"all inside census(10^5)")


def test_criterion_6_performance(census_100k):
    result, elapsed = census_100k
    four = search_triples(100_000, jobs=4)
    deterministic = (result.triples == four.triples
                     and result.stats.pairs_scanned == four.stats.pairs_scanned)
    ok = elapsed < 60.0 and deterministic
    _report("C6", ok,
            f"census(10^5) in {elapsed:.2f}s < 60s single-threaded "
            f"({'kernel' if kernel_loaded() else 'pure python'}), "
            f"{len(result.triples)} triples, identical for jobs in {{1,4}}")


def test_criterion_7_mutation_sensitivity():
    mutations = [
        ("r", forms.ROOT_R, (3, 0)),
        ("b", forms.ELEM_B, (0, 4)),
        ("s", forms.ROOT_S, (5, 0)),
    ]
    caught = 0
    for key, table, mono in mutations:
        perturbed = dict(table)
        perturbed[mono] = perturbed.get(mono, Fraction(0)) + 1
        row = dict(zip("arbcs", forms.FAMILIES["main"]), **{key: perturbed})
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(forms.FAMILIES, "main", tuple(row.values()))
            report = prove_identities()
        if not report.core_ok:
            caught += 1
    _report("C7", caught == len(mutations),
            f"{caught}/{len(mutations)} single-coefficient perturbations "
            f"each fail at least one of I1-I8")
