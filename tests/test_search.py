import collections
import itertools
import math
import os
import signal
import subprocess
import sys
import sysconfig
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursq import (Certificate, DomainError, brute_oracle, find_pairs,
                    make_companion, make_main, search, search_triples,
                    verify_four)
from foursq.search import (ORACLE_MAX_BOUND, _census_chunk_py, _chunk_plan,
                           pell_orbit, spf_sieve, unit_square_roots)

SECTION1 = [
    (5, 7, 24), (8, 45, 91), (8, 105, 171), (3, 133, 176), (11, 105, 184),
    (20, 84, 186), (44, 102, 280), (40, 119, 297), (24, 301, 495),
    (24, 477, 715),
]


def test_spf_sieve():
    spf = spf_sieve(100)
    assert spf[:2] == [0, 1]
    assert all(spf[n] == min(p for p in range(2, n + 1) if n % p == 0)
               for n in range(2, 101))


def divisors(factors):
    """Every divisor of the number with prime factorization `factors`."""
    divs = [1]
    for p, e in factors:
        pk = 1
        grown = []
        for _ in range(e):
            pk *= p
            grown.extend(d * pk for d in divs)
        divs.extend(grown)
    return divs


def test_divisors():
    assert sorted(divisors([(2, 2), (3, 1), (5, 1)])) == [
        1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    assert divisors([]) == [1]


def _roots_in_crt_order(m):
    """The roots of t^2 == 1 (mod m) in CRT order, found without CRT: for
    each choice of one root mod each prime power of m, nested with the
    smallest prime power outermost, the root of m that is the chosen root
    mod every prime power, by search.  The roots mod p^e, also found by
    search, come 1 and p^e-1 first, then the rest ascending."""
    powers = []
    rest, p = m, 2
    while rest > 1:
        pe = 1
        while rest % p == 0:
            rest //= p
            pe *= p
        if pe > 1:
            powers.append(pe)
        p += 1
    local = [sorted((l for l in range(pe) if l * l % pe == 1),
                    key=lambda l, pe=pe: (l not in (1, pe - 1), l))
             for pe in powers]
    roots = [t for t in range(m) if t * t % m == 1]
    return tuple(next(t for t in roots
                      if all(t % pe == l for pe, l in zip(powers, choice)))
                 for choice in itertools.product(*local))


def test_unit_square_roots_against_brute_force():
    # in CRT order, the kernel's; 120120 is the first m with 128 roots,
    # 510510 has seven distinct primes
    spf = spf_sieve(510_510)
    for m in [*range(2, 301), 120_120, 510_510]:
        assert unit_square_roots(m, spf) == _roots_in_crt_order(m), m
    # 1, 7, 3, 5 mod 8, each extended by the roots 1, 2 mod 3 in turn
    assert unit_square_roots(24, spf) == (1, 17, 7, 23, 19, 11, 13, 5)


def test_crt_basis_elements_sum_to_one():
    # the kernel's unit_roots takes the last basis element as 1 minus the
    # others; here every B_k is built by its definition, over a trial
    # factoring
    for m in [*range(2, 3001), 120_120, 510_510, 1_441_440]:
        powers, rest, p = [], m, 2
        while rest > 1:
            pe = 1
            while rest % p == 0:
                rest //= p
                pe *= p
            if pe > 1:
                powers.append(pe)
            p += 1
        basis = [m // pe * pow(m // pe, -1, pe) for pe in powers]
        for pe, b in zip(powers, basis):
            assert b < m and all(b % q == (q == pe) for q in powers), (m, pe)
        assert sum(basis) % m == 1, m


def test_find_pairs_bound_10():
    assert list(find_pairs(10)) == [
        (2, 4, 3), (3, 5, 4), (3, 8, 5), (4, 6, 5), (5, 7, 6),
        (6, 8, 7), (7, 9, 8), (8, 10, 9)]


@pytest.mark.parametrize("bound,a_lo,a_hi", [
    (10, 3, 10**8), (1000, 3, 2_000_000), (1000, 5000, 10**9)])
def test_pure_census_clamps_a_window_to_the_bound(monkeypatch, bound, a_lo,
                                                  a_hi):
    # the windows are of a: no pair has a >= bound-1, so an a_hi past it
    # must not size the sieve; the check runs before the build, so a huge
    # sieve fails fast
    want = [pair for pair in find_pairs(bound) if pair[0] >= a_lo]
    want_chunk = _census_chunk_py(bound, a_lo, bound - 1)
    limits = []

    def sieve(limit):
        limits.append(limit)
        assert limit <= bound - 2, f"a sieve to {limit} was asked for"
        return spf_sieve(limit)
    monkeypatch.setattr(search, "spf_sieve", sieve)
    assert list(find_pairs(bound, a_lo, a_hi)) == want
    assert _census_chunk_py(bound, a_lo, a_hi) == want_chunk
    assert limits


def test_find_pairs_excludes_unit_and_respects_bound():
    pairs = list(find_pairs(50))
    assert all(2 <= a < b <= 50 for a, b, _ in pairs)
    assert all(a * b + 1 == r * r for a, b, r in pairs)


@pytest.fixture(scope="module")
def pairs_to_300():
    want = set()
    for a in range(2, 301):
        for b in range(a + 1, 301):
            r = math.isqrt(a * b + 1)
            if r * r == a * b + 1:
                want.add((a, b, r))
    return want


@pytest.mark.parametrize("bound", range(3, 301))
def test_find_pairs_matches_double_loop_oracle(bound, pairs_to_300):
    # every bound, so the edges b = bound and a = bound-2 both occur
    want = {(a, b, r) for a, b, r in pairs_to_300 if b <= bound}
    got = list(find_pairs(bound))
    assert set(got) == want
    # ascending a; within each a, the pairs of each root class r mod a
    # come in ascending r (the classes come in CRT order)
    assert [a for a, _, _ in got] == sorted(a for a, _, _ in got)
    last = {}
    for a, _, r in got:
        assert r > last.get((a, r % a), 0), (a, r)
        last[a, r % a] = r


def test_pell_orbit_finds_every_c_of_a_pair():
    # the seeds and orbits of each pair give exactly the c > b up to the
    # bound with ac+1 and bc+1 square, checked against a scan of every c
    bound = 3000
    squares = {k * k for k in range(math.isqrt(200 * bound + 1) + 1)}
    pairs = list(find_pairs(200))
    assert len(pairs) == 547
    for a, b, r in pairs:
        s_max = math.isqrt(a * bound + 1)
        _, orbit = pell_orbit(a, b, r, s_max)
        # each iterate's t is the positive root of bc+1
        assert all(r < s <= s_max and (s * s - 1) % a == 0 and t > 0
                   and t * t == b * ((s * s - 1) // a) + 1
                   for s, t in orbit)
        # each c once: no iterate repeats
        want = [c for c in range(b + 1, bound + 1)
                if a * c + 1 in squares and b * c + 1 in squares]
        assert sorted((s * s - 1) // a for s, _ in orbit) == want, (a, b, r)


def test_pell_orbit_seeds_step_to_positive_increasing_iterates():
    # the termination argument of pell_orbit: every seed is below r, one
    # step from (t0, s0) or (-t0, s0) makes t and s positive, and from then
    # on s strictly increases
    for a, b, r in find_pairs(1000):
        seed_max = math.isqrt(a * (b - a) // (2 * (r - 1)))
        assert 1 <= seed_max < r
        for s0 in range(1, seed_max + 1):
            if (s0 * s0 - 1) % a:
                continue
            t0 = math.isqrt(b * ((s0 * s0 - 1) // a) + 1)
            if t0 * t0 != b * ((s0 * s0 - 1) // a) + 1:
                continue
            for t, s in ((t0, s0), (-t0, s0)):
                t, s = r * t + b * s, a * t + r * s
                assert t > 0 and s > 0, (a, b, r, s0)
                for _ in range(3):
                    t, s, last = r * t + b * s, a * t + r * s, s
                    assert t > 0 and s > last, (a, b, r, s0)


def test_seed_scans_over_s0_and_c0_agree():
    # both census paths scan c0 for their seeds while a*c0+1 <= X =
    # a(b-a) // (2(r-1)): every pair has X >= 1, and the s0 with
    # a*c0+1 = s0^2 for those c0 are exactly the s0 <= isqrt(X) with
    # s0^2 == 1 (mod a), in the same order, and pell_orbit tests each of
    # them once
    for a, b, r in find_pairs(2000):
        seed_sq_max = a * (b - a) // (2 * (r - 1))
        assert seed_sq_max >= 1, (a, b, r)
        by_s0 = [s0 for s0 in range(1, math.isqrt(seed_sq_max) + 1)
                 if s0 * s0 % a == 1]
        by_c0 = [math.isqrt(a * c0 + 1)
                 for c0 in range((seed_sq_max - 1) // a + 1)
                 if math.isqrt(a * c0 + 1) ** 2 == a * c0 + 1]
        assert by_c0 == by_s0, (a, b, r)
        assert pell_orbit(a, b, r, r + 1)[0] == len(by_s0), (a, b, r)


def test_seeds_on_the_bound_are_taken(kernel):
    # seeds with s0^2 = X exactly, which a scan that stopped short of X
    # would miss: (2, 4, 3) has X = 1, so its only seed is c0 = 0, and
    # (2, 180, 19) has X = 9, so its seeds are s0 = 1 and s0 = 3 (c0 = 4).
    # No pair up to 20,000 has a seed (s0, t0) with c0 >= 1 on the bound.
    assert pell_orbit(2, 4, 3, 4)[0] == 1
    assert pell_orbit(2, 180, 19, 20)[0] == 2
    # a = 2 at a bound where (2, 180, 19) has r < s_max
    assert kernel.census_chunk(200, 2, 3) == _census_chunk_py(200, 2, 3)


def test_search_small_censuses():
    assert search_triples(20).triples == []
    assert [t[:3] for t in search_triples(24).triples] == [(5, 7, 24)]
    assert [t[:3] for t in search_triples(100).triples] == [
        (5, 7, 24), (8, 45, 91)]


def test_search_750_contains_section1_list():
    got = [t[:3] for t in search_triples(750).triples]
    assert got == sorted(SECTION1, key=lambda t: (t[2], t[1], t[0]))


def test_search_result_certificates_verify():
    res = search_triples(750)
    for a, b, c, cert in res.triples:
        assert 1 < a < b < c <= 750
        assert cert.r_ab ** 2 == a * b + 1
        assert cert.r_ac ** 2 == a * c + 1
        assert cert.r_bc ** 2 == b * c + 1
        assert cert.r_abc ** 2 == a * b * c + 1
        assert verify_four(a, b, c).certificate == cert


@pytest.mark.parametrize("bound", [50, 100, 200, 750, 1000])
def test_search_equals_brute_oracle(bound):
    assert search_triples(bound).triples == brute_oracle(bound).triples


def test_search_monotone_in_bound():
    small = set(search_triples(200).triples)
    mid = set(search_triples(750).triples)
    large = set(search_triples(1000).triples)
    assert small <= mid <= large


def test_search_deterministic_across_jobs():
    lone = search_triples(750, jobs=1)
    four = search_triples(750, jobs=4)
    assert lone.triples == four.triples
    assert lone.stats.pairs_scanned == four.stats.pairs_scanned
    assert lone.stats.candidates_tested == four.stats.candidates_tested


@pytest.mark.parametrize("bound", [200, 2000, 10_000])
def test_kernel_matches_pure_python(bound, kernel, monkeypatch):
    monkeypatch.setattr(search, "_kernel", kernel)
    fast = search_triples(bound)
    pure = search_triples(bound, force_pure=True)
    assert fast.triples == pure.triples
    assert fast.stats.pairs_scanned == pure.stats.pairs_scanned
    assert fast.stats.candidates_tested == pure.stats.candidates_tested


@pytest.mark.parametrize("bound", [*range(3, 401), 2000, 10_000])
def test_kernel_chunk_equals_pure_chunk(bound, kernel):
    # the same raw triples in the same order, and the same counters; every
    # bound to 400, so pairs with b = bound and with s_max = r occur
    assert (kernel.census_chunk(bound, 2, bound - 1)
            == _census_chunk_py(bound, 2, bound - 1))


# a-windows at the kernel's MAX_BOUND, where its 64-bit ranges are widest,
# with the pure path's counts: the first holds (533, 509736, 543235), the
# second has b and c near the bound, the third holds a = 120120, the first
# a with 128 unit roots.  The single a after them take each branch of the
# basis sums of the kernel's unit_roots: 2^20 (4 roots, cofactor 1), 3^12
# (an odd prime power), 510510 (seven distinct primes, 64 roots), 1441440 =
# 2^5*3^2*5*7*11*13 (128 roots, 4 of them mod 2^5) and the prime 1499977.
# Each of 8 and 24 has two triples whose r lie in different unit-root
# classes, so those windows pin the root order: (24, 477, 715) comes before
# (24, 301, 495).
CAP_WINDOWS = [
    (500, 600, (2, 25_358, 61_035)),
    (1_499_000, 1_500_000, (0, 999, 996)),
    (120_000, 120_200, (0, 4_285, 6_888)),
    (1_048_576, 1_048_577, (0, 1, 1)),
    (531_441, 531_442, (0, 1, 1)),
    (510_510, 510_511, (0, 45, 45)),
    (1_441_440, 1_441_441, (0, 3, 3)),
    (1_499_977, 1_499_978, (0, 1, 1)),
    (8, 9, (2, 1_728, 25_796)),
    (24, 25, (2, 1_992, 26_316)),
]


@pytest.mark.parametrize("a_lo,a_hi,counts", CAP_WINDOWS)
def test_kernel_chunk_equals_pure_chunk_at_the_kernel_cap(kernel, a_lo, a_hi,
                                                          counts):
    pure = _census_chunk_py(kernel.MAX_BOUND, a_lo, a_hi)
    assert kernel.census_chunk(kernel.MAX_BOUND, a_lo, a_hi) == pure
    assert (len(pure[0]), pure[1], pure[2]) == counts


@st.composite
def census_windows(draw, max_bound):
    """A chunk (bound, a_lo, a_hi) with bound <= max_bound and 1 to 50
    values of a from a_lo = a, for an a drawn toward the edge cases of the
    kernel: powers of 2 and 3 (the branches of its basis sums), multiples
    of 120120, 510510 and 1441440 (64 to 128 unit roots), a near bound/4,
    a = bound-2 (the last a with a pair; the window then runs past
    bound-1), and a below 100 at a bound from 750 to 20,000, where most
    triples lie.  Pairs and candidates do not depend on the order of the
    unit roots; only two triples of one a from different roots in one
    window show it, such as (8, 45, 91) and (8, 105, 171).  The pure path
    spends about k*bound/(4a) square tests on an a with k unit roots, so
    any other a has bound <= 1000*a; the pure sieve to a costs the rest."""
    kind = draw(st.sampled_from(
        ["power", "roots", "quarter", "top", "small", "any"]))
    if kind == "power":
        a = draw(st.sampled_from([p ** e for p in (2, 3) for e in range(1, 21)
                                  if p ** e <= max_bound - 2]))
    elif kind == "roots":
        m = draw(st.sampled_from([120_120, 510_510, 1_441_440]))
        a = m * draw(st.integers(1, (max_bound - 2) // m))
    elif kind in ("small", "any"):
        a = draw(st.integers(2, 99 if kind == "small" else max_bound - 2))
    if kind in ("quarter", "top"):
        bound = draw(st.integers(10, max_bound))
        a = bound - 2 if kind == "top" else max(
            2, bound // 4 + draw(st.integers(-25, 25)))
    elif kind == "small":
        bound = draw(st.integers(750, 20_000))
    else:
        bound = draw(st.integers(a + 2, min(max_bound, 1000 * a)))
    return bound, a, a + draw(st.integers(1, 50))


@settings(max_examples=30)
@given(data=st.data())
def test_kernel_chunk_equals_pure_chunk_on_generated_windows(kernel, data):
    # in addition to the fixed windows: the same raw triples, in the same
    # order, and the same counters, on windows drawn anew for each change
    # of this test (the draws are derandomized)
    window = data.draw(census_windows(kernel.MAX_BOUND), label="window")
    assert kernel.census_chunk(*window) == _census_chunk_py(*window)


def test_property_tests_draw_the_same_examples_on_every_run():
    # conftest.py loads a derandomized profile before any test module
    # builds its settings, so every @given test in the suite, with or
    # without settings of its own, is deterministic
    assert settings.default.derandomize and settings.default.deadline is None
    assert settings(max_examples=5).derandomize


# the golden (triples, pairs scanned, candidates tested) of the census to
# 200,000, which the pure path takes seconds to reach
CENSUS_200K = (25, 1_398_856, 2_090_179)


@pytest.mark.parametrize("bound,triples,pairs,candidates", [
    (200_000, *CENSUS_200K),
    (1_000_000, 27, 7_973_991, 11_864_774),
], ids=["200000", "1000000"])  # by bound, so a re-pinned count keeps the id
def test_kernel_census_counts_past_the_pure_path(kernel, bound, triples,
                                                 pairs, candidates):
    # golden counts at bounds the pure path takes minutes to reach, where
    # no parity test can catch a kernel that drifts; no raw triple repeats
    found, got_pairs, got_candidates = kernel.census_chunk(bound, 2,
                                                           bound - 1)
    assert len(set(found)) == len(found)
    assert len({t[:3] for t in found}) == triples
    assert (got_pairs, got_candidates) == (pairs, candidates)


def test_kernel_a_windows_sum_to_the_golden_counts(kernel):
    # uneven a-windows, across signal-check steps of 4096, tile the census
    # at 200,000 into the full range's golden triples and counters
    bound = 200_000
    edges = [2, 3, 100, 4095, 4096, 4097, 70_000, bound - 2, bound - 1]
    parts = [kernel.census_chunk(bound, lo, hi)
             for lo, hi in zip(edges, edges[1:])]
    assert (len({t[:3] for found, _, _ in parts for t in found}),
            sum(p for _, p, _ in parts),
            sum(c for _, _, c in parts)) == CENSUS_200K


def _pairs_by_divisors(bound):
    """The pairs a < b <= bound with ab+1 = r^2, counted over r, where
    `find_pairs` takes them over a from the unit roots of a: the pairs of r
    are the divisors a of n = r^2-1 with a < n/a (that is a < r) and
    n/a <= bound.  Only the sieve is shared."""
    r_max = math.isqrt(bound * (bound - 1) + 1)
    spf = spf_sieve(r_max + 1)
    count = 0
    for r in range(3, r_max + 1):
        n = r * r - 1
        a_lo = max(2, -(-n // bound))
        exponents = {}
        for m in (r - 1, r + 1):
            while m > 1:
                exponents[spf[m]] = exponents.get(spf[m], 0) + 1
                m //= spf[m]
        count += sum(a_lo <= d < r for d in divisors(exponents.items()))
    return count


@pytest.mark.parametrize("bound,pairs", [(2000, 8_351), (10_000, 51_665)])
def test_pairs_scanned_equals_a_count_by_divisors(kernel, bound, pairs):
    assert _pairs_by_divisors(bound) == pairs
    assert _census_chunk_py(bound, 2, bound - 1)[1] == pairs
    assert kernel.census_chunk(bound, 2, bound - 1)[1] == pairs


def test_kernel_chunk_edges(kernel):
    # a-windows: below 2, across 2, the a = bound-2 of the last pair
    # (bound-2, bound), and past bound-1
    bound = 2000
    edges = [-5, 0, 2, 3, 4, 47, 48, 1000, bound - 2, bound - 1, bound,
             bound + 50]
    parts = []
    for a_lo, a_hi in zip(edges, edges[1:]):
        part = kernel.census_chunk(bound, a_lo, a_hi)
        assert part == _census_chunk_py(bound, a_lo, a_hi), (a_lo, a_hi)
        parts.append(part)
    whole = kernel.census_chunk(bound, edges[0], edges[-1])
    assert [t for found, _, _ in parts for t in found] == whole[0]
    assert sum(p for _, p, _ in parts) == whole[1]
    assert sum(c for _, _, c in parts) == whole[2]
    assert kernel.census_chunk(bound, 900, 800) == ([], 0, 0)


def test_kernel_rejects_bounds_outside_its_range(kernel):
    for bound in (-1, 2, kernel.MAX_BOUND + 1):
        with pytest.raises(ValueError):
            kernel.census_chunk(bound, 3, 10)


def _use_kernel(monkeypatch, kernel):
    """Route search_triples through `kernel`, so the threaded path runs
    even where no kernel is built in place; the kernel path must start no
    process pool."""
    def no_pool(*args, **kwargs):
        raise AssertionError("kernel chunks went to a process pool")
    monkeypatch.setattr(search, "_kernel", kernel)
    monkeypatch.setattr(search, "Pool", no_pool)


def test_kernel_capacity_overflow_raises(build_kernel, monkeypatch):
    small = build_kernel(MAX_ROOTS=2)
    with pytest.raises(RuntimeError, match="MAX_ROOTS"):
        small.census_chunk(2000, 2, 1999)
    # the error of a chunk on a worker thread reaches the caller
    _use_kernel(monkeypatch, small)
    with pytest.raises(RuntimeError, match="MAX_ROOTS"):
        search_triples(2000, jobs=2)


def test_kernel_root_bound_holds_at_the_cap(build_kernel):
    # the header's bound: below MAX_BOUND no a has more than 128 unit
    # roots, so a kernel with room for 128 runs the whole census at the cap
    # to its golden counts, while one with room for 64 overflows at
    # a = 120120, the first a with 128 roots, and not before it
    tight = build_kernel(MAX_ROOTS=128)
    bound = tight.MAX_BOUND
    found, pairs, candidates = tight.census_chunk(bound, 2, bound - 1)
    assert len({t[:3] for t in found}) == 27
    assert (pairs, candidates) == (12_331_025, 18_327_365)
    half = build_kernel(MAX_ROOTS=64)
    half.census_chunk(bound, 120_119, 120_120)
    with pytest.raises(RuntimeError, match="MAX_ROOTS"):
        half.census_chunk(bound, 120_120, 120_121)


def test_kernel_compiles_without_warnings(build_kernel, kernel):
    assert build_kernel("-Wall", "-Werror").MAX_BOUND == kernel.MAX_BOUND


def test_cflags_set_the_kernel_optimization_level(build_kernel):
    # setup.py adds no -O of its own, so the last -O of the compile command,
    # the one the compiler takes, is the one CFLAGS gives
    o1 = build_kernel("-O1")
    compile_command, = [line for line in o1.build_log.splitlines()
                        if " -c " in line and "_kernel.c" in line]
    levels = [flag for flag in compile_command.split()
              if flag.startswith("-O")]
    assert levels[-1] == "-O1", compile_command


# loads the kernel at argv[1] and compares it with the pure path on the
# (bound, a_lo, a_hi) windows that argv[2] lists
SANITIZED_CHECK = """
import ast, importlib.util, sys
from foursq.search import _census_chunk_py
spec = importlib.util.spec_from_file_location("foursq._kernel", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
for window in ast.literal_eval(sys.argv[2]):
    assert kernel.census_chunk(*window) == _census_chunk_py(*window), window
"""

# the runtime library of each sanitizer, then its compiler flags
SANITIZERS = {
    "undefined": ("libubsan.so", "-fsanitize=undefined",
                  "-fno-sanitize-recover=all", "-fno-wrapv"),
    "address": ("libasan.so", "-g", "-fsanitize=address"),
}


@pytest.mark.parametrize("sanitizer", SANITIZERS)
def test_kernel_under_a_sanitizer_equals_pure_chunk(build_kernel, kernel,
                                                    sanitizer):
    """A kernel built with one of gcc's sanitizers returns the pure path's
    list on the full range at 20,000 and on the a-windows at the cap.

    UBSan checks signed overflow, which in the kernel is the int64_t orbit
    step of follow_orbit; it does not check the wrap of unsigned arithmetic,
    which C defines.  -fno-wrapv undoes the -fwrapv (or
    -fno-strict-overflow) of CPython's own CFLAGS, under which gcc drops the
    signed overflow check.  ASan checks every load and store, such as the
    writes to the roots array that MAX_ROOTS bounds.  A report ends the
    process, so the check runs in a child process, whose stderr carries the
    report.  The ASan runtime must be the first library that process loads,
    so it is preloaded there, and the pytest process never loads such a
    kernel; the UBSan runtime is preloaded the same way.  ASan's default
    unwinder crashes in CPython's frames before it prints the stack of a
    report, so the frame-pointer unwinder prints it.
    """
    runtime, *flags = SANITIZERS[sanitizer]
    cc = sysconfig.get_config_var("CC").split()[0]
    library = subprocess.run([cc, f"-print-file-name={runtime}"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(library):
        pytest.skip(f"{cc} names no {runtime}")
    built = build_kernel("-O1", *flags, load=False)
    windows = [(20_000, 2, 19_999)] + [
        (kernel.MAX_BOUND, a_lo, a_hi) for a_lo, a_hi, _ in CAP_WINDOWS]
    src = Path(search.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZED_CHECK, str(built), repr(windows)],
        env=dict(os.environ, PYTHONPATH=str(src), LD_PRELOAD=library,
                 ASAN_OPTIONS="detect_leaks=0:fast_unwind_on_fatal=1"),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_failed_kernel_build_warns_and_succeeds(tmp_path):
    # needs no compiler: the build must survive a missing one
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp_path),
         "--build-temp", str(tmp_path / "build")],
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, CC="/nonexistent/cc"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("foursq/_kernel*"))
    assert "kernel" in proc.stderr


def test_kernel_releases_the_gil_while_it_scans(kernel):
    bound = 200_000
    window = []

    def census():
        start = time.perf_counter()
        kernel.census_chunk(bound, 2, bound - 1)
        window.extend((start, time.perf_counter()))

    worker = threading.Thread(target=census)
    ticks = []
    worker.start()
    while worker.is_alive():
        ticks.append(time.perf_counter())
        time.sleep(0.002)
    worker.join(timeout=60)
    assert not worker.is_alive() and len(window) == 2
    # a kernel that held the GIL would let this thread tick once at most
    # between entering and leaving the call
    start, end = window
    assert sum(start < tick < end for tick in ticks) >= 10


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_threaded_kernel_census_equals_one_job(jobs, kernel, monkeypatch):
    _use_kernel(monkeypatch, kernel)
    lone = search_triples(20_000)
    # more threads than cores, switching as often as the interpreter can:
    # a chunk lost or stored twice changes the counters
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = search_triples(20_000, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    assert many.triples == lone.triples
    assert many.stats.pairs_scanned == lone.stats.pairs_scanned
    assert many.stats.candidates_tested == lone.stats.candidates_tested


def test_threaded_kernel_census_golden_counts(kernel, monkeypatch):
    _use_kernel(monkeypatch, kernel)
    result = search_triples(200_000, jobs=2)
    assert (len(result.triples), result.stats.pairs_scanned,
            result.stats.candidates_tested) == CENSUS_200K


def test_pure_census_on_processes_equals_one_job():
    lone = search_triples(750, jobs=1, force_pure=True)
    four = search_triples(750, jobs=4, force_pure=True)
    assert lone.triples == four.triples
    assert lone.stats.pairs_scanned == four.stats.pairs_scanned
    assert lone.stats.candidates_tested == four.stats.candidates_tested


def test_interrupt_stops_a_threaded_census(kernel, monkeypatch):
    _use_kernel(monkeypatch, kernel)
    started = []
    chunk_worker = search._chunk_worker

    def counted(args):
        started.append(args)
        return chunk_worker(args)
    monkeypatch.setattr(search, "_chunk_worker", counted)
    bound = 1_500_000
    timer = threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            search_triples(bound, jobs=2)
    finally:
        timer.cancel()
    # the caller did not wait for the chunks still running
    census = [thread for thread in threading.enumerate()
              if thread.name.startswith("foursq-census")]
    assert census and all(thread.daemon for thread in census)
    # and the threads take no further chunk
    for thread in census:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in census)
    assert len(started) < len(_chunk_plan(bound, 2, True))


def test_a_failed_thread_start_stops_a_threaded_census(kernel, monkeypatch):
    # a thread can fail to start (at the process's thread limit, or on
    # Ctrl-C while it comes up); the error reaches the caller, and the
    # thread already started takes no further chunk
    _use_kernel(monkeypatch, kernel)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    chunk_worker = search._chunk_worker

    def counted(args):
        started.append(args)
        return chunk_worker(args)
    monkeypatch.setattr(search, "_chunk_worker", counted)
    census = []
    thread_start = threading.Thread.start

    def start(thread):
        if thread.name.startswith("foursq-census"):
            census.append(thread)
            if len(census) == 2:
                raise RuntimeError("can't start new thread")
        thread_start(thread)
    monkeypatch.setattr(threading.Thread, "start", start)
    bound = 1_500_000
    with pytest.raises(RuntimeError, match="can't start new thread"):
        search_triples(bound, jobs=2)
    census[0].join(timeout=60)
    assert not census[0].is_alive()
    assert len(started) < len(_chunk_plan(bound, 2, True))


def test_the_kernel_checks_for_signals_while_it_scans(kernel):
    # Ctrl-C stops a census on the main thread (one job, or a direct call)
    # only through the kernel's own signal check: without it the interrupt
    # is raised once the whole scan has returned
    bound = kernel.MAX_BOUND
    start = time.perf_counter()
    kernel.census_chunk(bound, 2, bound - 1)
    whole = time.perf_counter() - start
    timer = threading.Timer(0.02, os.kill, (os.getpid(), signal.SIGINT))
    start = time.perf_counter()
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            kernel.census_chunk(bound, 2, bound - 1)
    finally:
        timer.cancel()
    assert time.perf_counter() - start < whole / 3


@pytest.mark.parametrize("bound,jobs", [
    (3, 2), (4, 2), (24, 4), (750, 3), (50_000, 2), (100, 10**9)])
def test_chunk_plan_tiles_the_a_range(bound, jobs):
    # the chunks tile the a-range [2, bound-1) of the pairs; one worker per
    # chunk at most, so the plan bounds the threads or processes a census
    # starts, whatever --jobs says
    chunks = _chunk_plan(bound, jobs, True)
    assert len(chunks) <= min(4 * jobs, bound - 3)
    edges = [2] + [a_hi for _, _, a_hi, _ in chunks]
    assert [a_lo for _, a_lo, _, _ in chunks] == edges[:-1]
    assert edges[-1] == bound - 1
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))


def test_workers_are_capped_at_the_cpu_count(kernel, monkeypatch):
    # without the CPU cap, jobs=5000 would start 5000 threads or pool
    # processes, and would plan about 4*5000 chunks (19,997 at 20,000), each
    # building its own sieve.  The stubs refuse more than 2 workers before
    # any starts, and record the chunks they are handed.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    asked = []

    def ask(workers, chunks):
        if workers > 2:
            raise AssertionError(f"{workers} workers asked for on 2 CPUs")
        asked.append((workers, len(chunks)))
        return [search._chunk_worker(chunk) for chunk in chunks]

    class RecordingPool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, chunks):
            return ask(self.processes, chunks)

    monkeypatch.setattr(search, "Pool", RecordingPool)
    monkeypatch.setattr(search, "_map_on_threads",
                        lambda chunks, workers: ask(workers, chunks))
    monkeypatch.setattr(search, "_kernel", kernel)
    for bound, pure in ((20_000, False), (2000, True)):
        many = search_triples(bound, jobs=5000, force_pure=pure)
        lone = search_triples(bound, jobs=1, force_pure=pure)
        assert many.triples == lone.triples
        assert many.stats.pairs_scanned == lone.stats.pairs_scanned
        assert many.stats.candidates_tested == lone.stats.candidates_tested
    assert [workers for workers, _ in asked] == [2, 2]
    assert all(n_chunks <= 8 for _, n_chunks in asked)


def test_family_members_appear_in_census():
    res = search_triples(50_000)
    got = {t[:3] for t in res.triples}
    for n in range(-8, 9):
        for cand in (make_main(n), make_companion(n)):
            if cand.admissible and cand.c <= 50_000:
                key = tuple(sorted((cand.a, cand.b, cand.c)))
                assert key in got, f"{cand.variant} n={n} missing {key}"


def test_census_contains_a_non_regular_triple():
    # not every four-square triple is a regular completion: for this one
    # c differs from a + b + 2r, yet all four conditions hold
    res = search_triples(2500)
    got = {t[:3] for t in res.triples}
    a, b, c = 2, 12, 2380
    assert (a, b, c) in got
    r = math.isqrt(a * b + 1)
    assert c != a + b + 2 * r
    assert verify_four(a, b, c).ok


def _partners(a, bound):
    """{b: r} for a < b <= bound with ab+1 = r^2: r^2 == 1 (mod a), so
    r = u + k*a for the u in [0, a) with u^2 == 1 (mod a)."""
    out = {}
    for u in range(a):
        if (u * u - 1) % a:
            continue
        r = u
        while (r * r - 1) // a <= bound:
            b = (r * r - 1) // a
            if b > a:
                out[b] = r
            r += a
    return out


def test_partner_scan_finds_every_pair(pairs_to_300):
    assert {(a, b, r) for a in range(2, 301)
            for b, r in _partners(a, 300).items()} == pairs_to_300


def test_diophantine_triples_are_regular_or_c_exceeds_4ab():
    # a < b < c with ab+1, ac+1, bc+1 squares has c = a + b + 2r or
    # c > 4ab (A. Dujella, "Diophantine m-tuples"); checked by a scan that
    # shares no code with the census
    bound = 3000
    regular = irregular = 0
    for a in range(1, bound + 1):
        partners = _partners(a, bound)
        bs = sorted(partners)
        for i, b in enumerate(bs):
            for c in bs[i + 1:]:
                if math.isqrt(b * c + 1) ** 2 != b * c + 1:
                    continue
                if c == a + b + 2 * partners[b]:
                    regular += 1
                else:
                    assert c > 4 * a * b, (a, b, c)
                    irregular += 1
    assert regular > irregular > 0


ORACLE_BOUND = 20_000


@pytest.fixture(scope="module")
def unit_root_oracle():
    """The census to ORACLE_BOUND from the unit roots of a, with no Pell
    step: the pair count, the Diophantine triples (a, b, c, r) and the
    four-square triples with their certificates, sorted as search_triples
    sorts them.

    The r > a with r^2 == 1 (mod a) and r <= isqrt(a*N+1) are the pairs
    b = (r^2-1)/a <= N of a, in ascending b.  Two of them, u < v, give
    b < c with ab+1 = u^2 and ac+1 = v^2, so (a, b, c) is a Diophantine
    triple exactly when bc+1 is a square, and a four-square one when abc+1
    is one too.  Only the sieve and the unit roots mod a are shared with
    the census."""
    bound = ORACLE_BOUND
    spf = spf_sieve(bound)
    pairs = 0
    diophantine = []
    four_square = []
    for a in range(2, bound - 1):
        s_max = math.isqrt(a * bound + 1)
        roots = sorted(r for u in unit_square_roots(a, spf)
                       for r in range(a + u, s_max + 1, a))
        pairs += len(roots)
        for i, u in enumerate(roots):
            b = (u * u - 1) // a
            for v in roots[i + 1:]:
                c = (v * v - 1) // a
                t = math.isqrt(b * c + 1)
                if t * t != b * c + 1:
                    continue
                diophantine.append((a, b, c, u))
                w = math.isqrt(a * b * c + 1)
                if w * w == a * b * c + 1:
                    four_square.append((a, b, c, Certificate(u, v, t, w)))
    four_square.sort(key=lambda t: (t[2], t[1], t[0]))
    return pairs, diophantine, four_square


@pytest.fixture(scope="module")
def orbits_to_oracle_bound():
    """(a, b, r, seeds tested, orbit iterates) of every pair of the census
    to ORACLE_BOUND, from pell_orbit."""
    bound = ORACLE_BOUND
    return [(a, b, r, *pell_orbit(a, b, r, math.isqrt(a * bound + 1)))
            for a, b, r in find_pairs(bound)]


def test_unit_root_oracle_equals_both_census_paths(kernel, monkeypatch,
                                                   unit_root_oracle):
    # the pairs scanned and the four-square triples, certificates included
    pairs, _, four_square = unit_root_oracle
    assert (pairs, len(four_square)) == (111_810, 20)
    monkeypatch.setattr(search, "_kernel", kernel)
    for pure in (False, True):
        result = search_triples(ORACLE_BOUND, force_pure=pure)
        assert result.stats.pairs_scanned == pairs, pure
        assert result.triples == four_square, pure


def test_orbit_iterates_are_the_unit_root_oracles_diophantine_triples(
        unit_root_oracle, orbits_to_oracle_bound):
    # as lists, so an iterate met twice fails: each Diophantine triple lies
    # on exactly one walk (the uniqueness of pell_orbit), including those of
    # the pairs {a, a+2}, whose walk from (-1, 1) would retrace that from
    # (1, 1)
    _, diophantine, _ = unit_root_oracle
    assert len(diophantine) == 45_903
    assert sorted((a, b, (s * s - 1) // a)
                  for a, b, _, _, orbit in orbits_to_oracle_bound
                  for s, _ in orbit) == sorted(
                      (a, b, c) for a, b, c, _ in diophantine)


def test_orbit_iterates_repeat_only_for_pairs_a_a_plus_2(
        orbits_to_oracle_bound):
    # why pell_orbit has its guard: a scan that follows both (t0, s0) and
    # (-t0, s0) from every seed meets an iterate twice only for a pair
    # {a, a+2}, whose first step from (-1, 1) is (1, 1), the seed of its
    # other walk; pell_orbit returns each of these iterates once
    iterates = collections.Counter()
    for a, b, r, _, _ in orbits_to_oracle_bound:
        s_max = math.isqrt(a * ORACLE_BOUND + 1)
        seed_sq_max = a * (b - a) // (2 * (r - 1))
        for c0 in range((seed_sq_max - 1) // a + 1):
            s0, t0 = math.isqrt(a * c0 + 1), math.isqrt(b * c0 + 1)
            if s0 * s0 != a * c0 + 1 or t0 * t0 != b * c0 + 1:
                continue
            for t, s in ((t0, s0), (-t0, s0)):
                while True:
                    t, s = r * t + b * s, a * t + r * s
                    if t > 0 and s > s_max:
                        break
                    if r < s <= s_max:
                        iterates[a, b, (s * s - 1) // a] += 1
    assert sum(iterates.values()) == 50_910
    repeats = {triple: n for triple, n in iterates.items() if n > 1}
    assert sum(n - 1 for n in repeats.values()) == 5_007
    assert all(n == 2 and b == a + 2 for (a, b, _), n in repeats.items())
    assert sorted((a, b, (s * s - 1) // a)
                  for a, b, _, _, orbit in orbits_to_oracle_bound
                  for s, _ in orbit) == sorted(iterates)


def test_no_raw_triple_repeats_on_the_pure_path():
    # (5, 7, 24) is d+(0) of the pair {5, 7}, on the walk from (1, 1) and,
    # without the guard of pell_orbit, again on the walk from (-1, 1)
    found, pairs, candidates = _census_chunk_py(ORACLE_BOUND, 2,
                                                ORACLE_BOUND - 1)
    assert len(set(found)) == len(found) == 20
    assert [t[:3] for t in found].count((5, 7, 24)) == 1
    assert (pairs, candidates) == (111_810, 167_354)


def test_the_guard_holds_exactly_when_the_walk_from_minus_t0_retraces():
    # for every seed (t0, s0) of every pair to 3000: one step from
    # (-t0, s0) gives (t0, s0) exactly when (r-1)*s0 = a*t0, and otherwise
    # it lands past the seed bound, so on no seed (steps 2 and 3 of the
    # uniqueness argument of pell_orbit, with w = (r-1)*s - a*t)
    retraced = 0
    for a, b, r in find_pairs(3000):
        seed_sq_max = a * (b - a) // (2 * (r - 1))
        for s0 in range(1, math.isqrt(seed_sq_max) + 1):
            c0, rest = divmod(s0 * s0 - 1, a)
            t0 = math.isqrt(b * c0 + 1)
            if rest or t0 * t0 != b * c0 + 1:
                continue
            t, s = b * s0 - r * t0, r * s0 - a * t0
            assert (r - 1) * s - a * t == -((r - 1) * s0 - a * t0)
            guard = (r - 1) * s0 == a * t0
            assert guard == ((t, s) == (t0, s0)), (a, b, s0)
            assert guard or s * s > seed_sq_max, (a, b, s0)
            retraced += guard
    assert retraced == 2997  # c0 = 0 of each {a, a+2}, a = 2..2998


def test_irregular_diophantine_triples_exceed_4ab(unit_root_oracle):
    # the completeness lemma of pell_orbit, on the oracle's triples: every
    # c that is not a + b + 2r exceeds 4ab; (2, 12, 2380) is one of them
    _, diophantine, _ = unit_root_oracle
    irregular = [(a, b, c) for a, b, c, r in diophantine
                 if c != a + b + 2 * r]
    assert len(irregular) == 66 and (2, 12, 2380) in irregular
    assert all(c > 4 * a * b for a, b, c in irregular)


def test_orbit_steps_give_the_lemmas_d_plus_and_d_minus():
    # step 1 of the completeness lemma: from every iterate (t, s), with
    # c = (s^2-1)/a, one step from (t, s) and one from (-t, s) land on
    # c' = a + b + c + 2abc +- 2rst, with bc'+1 = t'^2
    bound = 3000
    steps = 0
    for a, b, r in find_pairs(bound):
        for s, t in pell_orbit(a, b, r, math.isqrt(a * bound + 1))[1]:
            c = (s * s - 1) // a
            for sign in (1, -1):
                t_next, s_next = r * sign * t + b * s, a * sign * t + r * s
                c_next, rest = divmod(s_next * s_next - 1, a)
                assert rest == 0 and b * c_next + 1 == t_next * t_next
                assert (c_next
                        == a + b + c + 2 * a * b * c + sign * 2 * r * s * t)
                steps += 1
    assert steps == 10_264


def test_seeds_meet_the_lemmas_bounds(orbits_to_oracle_bound):
    # steps 2 and 3 of the completeness lemma on every seed (s0, t0) of
    # every pair to ORACLE_BOUND, from a scan of c0 over the seed bound X
    # that counts the s0 as pell_orbit does: d+(c0) > 4ab*c0,
    # d+ * d- = (c0-a-b)^2 - 4(ab+1), and 0 <= d-(c0) < b, where d-(c0) is
    # the c of the first step from (-t0, s0).  Observed, not proved: the
    # guard (r-1)*s0 = a*t0 of pell_orbit holds only at c0 = 0 of the
    # pairs {a, a+2}
    seeds = retraced = 0
    for a, b, r, tested, _ in orbits_to_oracle_bound:
        seed_sq_max = a * (b - a) // (2 * (r - 1))
        squares = 0
        for c0 in range((seed_sq_max - 1) // a + 1):
            s0 = math.isqrt(a * c0 + 1)
            if s0 * s0 != a * c0 + 1:
                continue
            squares += 1
            t0 = math.isqrt(b * c0 + 1)
            if t0 * t0 != b * c0 + 1:
                continue
            seeds += 1
            rst = r * s0 * t0
            d_plus, d_minus = (a + b + c0 + 2 * a * b * c0 + sign * 2 * rst
                               for sign in (1, -1))
            assert d_plus > 4 * a * b * c0, (a, b, c0)
            assert d_plus * d_minus == (c0 - a - b) ** 2 - 4 * (a * b + 1)
            assert (r * s0 - a * t0) ** 2 == a * d_minus + 1
            assert 0 <= d_minus < b, (a, b, c0)
            if (r - 1) * s0 == a * t0:
                assert c0 == 0 and b == a + 2, (a, b, c0)
                retraced += 1
        assert squares == tested, (a, b, r)
    assert (seeds, retraced) == (111_885, ORACLE_BOUND - 3)


def test_brute_oracle_smallest_triple():
    assert [t[:3] for t in brute_oracle(24).triples] == [(5, 7, 24)]
    assert brute_oracle(3).triples == []
    assert brute_oracle(20).triples == []


def test_brute_oracle_cap():
    with pytest.raises(DomainError):
        brute_oracle(ORACLE_MAX_BOUND + 1)


def test_bound_validation(no_sieve):
    with pytest.raises(DomainError):
        search_triples(2)
    with pytest.raises(DomainError):
        brute_oracle(2)
    with pytest.raises(DomainError):
        search_triples(100, jobs=0)
    with pytest.raises(DomainError):
        list(find_pairs(2))
    with pytest.raises(DomainError):
        search_triples(10**7 + 1, force_pure=True)
