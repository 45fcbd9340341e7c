"""Exhaustive census of four-square triples up to a bound.

Strategy: enumerate every pair 2 <= a < b <= bound with ab+1 = r^2 by its
smaller element a.  b > a is r > a, b <= bound is r <= isqrt(a*bound+1),
and b = (r^2-1)/a is an integer exactly when r^2 == 1 (mod a), so the pairs
of a are r = u + k*a (k >= 1) for the unit roots u of a, combined by the
Chinese remainder theorem from the roots mod each prime power of a, which a
smallest-prime-factor sieve divides out of it.  For each pair, every c > b
with ac+1 = s^2 and bc+1 = t^2 solves the Pell-type equation
a*t^2 - b*s^2 = a - b, whose solutions fall into orbits under the unit
r + sqrt(ab).  Each orbit holds a small seed (Nagell's bound, see
`pell_orbit`, which also proves that every such c is a + b + 2r or exceeds
4ab), so the census tests a handful of seeds per pair and follows their
orbits up to the bound.  Each iterate (t, s) gives c = (s^2-1)/a with
bc+1 = t^2 by construction (checked, not searched for) and an exact square
test of abc+1.  A compiled kernel makes the same scan, step for step, for
bounds whose arithmetic fits in 64 bits (up to its exported MAX_BOUND); the
pure-Python path is the fallback and the reference for it, and both return
the same raw triples in the same order.  The reference does its arithmetic
plainly, and the kernel builds its unit roots as sums of CRT basis
elements, with no division, so the parity tests set the two constructions
against each other.

`brute_oracle` is the deliberately dumb cross-check: double pair loop plus a
full scan of c, never sharing code with the fast path.
"""

import math
import os
import threading
import time
from collections import deque
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .certify import Certificate, DomainError, isqrt, perfect_square_root

try:
    from . import _kernel
except ImportError:  # extension not built; pure Python carries the load
    _kernel = None

ORACLE_MAX_BOUND = 2000
# The pure census sieves a up to about the bound, at about 40 bytes a list
# entry: 400 MB at this cap.  That is per process: with jobs > 1 each pool
# process builds its own sieve up to its chunk's a_hi, so a run near the cap
# can hold as many such sieves at once as it has workers (see search_triples).
PURE_MAX_BOUND = 10**7

Triple = Tuple[int, int, int, Certificate]


class SearchStats(NamedTuple):
    pairs_scanned: int
    candidates_tested: int
    elapsed: float


class SearchResult(NamedTuple):
    bound: int
    triples: List[Triple]
    stats: SearchStats


def Pool(processes: int):
    """`multiprocessing.Pool(processes)`, imported on the first call: only a
    pure census with jobs > 1 runs a process pool, so no other command pays
    for importing multiprocessing.  A module attribute, so that tests and
    tracing can replace it."""
    import multiprocessing
    return multiprocessing.Pool(processes)


def kernel_loaded() -> bool:
    return _kernel is not None


def census_path(bound: int, force_pure: bool = False,
                jobs: int = 1) -> Tuple[bool, str]:
    """Whether a census to `bound` on `jobs` workers runs in the kernel, and
    why (or why not).  Raises DomainError for a census that cannot run."""
    if bound < 3:
        raise DomainError(f"search needs bound >= 3, got {bound}")
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    if force_pure:
        reason = "--pure given"
    elif _kernel is None:
        reason = "kernel not built"
    elif bound > _kernel.MAX_BOUND:
        reason = (f"bound {bound} exceeds the kernel's MAX_BOUND "
                  f"{_kernel.MAX_BOUND}")
    else:
        return True, "compiled kernel loaded"
    if bound > PURE_MAX_BOUND:
        raise DomainError(
            f"bound {bound} exceeds the pure census cap {PURE_MAX_BOUND}: "
            f"its sieve would take about {40 * bound // 10**6} MB")
    return False, reason


def spf_sieve(limit: int) -> List[int]:
    """spf[i] = smallest prime factor of i, for 0 <= i <= limit."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:  # p prime
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def unit_square_roots(m: int, spf: List[int]) -> Tuple[int, ...]:
    """All t in [0, m) with t^2 == 1 (mod m), for m within the sieve, in
    CRT order.

    The prime powers p^e of m are divided out of it by their smallest prime
    from the sieve, the smallest prime first.  The roots mod p^e are 1,
    p^e-1 (and p^e/2-1, p^e/2+1 for p^e >= 8), in that order: 2 roots mod
    an odd prime power, and 1, 2 or 4 mod 2, 4 or a higher power of 2.
    With M the product of the prime powers taken so far, the Chinese
    remainder theorem makes the root x mod M and the root l mod p^e one
    root mod M*p^e: x + M*((l - x)*(M^-1 mod p^e) mod p^e), which is below
    M*p^e.  Each root so far is extended by each root mod p^e in turn, so
    the roots come in CRT order, unsorted: the root chosen mod the smallest
    prime power varies slowest.  The kernel's `unit_roots` builds the same
    roots in the same order by another construction, with no division, so
    the parity tests check its arithmetic against this one.
    """
    roots = [0]
    rest = m  # m with the prime powers taken so far divided out
    while rest > 1:
        p = spf[rest]
        mod = m // rest  # M, the product of the prime powers taken so far
        while rest % p == 0:
            rest //= p
        pe = m // rest // mod
        local = ((1, pe - 1) if p > 2 else
                 (1, pe - 1, pe // 2 - 1, pe // 2 + 1)[:min(pe // 2, 4)])
        inv = pow(mod, -1, pe)
        # under M = 1 (the first prime power) the step takes x = 0 to l
        roots = [x + mod * ((l - x) * inv % pe)
                 for x in roots for l in local] if mod > 1 else list(local)
    return tuple(roots)


def find_pairs(bound: int, a_lo: int = 2, a_hi: Optional[int] = None
               ) -> Iterator[Tuple[int, int, int]]:
    """Yield every (a, b, r) with 2 <= a < b <= bound, a_lo <= a < a_hi and
    ab+1 = r^2: by ascending a, then root by root of a in the CRT order of
    `unit_square_roots`, then by ascending r, the order of the kernel.

    b > a is r > a, and b <= bound is r <= s_max = isqrt(a*bound+1); b is an
    integer exactly when r^2 == 1 (mod a).  So the pairs of a are
    r = u + k*a <= s_max, k >= 1, for the unit roots 1 <= u < a of a.  Every
    pair has b >= a+2, since a(a+1)+1 lies strictly between a^2 and
    (a+1)^2, so no a >= bound-1 has a pair.
    """
    if bound < 3:
        raise DomainError(f"pair enumeration needs bound >= 3, got {bound}")
    a_hi = bound - 1 if a_hi is None else min(a_hi, bound - 1)
    spf = spf_sieve(max(a_hi - 1, 1))  # every a < a_hi, and no further
    for a in range(max(a_lo, 2), a_hi):
        s_max = isqrt(a * bound + 1)
        for u in unit_square_roots(a, spf):
            for r in range(a + u, s_max + 1, a):
                yield a, (r * r - 1) // a, r


def pell_orbit(a: int, b: int, r: int, s_max: int
               ) -> Tuple[int, List[Tuple[int, int]]]:
    """Seeds tested, and the (s, t) of every orbit iterate with
    r < s <= s_max, for the pair (a, b, r) with ab+1 = r^2.

    Every c with ac+1 = s^2 and bc+1 = t^2 solves a*t^2 - b*s^2 = a - b, and
    c > b, c <= bound mean r < s <= s_max = isqrt(a*bound+1).  Multiplied by
    a this is (at)^2 - ab*s^2 = -a(b-a); the step
    (t, s) <- (r*t + b*s, a*t + r*s) is multiplication by the norm-1 unit
    r + sqrt(ab), and each orbit of solutions under it (with its conjugate)
    holds a seed with s0^2 <= a(b-a) / (2(r-1)) (T. Nagell, Introduction to
    Number Theory, 1951, Thm 108a; Dujella and Petho, Quart. J. Math. 49,
    1998); for an integer s0 that is s0^2 <= X = a(b-a) // (2(r-1)).  So the
    seeds are the s0 with a*c0+1 = s0^2 <= X and b*c0+1 = t0^2, scanned over
    c0 = 0, 1, ... while a*c0+1 <= X, as the kernel scans them; c0 = 0 is
    the seed (s0, t0) = (1, 1), taken without a test.  X >= 1 for every
    pair (b >= a+2 and r <= (a+b)/2 give a(b-a) >= 2(r-1)), so c0 = 0 is
    always scanned.  (t0, s0) is followed, and so is (-t0, s0) unless
    (r-1)*s0 = a*t0, when its first step lands on (t0, s0) (see
    Uniqueness).  Seeds have s0 < r, so none is a candidate.

    Termination: one step from either seed gives t > 0 and s > 0 (from
    (-t0, s0) because s0 is within the bound above, which makes
    r*t0 < b*s0 and a*t0 < r*s0).  From then on each step adds positive
    terms, so s strictly increases, and the first iterate with t > 0 and
    s > s_max ends the orbit: every later one is larger still.

    Every returned (s, t) has t > 0 (it lies past the first step) and, with
    c = (s^2-1)/a, bc+1 = t^2: a*t^2 - b*s^2 = a - b holds on the orbit, and
    s^2 == 1 (mod a) holds for s0 and is kept by the step
    (a*t + r*s == r*s and r^2 == 1 (mod a)), so bc+1 = (b*s^2 - b + a)/a.
    The caller still checks t*t == bc+1, and tests abc+1.

    Completeness lemma: every c > b with ac+1 and bc+1 square has
    c = a + b + 2r (the regular c) or c > 4ab (A. Dujella, "Diophantine
    m-tuples").  Proof, with r, s, t >= 0 the roots of ab+1, ac+1, bc+1:
    1. One step from (t, s) gives c' = d+(c) = a + b + c + 2abc + 2rst, and
       one from (-t, s) gives c' = d-(c) = a + b + c + 2abc - 2rst: expand
       s' = +-a*t + r*s with s^2 = ac+1, t^2 = bc+1 and r^2 = ab+1.  Either
       way bc'+1 = t'^2.
    2. r^2 > ab, s^2 > ac and t^2 > bc give rst > abc, so d+(c) > 4abc, and
       d+(c) > 4ab when c >= 1.
    3. Multiplied out, d+(c)*d-(c) = (a+b+c+2abc)^2 - 4(ab+1)(ac+1)(bc+1)
       = (c-a-b)^2 - 4(ab+1).  A seed has a*c0 + 1 <= X <= a(b-a)/4 (as
       r >= 3), so c0 < b/4.  d-(c0) >= 0, since it is (s'^2-1)/a with
       s'^2 == 1 (mod a), so s' != 0.  d-(0) = a + b - 2r < b (r > a), and
       for c0 >= 1, d-(c0) < (a+b)^2 / d+(c0) < (a+b)^2 / (4ab) < b, as
       a + b < 2b < 2b*sqrt(a).  So 0 <= d-(c0) < b: the first step from
       (-t0, s0) never passes b.
    4. Past the first step t and s are positive, so each step is the d+ of
       the c before it.  So a c > b on an orbit is d+(0) = a + b + 2r, or
       the d+ of some c >= 1, which exceeds 4ab.  Nagell's seed bound puts
       every solution on such an orbit, which proves the lemma.

    Uniqueness: no (s, t) is returned twice, from one seed or from two.
    Only the completeness of the seeds rests on Nagell; tier-1 checks it
    (`test_pell_orbit_finds_every_c_of_a_pair`, and
    `test_orbit_iterates_are_the_unit_root_oracles_diophantine_triples`,
    which also sees any repeat).  The rest is proved here, in three steps:
    1. A walk from (t0, s0) meets d+(c0), d+(d+(c0)), ..., and one from
       (-t0, s0) meets d-(c0), d+(d-(c0)), ... (lemma, steps 1 and 4).
       d+ strictly increases with c, and d+ of any c >= 0 is at least
       a + b + 2r > b, while c0 and d-(c0) are below b (step 3).  So
       d+^i(x) = d+^j(y) with i >= j >= 1 gives d+^(i-j)(x) = y < b, so
       i = j and x = y: two walks share an iterate only if they start
       from the same c, and then they are the same walk.
    2. Let w = (r-1)*s - a*t.  As a*t^2 = b*s^2 - (b-a),
       (r-1)^2*s^2 - a^2*t^2 = a(b-a) - 2(r-1)*s^2, so for t >= 0, w has
       the sign of a(b-a) - 2(r-1)*s^2, and w >= 0 at every seed.  One
       step from (-t, s) is (b*s - r*t, r*s - a*t), whose w is -w, and
       it has t' > 0.  So unless w = 0, the first step from (-t0, s0)
       has 2(r-1)*s'^2 > a(b-a) >= 2(r-1)*X, and d-(c0) is no seed's c0.
       If w = 0, then s' = s0 and t' = t0 (b*s0 = (r+1)*t0 follows from
       (r^2-1)*s0 = a(r+1)*t0), so d-(c0) = c0 and the walk from
       (-t0, s0) retraces that from (t0, s0): the scan skips it.
    3. One step from (-t, s) is the inverse step from (t, s) with t
       negated, so one step from (-t', s') leads back to (t0, s0), and
       d-(c0) = d-(c0') only for c0 = c0'.
    By 2 and 3 the walks the scan follows start from distinct c, and by
    1 they share no iterate.  Only pairs {a, a+2} have w = 0 at the seed
    c0 = 0 ((r-1)*1 = a*1 is r = a+1); tier-1 sees no other case up to
    20,000.
    """
    seed_sq_max = a * (b - a) // (2 * (r - 1))
    seeds = 0
    found = []
    for c0 in range((seed_sq_max - 1) // a + 1):
        s0 = perfect_square_root(a * c0 + 1) if c0 else 1
        if s0 is None:
            continue
        seeds += 1
        t0 = perfect_square_root(b * c0 + 1) if c0 else 1
        if t0 is None:
            continue
        # the first step from (-t0, s0) lands on (t0, s0): d-(c0) = c0
        retraced = (r - 1) * s0 == a * t0
        for t, s in ((t0, s0),) if retraced else ((t0, s0), (-t0, s0)):
            while True:
                t, s = r * t + b * s, a * t + r * s
                if t > 0 and s > s_max:
                    break
                if r < s <= s_max:
                    found.append((s, t))
    return seeds, found


def _census_chunk_py(bound: int, a_lo: int, a_hi: int
                     ) -> Tuple[List[Tuple[int, ...]], int, int]:
    """Scan the pairs with a in [a_lo, a_hi); return raw triples and
    counters.

    Raw triples are (a, b, c, r_ab, r_ac, r_bc, r_abc) tuples, in the order
    the scan meets them: pairs in `find_pairs` order, seeds ascending, the
    orbit of (t0, s0) before that of (-t0, s0).  The compiled kernel's
    `census_chunk` makes the same scan and returns the same list and the
    same counters: pairs scanned, and candidates tested (seeds tested plus
    orbit iterates tested).
    """
    found = []
    pairs = 0
    candidates = 0
    s_max_a = None  # the a whose s_max = isqrt(a*bound+1) is in s_max
    for a, b, r in find_pairs(bound, a_lo, a_hi):
        pairs += 1
        if a != s_max_a:
            s_max_a, s_max = a, isqrt(a * bound + 1)
        if s_max <= r:
            continue
        seeds, orbit = pell_orbit(a, b, r, s_max)
        candidates += seeds + len(orbit)
        for s, t in orbit:
            c = (s * s - 1) // a
            if t > 0 and t * t == b * c + 1:
                u = perfect_square_root(a * b * c + 1)
                if u is not None:
                    found.append((a, b, c, r, s, t, u))
    return found, pairs, candidates


def _chunk_worker(args) -> Tuple[List[Tuple[int, ...]], int, int]:
    bound, a_lo, a_hi, use_kernel = args
    if use_kernel:
        return _kernel.census_chunk(bound, a_lo, a_hi)
    return _census_chunk_py(bound, a_lo, a_hi)


def _chunk_plan(bound: int, workers: int, use_kernel: bool) -> List[tuple]:
    """The `_chunk_worker` arguments of a census: the whole a-range
    [2, bound-1) for one worker, else about 4*workers disjoint a-ranges
    (never more than a-values)."""
    if workers == 1:
        return [(bound, 2, bound - 1, use_kernel)]
    n_chunks = 4 * workers
    step = max(1, (bound - 3 + n_chunks - 1) // n_chunks)
    return [(bound, lo, min(lo + step, bound - 1), use_kernel)
            for lo in range(2, bound - 1, step)]


def _map_on_threads(chunks: List[tuple], workers: int) -> list:
    """`_chunk_worker` over kernel chunks on `workers` threads, results in
    chunk order.  The kernel releases the GIL while it scans, so the threads
    run in parallel; pure chunks hold the GIL and go to a process pool
    instead.

    The threads take chunk indices from a shared queue.  The first exception
    a thread raises is raised here; it, an interrupt of the caller (say
    Ctrl-C while waiting) or a thread that fails to start empties the
    queue, so the threads stop after their current chunk.  They are
    daemons, so interpreter exit does not wait on them.
    """
    results: list = [None] * len(chunks)
    errors: List[BaseException] = []
    pending = deque(range(len(chunks)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                if not pending:
                    return
                i = pending.popleft()
            try:
                results[i] = _chunk_worker(chunks[i])
            except BaseException as exc:  # handed to the caller
                with lock:
                    errors.append(exc)
                    pending.clear()
                return

    threads = [threading.Thread(target=work, name=f"foursq-census-{k}",
                                daemon=True)
               for k in range(workers)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        with lock:
            pending.clear()
    if errors:
        raise errors[0]
    return results


def search_triples(bound: int, jobs: int = 1,
                   force_pure: bool = False) -> SearchResult:
    """Every (a, b, c) with 1 < a < b < c <= bound and all four of ab+1,
    ac+1, bc+1, abc+1 perfect squares, sorted by (c, b, a) with certificates.

    Deterministic regardless of `jobs`: workers (threads on the kernel path,
    processes on the pure path) cover disjoint a-ranges and the merged
    output is sorted; no chunk finds a triple twice (see `pell_orbit`).
    It plans its chunks for min(jobs, CPUs) workers and starts no more
    workers than chunks, so a `jobs` far past the core count costs no more
    than one job per core.
    """
    start = time.monotonic()
    use_kernel, _ = census_path(bound, force_pure, jobs)
    workers = min(jobs, os.cpu_count() or 1)
    chunks = _chunk_plan(bound, workers, use_kernel)
    workers = min(workers, len(chunks))
    if workers <= 1:
        results = [_chunk_worker(chunk) for chunk in chunks]
    elif use_kernel:
        results = _map_on_threads(chunks, workers)
    else:
        with Pool(workers) as pool:
            results = pool.map(_chunk_worker, chunks)
    raw = []
    pairs = candidates = 0
    for found, p, cand in results:
        raw.extend(found)
        pairs += p
        candidates += cand
    merged = sorted(raw, key=lambda t: (t[2], t[1], t[0]))
    triples: List[Triple] = [(a, b, c, Certificate(*roots))
                             for a, b, c, *roots in merged]
    elapsed = time.monotonic() - start
    return SearchResult(bound, triples, SearchStats(pairs, candidates, elapsed))


def brute_oracle(bound: int) -> SearchResult:
    """Reference census by the dumbest correct method: double pair loop with
    stdlib isqrt, then a full scan over c.  Capped so it stays obviously
    correct and tolerably slow."""
    if bound < 3:
        raise DomainError(f"oracle needs bound >= 3, got {bound}")
    if bound > ORACLE_MAX_BOUND:
        raise DomainError(
            f"oracle capped at {ORACLE_MAX_BOUND} (got {bound}); "
            f"use search_triples for larger bounds")
    start = time.monotonic()
    isq = math.isqrt
    triples: List[Triple] = []
    pairs = 0
    candidates = 0
    for a in range(2, bound + 1):
        for b in range(a + 1, bound + 1):
            ab1 = a * b + 1
            r = isq(ab1)
            if r * r != ab1:
                continue
            pairs += 1
            for c in range(b + 1, bound + 1):
                candidates += 1
                ac1 = a * c + 1
                s = isq(ac1)
                if s * s != ac1:
                    continue
                bc1 = b * c + 1
                t = isq(bc1)
                if t * t != bc1:
                    continue
                abc1 = a * b * c + 1
                u = isq(abc1)
                if u * u == abc1:
                    triples.append((a, b, c, Certificate(r, s, t, u)))
    triples.sort(key=lambda t: (t[2], t[1], t[0]))
    elapsed = time.monotonic() - start
    return SearchResult(bound, triples, SearchStats(pairs, candidates, elapsed))
