/*
 * Compiled census kernel: the pair and Pell-orbit scan of
 * search._census_chunk_py in 64-bit arithmetic, for bounds up to MAX_BOUND.
 *
 * census_chunk follows search._census_chunk_py step for step and returns
 * the same list: the same raw triples in the same order, and the same
 * counters; the test suite enforces that equality.  For each a, both paths
 * divide out its prime powers by the sieve and build its unit roots in the
 * same CRT order, the pure path by the textbook CRT step and the kernel as
 * sums of CRT basis elements (see unit_roots), walk its pairs root by root
 * in that order and then by ascending r, and find the seeds of each pair's
 * orbits by the same scan of c0 = (s0^2-1)/a from c0 = 0 (see pell_orbit).
 * search.pell_orbit also proves the lemma that the orbits rest on: every
 * c > b they reach is a + b + 2r or exceeds 4ab.
 *
 * Pairs by their smaller element a: b > a is r > a, and b <= bound is
 * r <= s_max = isqrt(a*bound + 1); b = (r^2-1)/a is an integer exactly when
 * r^2 == 1 (mod a).  So the pairs of a are r = u + k*a, k >= 1, r <= s_max,
 * for the unit roots 1 <= u < a of a, built by CRT over the prime powers of
 * a (see unit_roots).  A pair has b >= a+2 (a^2 < a(a+1)+1 < (a+1)^2), so
 * a chunk's a-window lies in [2, bound-1).
 *
 * The seed bound X = a(b-a)/(2(r-1)) is at least 1 for every pair:
 * ab+1 = r^2 rules out b = a+1, so b >= a+2, and then r <= (a+b)/2, so
 * a(b-a) - 2(r-1) >= (a-1)(b-a-2) >= 0.  So the seed scan always takes
 * c0 = 0.
 *
 * The root of bc+1 is the orbit's t: every iterate solves
 * a*t^2 - b*s^2 = a - b, and s^2 == 1 (mod a) holds for s0 and is kept by
 * the step (s' = a*t + r*s == r*s and r^2 == 1 (mod a)), so with
 * c = (s^2-1)/a, bc+1 = (b*s^2 - b + a)/a = t^2.  Past the seed every
 * iterate has t > 0 (see search.pell_orbit), so t is the certificate's
 * r_bc.  The kernel still checks t*t == b*c + 1 before it takes t.
 *
 * MAX_BOUND is set here only: the module exports it, and
 * search.census_path sends larger bounds to the pure path.
 *
 * Ranges for bound <= MAX_BOUND: a < bound <= 1.5e6.  unit_roots has no
 * 64-bit product: a, p^e, the cofactor co = a/p^e, the inverse of co mod
 * p^e, the basis element B = co * (co^-1 mod p^e) < co * p^e = a, the last
 * one a + 1 - total <= a, and every term and partial sum (all below 2a)
 * fit in u32 while a < 2^31.  r <= s_max <= bound, so r*r - 1 < 2.25e12,
 * s_max's a*bound + 1 < 2.25e12, and b = (r^2-1)/a <= bound.  With r >= 3
 * the seed scan's a*c0 + 1 <= X <= a(b-a)/4 <= b^2/16 < 1.5e11, its last
 * product, the a*c0 + 1 <= X + a that ends the loop, stays far below
 * 2^63, and b*c0 + 1 <= b*X/a + 1 <= b^2/4 + 1 < 5.7e11.  The guard
 * against a retraced walk multiplies r - 1 < 1.5e6 by s0 <= sqrt(X) < 3.9e5
 * and a < 1.5e6 by t0 < sqrt(5.7e11) < 7.6e5, both below 1.2e12.  The orbit
 * iterate (t, s) is signed (t starts at -t0 on one side).  An iterate
 * with s <= s_max has |t| < s * sqrt(b/a), since a*t^2 = b*s^2 - (b-a); so
 * the one step taken past s_max gives s' = a*t + r*s < 2*r*s_max and
 * t' = r*t + b*s < (2*b + 1)*s_max, both below about 4.5e12, far under
 * 2^63, and a candidate's t*t = bc+1 <= bound^2 + 1.  Every isqrt64
 * argument is below 2^63, so it converts through int64_t: s_max's
 * a*bound + 1 is below 2.25e12, and the square tests take
 * a*c0 + 1 < 1.5e11, b*c0 + 1 < 5.7e11 and abc+1 < bound^3 < 3.4e18.
 *
 * Threads: census_chunk releases the GIL for the sieve and the whole scan,
 * and takes it back only to append a found triple (rare) and for the
 * signal check every 4096 values of a.  The kernel is reentrant: it has no
 * module-level state, and each call owns its sieve and result list.  So
 * census_chunk calls on several threads run in parallel
 * (search.search_triples with jobs > 1).
 *
 * Build: python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef uint64_t u64;
typedef uint32_t u32;

/* abc+1 < bound^3 must stay below 2^63. */
#define MAX_BOUND 1500000

/* Capacity for bound <= MAX_BOUND, where a < 1.5e6.  a has 2 unit roots
   per odd prime power, and 1, 2 or 4 for 2^e with e = 1, 2 or e >= 3.  The
   product of the first 8 primes, 9699690, exceeds 1.5e6, so a has at most
   7 distinct primes and at most 128 roots: seven odd primes exceed 1.5e6,
   six leave a 2-part of at most 1.5e6/255255 < 8, which has at most 2
   roots, and five or fewer give at most 4 * 2^5.  406 values of a below
   1.5e6 reach 128, the first a = 120120 = 8*3*5*7*11*13; the tests run the
   census at MAX_BOUND with MAX_ROOTS = 128, and see 64 overflow at 120120.
   Below 1e7 the limit is 256 roots (8 * 3*5*7*11*13*17 < 1e7).  Every
   write is still checked, and overflow raises instead of corrupting
   memory. */
#ifndef MAX_ROOTS
#define MAX_ROOTS 256
#endif

enum { OK = 0, OVERFLOW_ROOTS, OUT_OF_MEMORY };

/* Floor square root of v < 2^63: the double estimate is off by at most a
   few units at this size, so it is corrected in both directions.  The
   conversions go through int64_t, which both ways are single instructions
   on x86-64 where u64 ones are not; v < 2^63 keeps them exact. */
static u64
isqrt64(u64 v)
{
    u64 x = (u64)(int64_t)sqrt((double)(int64_t)v);
    while (x > 0 && x * x > v)
        x--;
    while ((x + 1) * (x + 1) <= v)
        x++;
    return x;
}

/* Exact square test of v < 2^63; writes the root on success. */
static int
square_root(u64 v, u64 *root)
{
    u64 x = isqrt64(v);
    if (x * x != v)
        return 0;
    *root = x;
    return 1;
}

/* spf[i] = smallest prime factor of i, for 0 <= i <= limit. */
static u32 *
build_spf(u64 limit)
{
    u32 *spf = malloc((limit + 1) * sizeof(u32));
    u64 i, p, m;
    if (spf == NULL)
        return NULL;
    for (i = 0; i <= limit; i++)
        spf[i] = (u32)i;
    for (p = 2; p * p <= limit; p++)
        if (spf[p] == p)
            for (m = p * p; m <= limit; m += p)
                if (spf[m] == m)
                    spf[m] = (u32)p;
    return spf;
}

/* x^-1 mod m, for gcd(x, m) = 1 and m < 2^31, by the extended Euclidean
   algorithm.  The coefficients alternate in sign and grow in size up to
   the last, +-m, so |t| <= m and q*|t1| <= |t2| <= m fit in int32_t. */
static u32
inv_mod(u32 x, u32 m)
{
    u32 r0 = m, r1 = x % m;
    int32_t t0 = 0, t1 = 1;
    while (r1 != 0) {
        u32 q = r0 / r1, r2 = r0 - q * r1;
        int32_t t2 = t0 - (int32_t)q * t1;
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t1 = t2;
    }
    return t0 < 0 ? (u32)(t0 + (int32_t)m) : (u32)t0;
}

/* The t in [0, a) with t^2 == 1 (mod a), for 2 <= a within the sieve,
   into roots; writes their count.  These are the roots of
   search.unit_square_roots in the same CRT order: the local roots 1, p^e-1
   (and p^e/2-1, p^e/2+1 for p^e >= 8) of each prime power p^e of a, the
   smallest prime first, with the root mod the smallest prime power varying
   slowest.  Here they are sums of CRT basis elements, with no division.

   With the cofactor co = a / p^e, the basis element B = co * (co^-1 mod
   p^e) is 1 mod p^e and 0 mod the other prime powers, and B < a.  So for
   one root l_k mod each prime power p_k^e_k, l_1*B_1 + l_2*B_2 + ... is the
   root of a that is l_k mod every p_k^e_k.  The basis elements sum to 1
   mod a (each p_k^e_k divides 1 minus the sum), so the last one is 1 minus
   the others, kept in total below a, and takes no inverse; when a is a
   prime power it is 1.  The terms l*B mod a need no product either:
   p^e*B = a*(co^-1 mod p^e) is 0 mod a, so the roots 1 and p^e-1 give the
   terms B and a-B, and for p^e >= 8, where the inverse is odd, (p^e/2)*B
   is a/2 mod a, so p^e/2-1 and p^e/2+1 give a/2 + (a-B) and a/2 + B.

   The sum is nested, the smallest prime power outermost: each partial sum,
   below a, is extended by each term of the next prime power in turn, and
   one conditional subtraction of a reduces each root.  The terms are
   below a, so each sum is below 2a; a term of 2^e >= 8 may exceed a, but
   2^e is the first prime power, so it is added to the partial sum 0 only.
   So a root costs one addition and one compare. */
static int
unit_roots(u32 a, const u32 *spf, u32 *roots, int *count)
{
    u32 rest = a, total = 0;
    int n = 1;
    roots[0] = 0;
    while (rest > 1) {
        u32 p = spf[rest], pe = 1, basis;
        int i, j;
        while (rest % p == 0) {
            rest /= p;
            pe *= p;
        }
        if (rest > 1) {
            u32 co = a / pe;
            basis = co * inv_mod(co, pe);
            total += basis;
            if (total >= a)
                total -= a;
        } else {
            basis = total == 0 ? 1 : a + 1 - total;
        }
        u32 term[4] = {basis, a - basis, a / 2 + (a - basis), a / 2 + basis};
        int nl = pe & 1 ? 2 : pe == 2 ? 1 : pe == 4 ? 2 : 4;
        if (n * nl > MAX_ROOTS)
            return OVERFLOW_ROOTS;
        /* partial sum i's nl extensions go to slots i*nl.., from the last
           sum down, so each sum is read before its slot is overwritten */
        for (i = n - 1; i >= 0; i--) {
            u32 res = roots[i];
            for (j = 0; j < nl; j++) {
                u32 sum = res + term[j];
                roots[i * nl + j] = sum >= a ? sum - a : sum;
            }
        }
        n *= nl;
    }
    *count = n;
    return OK;
}

/* Append (a, b, c, r_ab, r_ac, r_bc, r_abc) to found; -1 on error.
   Called without the GIL, and holds it only for the append. */
static int
append_triple(PyObject *found, u64 a, u64 b, u64 c, u64 r, u64 s, u64 t,
              u64 u)
{
    int rc = -1;
    PyGILState_STATE gil = PyGILState_Ensure();
    PyObject *item = Py_BuildValue("(KKKKKKK)", (unsigned long long)a,
                                   (unsigned long long)b, (unsigned long long)c,
                                   (unsigned long long)r, (unsigned long long)s,
                                   (unsigned long long)t, (unsigned long long)u);
    if (item != NULL) {
        rc = PyList_Append(found, item);
        Py_DECREF(item);
    }
    PyGILState_Release(gil);
    return rc;
}

/* PyErr_CheckSignals from code running without the GIL. */
static int
check_signals(void)
{
    PyGILState_STATE gil = PyGILState_Ensure();
    int rc = PyErr_CheckSignals();
    PyGILState_Release(gil);
    return rc;
}

/* Follow the orbit of (t, s) under (t, s) <- (r*t + b*s, a*t + r*s) and
   test c = (s^2-1)/a for each iterate with r < s <= s_max, as in
   search.pell_orbit, which also says why the loop ends.  The iterate's t is
   the root of bc+1 (see the header).  Returns 0, or -1 with a Python
   exception set. */
static int
follow_orbit(u64 a, u64 b, u64 r, u64 s_max, int64_t t, int64_t s,
             PyObject *found, u64 *candidates)
{
    for (;;) {
        int64_t t_next = (int64_t)r * t + (int64_t)b * s;
        u64 c, u;
        s = (int64_t)a * t + (int64_t)r * s;
        t = t_next;
        if (t > 0 && s > (int64_t)s_max)
            return 0;
        if (s <= (int64_t)r || s > (int64_t)s_max)
            continue;
        (*candidates)++;
        c = ((u64)s * (u64)s - 1) / a;
        if (t > 0 && (u64)t * (u64)t == b * c + 1
                && square_root(a * b * c + 1, &u)
                && append_triple(found, a, b, c, r, (u64)s, (u64)t, u) < 0)
            return -1;
    }
}

/* Test the seeds of the pair (a, b, r), the s0 with
   s0^2 = a*c0 + 1 <= X = a(b-a)/(2(r-1)), and follow the orbits of the ones
   with b*c0 + 1 = t0^2.  The seed search is search.pell_orbit's: scan c0
   from 0 while a*c0 + 1 <= X, taking c0 = 0 as the seed (1, 1) untested.
   c0 and s0 rise together, so the seeds come in ascending order, and each
   is followed from (t0, s0), then from (-t0, s0) unless
   (r-1)*s0 = a*t0, when that walk would retrace the first (see
   search.pell_orbit, Uniqueness).  Returns 0, or -1 with a Python exception
   set. */
static int
pell_orbit(u64 a, u64 b, u64 r, u64 s_max, PyObject *found, u64 *candidates)
{
    u64 seed_sq_max = a * (b - a) / (2 * (r - 1));
    u64 s0 = 1, t0 = 1, c0;

    for (c0 = 0; a * c0 + 1 <= seed_sq_max; c0++) {
        if (c0 > 0 && !square_root(a * c0 + 1, &s0))
            continue;
        (*candidates)++;
        if ((c0 == 0 || square_root(b * c0 + 1, &t0))
                && (follow_orbit(a, b, r, s_max, (int64_t)t0, (int64_t)s0,
                                 found, candidates) < 0
                    || ((r - 1) * s0 != a * t0
                        && follow_orbit(a, b, r, s_max, -(int64_t)t0,
                                        (int64_t)s0, found, candidates) < 0)))
            return -1;
    }
    return 0;
}

/* Walk the pairs with a in [a_lo, a_hi) and the Pell orbits of each, as in
   search._census_chunk_py.  Runs without the GIL.  Returns OK, an
   OVERFLOW_* code, or -1 with a Python exception set. */
static int
scan(u64 bound, u64 a_lo, u64 a_hi, const u32 *spf, PyObject *found,
     u64 *pairs, u64 *candidates)
{
    u32 roots[MAX_ROOTS];
    u64 a;
    int n, i, err;

    for (a = a_lo; a < a_hi; a++) {
        /* the pairs of a: r = u + k*a <= s_max (see the header) */
        u64 s_max = isqrt64(a * bound + 1), r;

        if ((a & 0xfff) == 0 && check_signals() < 0)
            return -1;
        if ((err = unit_roots((u32)a, spf, roots, &n)) != OK)
            return err;
        for (i = 0; i < n; i++)
            for (r = roots[i] + a; r <= s_max; r += a) {
                (*pairs)++;
                if (r < s_max && pell_orbit(a, (r * r - 1) / a, r, s_max,
                                            found, candidates) < 0)
                    return -1;
            }
    }
    return OK;
}

static PyObject *
census_chunk(PyObject *self, PyObject *args)
{
    long long bound_in, a_lo_in, a_hi_in;
    u64 bound, a_lo, a_hi, pairs = 0, candidates = 0;
    u32 *spf;
    PyObject *found;
    int err;

    if (!PyArg_ParseTuple(args, "LLL:census_chunk", &bound_in, &a_lo_in,
                          &a_hi_in))
        return NULL;
    if (bound_in < 3) {
        PyErr_Format(PyExc_ValueError, "bound must be >= 3, got %lld",
                     bound_in);
        return NULL;
    }
    if (bound_in > MAX_BOUND) {
        PyErr_Format(PyExc_ValueError, "kernel bound cap is %d, got %lld",
                     MAX_BOUND, bound_in);
        return NULL;
    }
    bound = (u64)bound_in;
    /* a < 2 and a >= bound - 1 give no pair with 2 <= a < b <= bound */
    a_lo = a_lo_in < 2 ? 2 : (u64)a_lo_in;
    a_hi = a_hi_in < 2 ? 2 : (u64)a_hi_in;
    if (a_hi > bound - 1)
        a_hi = bound - 1;
    if (a_lo > a_hi)
        a_lo = a_hi;

    found = PyList_New(0);
    if (found == NULL)
        return NULL;
    err = OUT_OF_MEMORY;
    Py_BEGIN_ALLOW_THREADS
    /* the scan factors every a < a_hi */
    spf = build_spf(a_hi);
    if (spf != NULL)
        err = scan(bound, a_lo, a_hi, spf, found, &pairs, &candidates);
    Py_END_ALLOW_THREADS
    free(spf);
    if (err == OUT_OF_MEMORY)
        PyErr_NoMemory();
    else if (err == OVERFLOW_ROOTS)
        PyErr_Format(PyExc_RuntimeError,
                     "census kernel capacity MAX_ROOTS exceeded at bound %llu",
                     (unsigned long long)bound);
    if (err != OK) {
        Py_DECREF(found);
        return NULL;
    }
    return Py_BuildValue("(NKK)", found, (unsigned long long)pairs,
                         (unsigned long long)candidates);
}

static PyMethodDef kernel_methods[] = {
    {"census_chunk", census_chunk, METH_VARARGS,
     "census_chunk(bound, a_lo, a_hi) -> (raw_triples, pairs, candidates)\n\n"
     "Scan the pairs whose smaller element a is in [a_lo, a_hi).  Raw\n"
     "triples are (a, b, c, r_ab, r_ac, r_bc, r_abc) tuples, in the order\n"
     "of search._census_chunk_py, which returns the same list; no triple\n"
     "appears twice, and the caller merges chunks by sorting."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled census kernel; see search._census_chunk_py for the reference.",
    -1, kernel_methods};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "MAX_BOUND", MAX_BOUND) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
