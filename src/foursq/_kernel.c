/*
 * Compiled census kernel: the pair and Pell-orbit scan of
 * search._census_chunk_py in 64-bit arithmetic, for bounds up to MAX_BOUND.
 *
 * census_chunk must return the same raw triples (in any order) and the same
 * counters as the pure path; the test suite enforces that equality.  Both
 * paths find the seeds of each pair's orbits by the same scan of
 * c0 = (s0^2-1)/a (see pell_orbit).  The kernel differs in two ways that
 * change neither: it visits the pairs of each r unsorted, and it follows
 * the seed c0 = 0 without a square test (see below).
 *
 * Pair window: the pairs of r are the divisors a of n = r^2-1 with
 * 2 <= a < b = n/a <= bound.  a < n/a is a*a < n, that is a < r (r^2 > n >
 * (r-1)^2), and n/a <= bound is a >= n/bound, so for an integer a it is
 * a >= a_lo = max(2, ceil(n/bound)).  The scan builds only the divisors
 * below r and divides n/a only for those at or above a_lo.
 *
 * S >= 1 for every pair: ab+1 = r^2 rules out b = a+1, so b >= a+2, and
 * then r <= (a+b)/2, so a(b-a) - 2(r-1) >= (a-1)(b-a-2) >= 0.  Hence
 * C = (S^2-1)/a never wraps.  c0 = 0 is a seed of every pair
 * (a*0 + 1 = b*0 + 1 = 1), so the kernel follows s0 = t0 = 1 without
 * square-testing 1 and counts it as a tested seed, as the pure path does.
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
 * Ranges for bound <= MAX_BOUND: r < b <= 1.5e6 and s_max <= 1.5e6, so
 * ab < r^2 <= 2.25e12 and abc+1 < bound^3 < 2^63.  With r >= 3 the seed
 * scan's a*c0 + 1 <= S^2 <= a(b-a)/4 <= b^2/16 < 1.5e11 and
 * b*c0 + 1 <= b(b-a)/(2(r-1)) + 1 <= b^2/4 + 1 < 5.7e11.  The orbit iterate
 * (t, s) is signed (t starts at -t0 on one side).  An iterate with
 * s <= s_max has |t| < s * sqrt(b/a), since a*t^2 = b*s^2 - (b-a); so the
 * one step taken past s_max gives s' = a*t + r*s < 2*r*s_max and
 * t' = r*t + b*s < (2*b + 1)*s_max, both below about 4.5e12, far under
 * 2^63, and a candidate's t*t = bc+1 <= bound^2 + 1.  Every isqrt64
 * argument is below 2^63, so it converts through int64_t: r_max's
 * bound*(bound-1) + 1 and s_max's a*bound + 1 are below 2.25e12, the seed
 * bound a(b-a)/(2(r-1)) <= b^2/16 is below 1.5e11, and the square tests take
 * a*c0 + 1 < 1.5e11, b*c0 + 1 < 5.7e11 and abc+1 < 3.4e18.
 *
 * Threads: census_chunk releases the GIL for the sieve and the whole scan,
 * and takes it back only to append a found triple (rare) and for the
 * signal check every 4096 r.  The kernel is reentrant: it has no
 * module-level state, and each call owns its sieve, divisor buffer and
 * result list.  So census_chunk calls on several threads run in parallel
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

/* Capacities for bound <= MAX_BOUND, where r < 1.5e6 and r^2-1 < 2.25e12.
   The factor list of r^2-1 holds each of its distinct primes once (see
   scan), and the product of the first 12 primes exceeds 2.25e12, so it has
   at most 11 entries (at most 12 below 1e14).  r^2-1 has at most 6720
   divisors, and the divisor buffer holds only those below r, at most half
   of them (d and n/d pair off, and r is not one): 3360.  MAX_DIVISORS
   leaves room for larger bounds.  Every write is still checked, and
   overflow raises instead of corrupting memory; the tests build the kernel
   with tiny capacities to see that happen. */
#ifndef MAX_FACTORS
#define MAX_FACTORS 16
#endif
#ifndef MAX_DIVISORS
#define MAX_DIVISORS 16384
#endif

enum { OK = 0, OVERFLOW_FACTORS, OVERFLOW_DIVISORS, OUT_OF_MEMORY };

static const char *overflow_names[] = {NULL, "MAX_FACTORS", "MAX_DIVISORS"};

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

/* Append the primes of n (within the sieve), ascending, with their
   exponents, to primes and exps from entry *count on; advances *count. */
static int
factor(u64 n, const u32 *spf, u64 *primes, int *exps, int *count)
{
    int k = *count;
    while (n > 1) {
        u64 p = spf[n];
        if (k == MAX_FACTORS)
            return OVERFLOW_FACTORS;
        primes[k] = p;
        exps[k] = 0;
        while (n % p == 0) {
            n /= p;
            exps[k]++;
        }
        k++;
    }
    *count = k;
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

/* Test the seeds s0 <= S of the pair (a, b, r), those with
   s0^2 == 1 (mod a), and follow the orbits of the ones with
   b*c0 + 1 = t0^2, c0 = (s0^2-1)/a.  The seed search is search.pell_orbit's:
   scan c0 = 0..C, C = (S^2-1)/a, for a square a*c0 + 1 = s0^2, C+1 tests
   where s0 = 1..S would take S.  c0 and s0 rise together, so the seeds
   come in ascending order.  The seed c0 = 0 (s0 = t0 = 1) needs no square
   test.
   Returns 0, or -1 with a Python exception set. */
static int
pell_orbit(u64 a, u64 b, u64 r, u64 s_max, PyObject *found, u64 *candidates)
{
    u64 seed_max = isqrt64(a * (b - a) / (2 * (r - 1)));
    u64 c0_max = (seed_max * seed_max - 1) / a;
    u64 s0, c0, t0;

    (*candidates)++;
    if (follow_orbit(a, b, r, s_max, 1, 1, found, candidates) < 0
            || follow_orbit(a, b, r, s_max, -1, 1, found, candidates) < 0)
        return -1;
    for (c0 = 1; c0 <= c0_max; c0++) {
        if (!square_root(a * c0 + 1, &s0))
            continue;
        (*candidates)++;
        if (square_root(b * c0 + 1, &t0)
                && (follow_orbit(a, b, r, s_max, (int64_t)t0, (int64_t)s0,
                                 found, candidates) < 0
                    || follow_orbit(a, b, r, s_max, -(int64_t)t0,
                                    (int64_t)s0, found, candidates) < 0))
            return -1;
    }
    return 0;
}

/* Walk the pairs with r in [r_lo, r_hi) and the Pell orbits of each, as in
   search._census_chunk_py.  Runs without the GIL.  Returns OK, an
   OVERFLOW_* code, or -1 with a Python exception set. */
static int
scan(u64 bound, u64 r_lo, u64 r_hi, const u32 *spf, u64 *divs,
     PyObject *found, u64 *pairs, u64 *candidates)
{
    u64 primes[MAX_FACTORS], r;
    int exps[MAX_FACTORS], err;

    for (r = r_lo; r < r_hi; r++) {
        u64 n = r * r - 1, m = r + 1, a_lo;
        int k = 0, nd = 1, fi, e, di;

        if ((r & 0xfff) == 0 && check_signals() < 0)
            return -1;
        /* n = (r-1)(r+1) as one list: gcd(r-1, r+1) divides 2, so only 2
           can occur in both halves.  For odd r it is r-1's first prime, and
           the 2s of r+1 are added to that entry (for even r, r+1 is odd). */
        if ((err = factor(r - 1, spf, primes, exps, &k)) != OK)
            return err;
        for (; !(m & 1); m >>= 1)
            exps[0]++;
        if ((err = factor(m, spf, primes, exps, &k)) != OK)
            return err;

        /* the divisors of n below r, from its factorization: a product
           at or above r only grows as further prime powers join it */
        divs[0] = 1;
        for (fi = 0; fi < k; fi++) {
            u64 pk = 1;
            int grown = nd;
            for (e = 0; e < exps[fi]; e++) {
                pk *= primes[fi];
                if (pk >= r)
                    break;
                for (di = 0; di < nd; di++) {
                    u64 d = divs[di] * pk;
                    if (d >= r)
                        continue;
                    if (grown == MAX_DIVISORS)
                        return OVERFLOW_DIVISORS;
                    divs[grown++] = d;
                }
            }
            nd = grown;
        }
        /* the pairs: a_lo <= a < r (see the header) */
        a_lo = (n + bound - 1) / bound;
        if (a_lo < 2)
            a_lo = 2;
        for (di = 0; di < nd; di++) {
            u64 a = divs[di], s_max;
            if (a < a_lo)
                continue;
            s_max = isqrt64(a * bound + 1);
            (*pairs)++;
            if (s_max > r
                    && pell_orbit(a, n / a, r, s_max, found, candidates) < 0)
                return -1;
        }
    }
    return OK;
}

static PyObject *
census_chunk(PyObject *self, PyObject *args)
{
    long long bound_in, r_lo_in, r_hi_in;
    u64 bound, r_lo, r_hi, r_max, pairs = 0, candidates = 0;
    u32 *spf;
    u64 *divs;
    PyObject *found;
    int err;

    if (!PyArg_ParseTuple(args, "LLL:census_chunk", &bound_in, &r_lo_in,
                          &r_hi_in))
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
    /* r < 3 and r >= r_max give no pair with 2 <= a < b <= bound */
    r_max = isqrt64(bound * (bound - 1) + 1) + 1;
    r_lo = r_lo_in < 3 ? 3 : (u64)r_lo_in;
    r_hi = r_hi_in < 3 ? 3 : (u64)r_hi_in;
    if (r_hi > r_max)
        r_hi = r_max;
    if (r_lo > r_hi)
        r_lo = r_hi;

    found = PyList_New(0);
    if (found == NULL)
        return NULL;
    err = OUT_OF_MEMORY;
    Py_BEGIN_ALLOW_THREADS
    /* the scan factors r - 1 and r + 1, both at most r_hi */
    spf = build_spf(r_hi + 1);
    divs = malloc(MAX_DIVISORS * sizeof(u64));
    if (spf != NULL && divs != NULL)
        err = scan(bound, r_lo, r_hi, spf, divs, found, &pairs, &candidates);
    Py_END_ALLOW_THREADS
    free(divs);
    free(spf);
    if (err == OUT_OF_MEMORY)
        PyErr_NoMemory();
    else if (err > 0)
        PyErr_Format(PyExc_RuntimeError,
                     "census kernel capacity %s exceeded at bound %llu",
                     overflow_names[err], (unsigned long long)bound);
    if (err != OK) {
        Py_DECREF(found);
        return NULL;
    }
    return Py_BuildValue("(NKK)", found, (unsigned long long)pairs,
                         (unsigned long long)candidates);
}

static PyMethodDef kernel_methods[] = {
    {"census_chunk", census_chunk, METH_VARARGS,
     "census_chunk(bound, r_lo, r_hi) -> (raw_triples, pairs, candidates)\n\n"
     "Scan pair radicals r in [r_lo, r_hi).  Raw triples are\n"
     "(a, b, c, r_ab, r_ac, r_bc, r_abc) tuples in no particular order; the\n"
     "caller owns ordering and deduplication."},
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
