/*
 * Compiled census kernel: the pair/congruence scan of
 * search._census_chunk_py in 64-bit arithmetic, for bounds up to MAX_BOUND.
 *
 * census_chunk must return the same raw triples (in any order) and the same
 * counters as the pure path; the test suite enforces that equality.  Pairs
 * and unit roots are visited unsorted: sorting the roots alone cost a fifth
 * of the run time at bound 10^6.
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

/* abc+1 < bound^3 must stay below 2^63; keep in sync with
   search.KERNEL_MAX_BOUND. */
#define MAX_BOUND 1500000

/* Capacities for bound <= MAX_BOUND, where r < 1.5e6 and r^2-1 < 2.25e12:
   r-1, r+1 and a each have at most 7 distinct primes, r^2-1 has at most 11,
   at most 6720 divisors, and a has at most 2^6 * 4 = 256 unit roots.  Every
   write is still checked, and overflow raises instead of corrupting memory;
   the tests build the kernel with tiny capacities to see that happen. */
#ifndef MAX_FACTORS
#define MAX_FACTORS 16
#endif
#ifndef MAX_ROOTS
#define MAX_ROOTS 512
#endif
#ifndef MAX_DIVISORS
#define MAX_DIVISORS 16384
#endif

enum { OK = 0, OVERFLOW_FACTORS, OVERFLOW_ROOTS, OVERFLOW_DIVISORS };

static const char *overflow_names[] = {
    NULL, "MAX_FACTORS", "MAX_ROOTS", "MAX_DIVISORS"};

/* Quadratic residues mod 64, 63, 65 and 11, as in certify._QR_MODULI. */
static u64 qr64;
static unsigned char qr63[63], qr65[65], qr11[11];

static void
init_masks(void)
{
    int t;
    for (t = 0; t < 64; t++)
        qr64 |= (u64)1 << ((t * t) & 63);
    for (t = 0; t < 63; t++)
        qr63[(t * t) % 63] = 1;
    for (t = 0; t < 65; t++)
        qr65[(t * t) % 65] = 1;
    for (t = 0; t < 11; t++)
        qr11[(t * t) % 11] = 1;
}

/* Floor square root of v < 2^63: the double estimate is off by at most a
   few units at this size, so it is corrected in both directions. */
static u64
isqrt64(u64 v)
{
    u64 x = (u64)sqrt((double)v);
    while (x > 0 && x * x > v)
        x--;
    while ((x + 1) * (x + 1) <= v)
        x++;
    return x;
}

/* Mask-filtered exact square test; writes the root on success. */
static int
square_root(u64 v, u64 *root)
{
    u64 x;
    if (!((qr64 >> (v & 63)) & 1) || !qr63[v % 63] || !qr65[v % 65]
            || !qr11[v % 11])
        return 0;
    x = isqrt64(v);
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

/* Factor n (within the sieve) into ascending primes; sets *count. */
static int
factor(u64 n, const u32 *spf, u64 *primes, int *exps, int *count)
{
    int k = 0;
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

/* Merge two ascending factorizations; the output holds 2 * MAX_FACTORS. */
static int
merge_factors(const u64 *p1, const int *e1, int k1,
              const u64 *p2, const int *e2, int k2, u64 *po, int *eo)
{
    int i = 0, j = 0, k = 0;
    while (i < k1 || j < k2) {
        if (j >= k2 || (i < k1 && p1[i] < p2[j])) {
            po[k] = p1[i];
            eo[k] = e1[i++];
        } else if (i >= k1 || p2[j] < p1[i]) {
            po[k] = p2[j];
            eo[k] = e2[j++];
        } else {
            po[k] = p1[i];
            eo[k] = e1[i++] + e2[j++];
        }
        k++;
    }
    return k;
}

/* Inverse of x modulo m, for gcd(x, m) = 1. */
static u64
inv_mod(u64 x, u64 m)
{
    int64_t t = 0, newt = 1, r = (int64_t)m, newr = (int64_t)(x % m), q, tmp;
    while (newr != 0) {
        q = r / newr;
        tmp = t - q * newt; t = newt; newt = tmp;
        tmp = r - q * newr; r = newr; newr = tmp;
    }
    return (u64)(t < 0 ? t + (int64_t)m : t);
}

/* All t in [0, a) with t*t % a == 1, via CRT over the prime powers of a;
   sets *count. */
static int
unit_roots(u64 a, const u32 *spf, u64 *out, int *count)
{
    u64 primes[MAX_FACTORS], local[4], lift[4];
    int exps[MAX_FACTORS];
    int nf, fi, e, nlocal, n = 1, oi, li, err;
    u64 mod = 1;

    out[0] = 0;
    if ((err = factor(a, spf, primes, exps, &nf)) != OK)
        return err;
    for (fi = 0; fi < nf; fi++) {
        u64 p = primes[fi], pe = 1, m, e_new, e_old;
        for (e = 0; e < exps[fi]; e++)
            pe *= p;
        if (p != 2) {
            local[0] = 1; local[1] = pe - 1; nlocal = 2;
        } else if (pe == 2) {
            local[0] = 1; nlocal = 1;
        } else if (pe == 4) {
            local[0] = 1; local[1] = 3; nlocal = 2;
        } else {
            local[0] = 1; local[1] = pe / 2 - 1;
            local[2] = pe / 2 + 1; local[3] = pe - 1;
            nlocal = 4;
        }
        if (n * nlocal > MAX_ROOTS)
            return OVERFLOW_ROOTS;
        /* CRT basis of Z/m, m = mod * pe: e_new == 1 (mod pe) and
           == 0 (mod mod), e_old the other way round; z = res * e_old +
           l * e_new solves z == res (mod mod), z == l (mod pe).  Entries
           are expanded in place from the top, each read before its slot
           is overwritten. */
        m = mod * pe;
        e_new = mod * inv_mod(mod % pe, pe);
        e_old = (m + 1 - e_new) % m;
        for (li = 0; li < nlocal; li++)
            lift[li] = local[li] * e_new % m;
        for (oi = n - 1; oi >= 0; oi--) {
            u64 x = out[oi] * e_old % m;
            for (li = 0; li < nlocal; li++) {
                u64 z = x + lift[li];
                out[oi * nlocal + li] = z >= m ? z - m : z;
            }
        }
        n *= nlocal;
        mod = m;
    }
    *count = n;
    return OK;
}

/* Append (a, b, c, r_ab, r_ac, r_bc, r_abc) to found; -1 on error. */
static int
append_triple(PyObject *found, u64 a, u64 b, u64 c, u64 r, u64 s, u64 t,
              u64 u)
{
    int rc;
    PyObject *item = Py_BuildValue("(KKKKKKK)", (unsigned long long)a,
                                   (unsigned long long)b, (unsigned long long)c,
                                   (unsigned long long)r, (unsigned long long)s,
                                   (unsigned long long)t, (unsigned long long)u);
    if (item == NULL)
        return -1;
    rc = PyList_Append(found, item);
    Py_DECREF(item);
    return rc;
}

/* Walk the pairs with r in [r_lo, r_hi) and their candidates c, as in
   search._census_chunk_py.  Returns OK, an OVERFLOW_* code, or -1 with a
   Python exception set. */
static int
scan(u64 bound, u64 r_lo, u64 r_hi, const u32 *spf, u64 *divs,
     PyObject *found, u64 *pairs, u64 *candidates)
{
    u64 p1[MAX_FACTORS], p2[MAX_FACTORS], pm[2 * MAX_FACTORS];
    int e1[MAX_FACTORS], e2[MAX_FACTORS], em[2 * MAX_FACTORS];
    u64 roots[MAX_ROOTS];
    u64 r;
    int err;

    for (r = r_lo; r < r_hi; r++) {
        u64 n = r * r - 1;
        int k1, k2, km, nd = 1, fi, e, di, ri, nroots;

        if ((r & 0xfff) == 0 && PyErr_CheckSignals() < 0)
            return -1;
        if ((err = factor(r - 1, spf, p1, e1, &k1)) != OK
                || (err = factor(r + 1, spf, p2, e2, &k2)) != OK)
            return err;
        km = merge_factors(p1, e1, k1, p2, e2, k2, pm, em);

        /* divisors of n from the merged factorization */
        divs[0] = 1;
        for (fi = 0; fi < km; fi++) {
            u64 pk = 1;
            int grown = nd;
            for (e = 0; e < em[fi]; e++) {
                pk *= pm[fi];
                for (di = 0; di < nd; di++) {
                    if (grown == MAX_DIVISORS)
                        return OVERFLOW_DIVISORS;
                    divs[grown++] = divs[di] * pk;
                }
            }
            nd = grown;
        }
        /* each divisor a with 2 <= a < n/a = b <= bound is a pair */
        for (di = 0; di < nd; di++) {
            u64 a = divs[di], b, s_max, q;
            if (a < 2 || a * a >= n || (b = n / a) > bound)
                continue;
            s_max = isqrt64(a * bound + 1);
            (*pairs)++;
            if (s_max <= r)
                continue;
            if ((err = unit_roots(a, spf, roots, &nroots)) != OK)
                return err;
            q = (r + 1) % a;
            for (ri = 0; ri < nroots; ri++) {
                /* first s > r with s == rho (mod a), i.e. r + 1 plus
                   (rho - q) mod a; s > r forces c > b.  Stepping s by a
                   steps c = (s^2-1)/a by 2s + a. */
                u64 rho = roots[ri], s = r + 1 - q + rho + (rho < q ? a : 0);
                u64 c, t, u;
                if (s > s_max)
                    continue;
                for (c = (s * s - 1) / a; s <= s_max; c += 2 * s + a, s += a) {
                    (*candidates)++;
                    if (square_root(b * c + 1, &t)
                            && square_root(a * b * c + 1, &u)
                            && append_triple(found, a, b, c, r, s, t, u) < 0)
                        return -1;
                }
            }
        }
    }
    return OK;
}

static PyObject *
census_chunk(PyObject *self, PyObject *args)
{
    long long bound_in, r_lo_in, r_hi_in;
    u64 bound, r_lo, r_hi, r_max, pairs = 0, candidates = 0;
    u32 *spf = NULL;
    u64 *divs = NULL;
    PyObject *found = NULL;
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
    /* the scan factors r +- 1 and every a < r, all below r_hi + 1 */
    spf = build_spf(r_hi + 1);
    divs = malloc(MAX_DIVISORS * sizeof(u64));
    if (found == NULL || spf == NULL || divs == NULL) {
        if (found != NULL)
            PyErr_NoMemory();
        goto fail;
    }
    err = scan(bound, r_lo, r_hi, spf, divs, found, &pairs, &candidates);
    if (err > 0)
        PyErr_Format(PyExc_RuntimeError,
                     "census kernel capacity %s exceeded at bound %llu",
                     overflow_names[err], (unsigned long long)bound);
    if (err != OK)
        goto fail;
    free(divs);
    free(spf);
    return Py_BuildValue("(NKK)", found, (unsigned long long)pairs,
                         (unsigned long long)candidates);

fail:
    free(divs);
    free(spf);
    Py_XDECREF(found);
    return NULL;
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
    init_masks();
    return module;
}
