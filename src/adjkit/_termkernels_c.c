/* Compiled term kernels: products, fused multiply-adds and the Laplace
 * determinant on native multiword keys, by heap merge.
 *
 * A term dict {key: coefficient} is copied into an array of records, each
 * the key as `w` 64-bit words (least significant first) followed by the
 * coefficient, sorted by key descending.  The only property of keys used
 * here is the one kernels.py states: keys are nonnegative ints and the key
 * of a product of two monomials is the sum of their keys.  Integer order
 * is then additive, so a product of two sorted operands can be generated
 * in descending key order by a max-heap holding one cursor per term of the
 * smaller operand (Monagan and Pearce, "Polynomial division using dynamic
 * arrays, heaps, and packed exponent vectors", CASC 2007).  A monomial's
 * coefficient is final when its key leaves the heap, so it goes straight
 * to the output: no hash table of partial sums is ever built.  A sum of
 * signed products (one Laplace minor) is one merge over several heaps'
 * worth of cursors.  A cursor whose key equals that of the cursor above
 * its place in the heap joins that cursor's chain instead, so the pairs of
 * one key mostly leave the heap in one step (the chained heap of the same
 * paper).
 *
 * Each finished monomial goes to a sink: an array (a minor the next
 * Laplace level reads), a term dict (acc += a*b, or a new result), or a
 * comparison.  Given `expect`, the Laplace determinant's last level runs
 * into the comparison sink, which walks expect (converted once, sorted by
 * key descending) alongside the merge and stops it at the first term that
 * differs: the determinant itself is never stored.  Given the pair
 * expect = (a, b), the determinant is compared with a*b, which one merge
 * forms first into an array (canonical, as every merge output is): no term
 * of a*b becomes a Python object.
 *
 * Compact keys for a comparison.  A determinant compared with a pair (a, b)
 * never returns a key, so that call may rename its keys: it maps the keys
 * of the grid, a and b by one map phi onto fewer words, and merges,
 * multiplies and compares the images.  phi is derived from those keys and
 * the key property above, nothing else:
 *  - blocks: each maximal run of set bits in the OR of those keys starts a
 *    block; block b holds bits [lo_b, lo_{b+1}), and the top block is open
 *    above.  v_b(k) is block b of key k.  No key, and no sum of keys, has
 *    a bit below lo_0.
 *  - bounds: B_b bounds every sum of block-b values the call forms: the
 *    sum over grid rows of the row's largest v_b (a minor on rows 0..k-1
 *    takes one entry from each), and for the pair, the largest v_b of a
 *    plus that of b.
 *  - no carry: while a block below the top has B_b >= 2^(lo_{b+1} - lo_b),
 *    it is merged with the block above, with bound B_b + 2^(lo_{b+1} -
 *    lo_b) * B_{b+1}.  After that no sum the call forms carries from one
 *    block into the next, so the block values of a sum of keys are the sums
 *    of their block values, each at most B_b.
 *  - mixed radix: phi(k) = sum over b of v_b(k) * prod_{c<b} (B_c + 1).
 *    On every key whose block values are at most their bounds, and so on
 *    every key the call forms, phi is additive, injective and
 *    order-preserving (the top block is the leading digit): equal
 *    monomials still merge, different ones never do, and sorted arrays
 *    stay sorted.  The grid's and the pair's keys are rewritten in place.
 * phi serves only when prod_b (B_b + 1) takes fewer words than the keys
 * need unmapped (a block wider than 64 bits or a bound of 2^64 - 1 keeps
 * them); keys wider than MAX_WORDS fall back before any is read.  Products,
 * fma and the determinant returned as a dict keep their keys, since each
 * output key would need phi's inverse; so does a comparison with a dict,
 * which forms no sums.  compacted_compares() counts the comparisons that
 * ran on mapped keys, by their word count and the one the keys need
 * unmapped.
 *
 * Coefficients: over ZZ (p = 0) int64 inputs with an __int128 accumulator;
 * over GF(p) with p < 2^32, residues whose products fit in 64 bits.  A call
 * this file cannot do exactly (a coefficient that is not an int64, a
 * Fraction, an accumulator that could overflow, a minor or a pair's
 * product with a coefficient outside int64, a key wider than MAX_WORDS,
 * a modulus of 2^32 or more) runs in the pure-Python kernels of
 * adjkit.kernels instead; a product decides that before it changes the
 * accumulator dict.  A failed allocation raises MemoryError.
 *
 * Two threads: a merge into an array or a comparison of at least
 * SPLIT_MIN_PAIRS term pairs is cut at a pivot key K with about half the
 * pairs at or above it, found by a binary search over the keys of one row,
 * with the pairs at or above each candidate counted by one binary search
 * per row.  The calling thread merges the keys at or above K into the
 * call's own sink, starting rows lazily as above, and stops once the heap's
 * top is below K.  One helper thread merges the keys below K, every row
 * started at its first pair below K (the range-split heap merge of Monagan
 * and Pearce, "Parallel sparse polynomial multiplication using heaps",
 * ISSAC 2009).  The helper holds no GIL and calls no Python API: it
 * allocates with PyMem_Raw*, reports a failed allocation as a status, and
 * checks no signals; the caller checks them for both, also while it waits.
 * The helper's terms reach the call's sink after the caller's own: an array
 * (a minor, or the product a*b of a pair) is appended after the join, and
 * a comparison cuts expect at K, each side comparing its own range.  A
 * difference, a failure or a pending signal on either side stops the other
 * through a shared flag.  A merge into a term dict (a product, an fma, or
 * the determinant returned as a dict) runs on one thread at any size: a
 * dict takes only Python objects, which the helper may not make.  When the
 * helper cannot start, the merge runs on one thread too.
 *
 * Row reduction over GF(p), 2 <= p < 2^32: row_reduce_mod is the compiled
 * body of matrix._row_reduce_mod, the one field elimination, with the same
 * contract.  The rows are read once into native residues in [0, p) (any
 * int representative: negative, or wider than 64 bits, through one Python
 * `%`), eliminated with every entry kept in [0, p), where a product and
 * the entry it updates stay below (p - 1)^2 + (p - 1) < 2^64, and written
 * back as new lists in their final order.  Pivots are searched in the
 * first ncols columns only; the pivot product is negated once per swap.
 * Signals are checked once per pivot; a failed allocation raises
 * MemoryError.  The packed Python body serves p >= 2^32 and the
 * pure-Python build, and is the tests' oracle.
 *
 * The build (adjkit/_cbuild.py) defines ADJKIT_SOURCE_DIGEST, the digest
 * of this file, and the loader rebuilds when it changes.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#if !defined(__SIZEOF_INT128__)
#error "the accumulators need __int128"
#endif
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "keys are converted as little-endian byte strings"
#endif

#ifndef ADJKIT_SOURCE_DIGEST
#define ADJKIT_SOURCE_DIGEST "none"
#endif

/* the loader finds this string in the shared object without importing it */
static const char source_marker[] = "adjkit-source-digest:" ADJKIT_SOURCE_DIGEST;

#define MAX_WORDS 32        /* widest native key: 2048 bits */
#define MAX_LAPLACE_N 62    /* column subsets are 64-bit masks */
#define SIGNAL_EVERY 0xFFFFF
#define STOP_EVERY 0x3FF       /* keys between reads of the shared stop flag */
#define SPLIT_MIN_PAIRS ((Py_ssize_t)1 << 20)
#define WAIT_NS 20000000        /* ns between signal checks while waiting */

typedef uint64_t u64;
typedef __int128 i128;
typedef unsigned __int128 u128;

static PyObject *zero_obj;  /* the int 0, the default p */

/* status of an internal step: done, Python error set, run in Python, (a
   comparison) a term differs, (one range of a split merge) stopped by the
   other, or out of memory with no Python error set yet, as the helper
   thread may not set one */
enum { OK = 0, FAIL = -1, FALLBACK = 1, DIFFER = 2, STOPPED = 3, NOMEM = 4 };

/* ------------------------------------------------------------------------
 * term arrays
 * ---------------------------------------------------------------------- */

typedef struct {
    Py_ssize_t n;   /* terms */
    u64 *rec;       /* n records of w + 1 words: key words, coefficient */
} Terms;

typedef struct {
    int w;          /* key words */
    u64 p;          /* 0 over ZZ, else the modulus */
    PyObject *pobj; /* p as passed */
} Mode;

static inline int
key_less(const u64 *a, const u64 *b, int w)
{
    for (int i = w - 1; i >= 0; i--)
        if (a[i] != b[i])
            return a[i] < b[i];
    return 0;
}

/* -1, 0 or 1 as a is below, equal to or above b */
static inline int
key_cmp(const u64 *a, const u64 *b, int w)
{
    for (int i = w - 1; i >= 0; i--)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

static inline int
key_equal(const u64 *a, const u64 *b, int w)
{
    for (int i = 0; i < w; i++)
        if (a[i] != b[i])
            return 0;
    return 1;
}

static inline void
key_add(u64 *out, const u64 *a, const u64 *b, int w)
{
    u64 carry = 0;
    for (int i = 0; i < w; i++) {
        u64 s = a[i] + carry;
        carry = s < carry;
        u64 t = s + b[i];
        carry |= t < s;
        out[i] = t;
    }
}

/* Largest key bit length in a term dict; FALLBACK for a key that is not a
   nonnegative int or a coefficient that is not an int (a Fraction), found
   before anything is allocated. */
static int
scan_keys(PyObject *d, size_t *maxbits)
{
    Py_ssize_t pos = 0;
    PyObject *k, *v;
    while (PyDict_Next(d, &pos, &k, &v)) {
        if (!PyLong_Check(v) || !PyLong_Check(k) || _PyLong_Sign(k) < 0)
            return FALLBACK;
        size_t bits = _PyLong_NumBits(k);
        if (bits == (size_t)-1)
            return FAIL;
        if (bits > *maxbits)
            *maxbits = bits;
    }
    return OK;
}

/* Words for keys below 2^bits; 0 when wider than MAX_WORDS. */
static int
words_for(size_t bits)
{
    size_t w = bits ? (bits + 63) / 64 : 1;
    return w > MAX_WORDS ? 0 : (int)w;
}

static int
mode_from(PyObject *pobj, Mode *m)
{
    int overflow;
    long long p;
    if (!PyLong_Check(pobj))
        return FALLBACK;
    p = PyLong_AsLongLongAndOverflow(pobj, &overflow);
    if (p == -1 && PyErr_Occurred())
        return FAIL;
    if (overflow || p < 0 || p >= ((long long)1 << 32))
        return FALLBACK;
    m->p = (u64)p;
    m->pobj = pobj;
    return OK;
}

/* *reduced is set when v was not a residue in [0, p) */
static int
coefficient(PyObject *v, const Mode *m, int64_t *out, int *reduced)
{
    int overflow;
    long long c;
    if (!PyLong_Check(v))
        return FALLBACK;            /* a Fraction, or not a number at all */
    c = PyLong_AsLongLongAndOverflow(v, &overflow);
    if (c == -1 && PyErr_Occurred())
        return FAIL;
    if (!m->p) {
        if (overflow)
            return FALLBACK;
        *out = c;
        return OK;
    }
    if (overflow || c < 0 || (u64)c >= m->p) {
        PyObject *r = PyNumber_Remainder(v, m->pobj);
        *reduced = 1;
        if (r == NULL)
            return FAIL;
        c = PyLong_AsLongLong(r);
        Py_DECREF(r);
        if (c == -1 && PyErr_Occurred())
            return FAIL;
    }
    *out = c;
    return OK;
}

/* Keys wider than one word move as little-endian byte strings of w words;
   CPython 3.13 added a last argument to the conversion to bytes. */
#if PY_VERSION_HEX >= 0x030D0000
#define AS_BYTE_ARRAY(v, buf, n) \
    _PyLong_AsByteArray((PyLongObject *)(v), (buf), (n), 1, 0, 1)
#else
#define AS_BYTE_ARRAY(v, buf, n) \
    _PyLong_AsByteArray((PyLongObject *)(v), (buf), (n), 1, 0)
#endif

static int
key_from_py(PyObject *k, u64 *key, int w)
{
    if (w == 1) {
        key[0] = PyLong_AsUnsignedLongLong(k);
        return key[0] == (u64)-1 && PyErr_Occurred() ? FAIL : OK;
    }
    return AS_BYTE_ARRAY(k, (unsigned char *)key, (size_t)w * 8) < 0
           ? FAIL : OK;
}

static PyObject *
key_to_py(const u64 *key, int w)
{
    int top = w - 1;
    while (top > 0 && key[top] == 0)
        top--;
    if (top == 0)
        return PyLong_FromUnsignedLongLong(key[0]);
    return _PyLong_FromByteArray((const unsigned char *)key,
                                 (size_t)(top + 1) * 8, 1, 0);
}

/* One shared int object per small coefficient: a large result repeats a
   few coefficients millions of times, and ints are immutable. */
#define COEF_CACHE 4096
static PyObject *coef_cache[2 * COEF_CACHE + 1];

static PyObject *
coef_to_py(i128 c)
{
    if (c >= -COEF_CACHE && c <= COEF_CACHE) {
        PyObject **slot = &coef_cache[(int)c + COEF_CACHE];
        if (*slot == NULL && (*slot = PyLong_FromLong((long)c)) == NULL)
            return NULL;
        Py_INCREF(*slot);
        return *slot;
    }
    if (c >= INT64_MIN && c <= INT64_MAX)
        return PyLong_FromLongLong((long long)c);
    return _PyLong_FromByteArray((const unsigned char *)&c, sizeof c, 1, 1);
}

static int
cmp_desc(const void *x, const void *y, void *arg)
{
    int w = *(const int *)arg;
    const u64 *a = x, *b = y;
    return key_less(a, b, w) - key_less(b, a, w);
}

/* The term dict d as an array sorted by key descending; zero coefficients
   (mod p) are dropped.  t->rec is NULL for an empty result.  A canonical
   flag, when given, is cleared if d held a zero or, over GF(p), a
   coefficient outside [1, p): then no canonical dict equals d. */
static int
terms_from_dict(PyObject *d, const Mode *m, Terms *t, int *canonical)
{
    const int w = m->w, stride = w + 1;
    Py_ssize_t n = PyDict_GET_SIZE(d), i = 0, pos = 0;
    PyObject *k, *v;
    int sorted = 1, reduced = 0, st;

    t->n = 0;
    t->rec = NULL;
    if (n == 0)
        return OK;
    t->rec = PyMem_RawMalloc((size_t)n * stride * sizeof(u64));
    if (t->rec == NULL) {
        PyErr_NoMemory();
        return FAIL;
    }
    while (PyDict_Next(d, &pos, &k, &v)) {
        u64 *r = t->rec + (size_t)i * stride;
        int64_t c;
        if ((st = coefficient(v, m, &c, &reduced)) != OK)
            goto fail;
        if (c == 0) {
            reduced = 1;
            continue;
        }
        if ((st = key_from_py(k, r, w)) != OK)
            goto fail;
        r[w] = (u64)c;
        if (i && sorted && !key_less(r, r - stride, w))
            sorted = 0;
        i++;
    }
    t->n = i;
    if (reduced && canonical != NULL)
        *canonical = 0;
    if (!sorted)
        qsort_r(t->rec, (size_t)i, (size_t)stride * sizeof(u64), cmp_desc,
                (void *)&w);
    return OK;
fail:
    PyMem_RawFree(t->rec);
    t->rec = NULL;
    return st;
}

/* ------------------------------------------------------------------------
 * output sinks: where the merge sends each finished monomial
 * ---------------------------------------------------------------------- */

enum { SINK_ARRAY, SINK_FMA, SINK_CMP };

typedef struct {
    int kind;
    const Mode *mode;
    Terms out;              /* SINK_ARRAY */
    Py_ssize_t cap;
    PyObject *dict;         /* SINK_FMA: acc, or a new dict for a result */
    Terms expect;           /* SINK_CMP: the terms the merge must produce */
    Py_ssize_t seen;        /* SINK_CMP: how many of them it has */
} Sink;

static int
sink_array(Sink *s, const u64 *key, i128 c)
{
    const int w = s->mode->w, stride = w + 1;
    u64 *r;
    if (c < INT64_MIN || c > INT64_MAX)
        return FALLBACK;            /* a minor outgrew int64 */
    if (s->out.n == s->cap) {
        Py_ssize_t cap = s->cap ? 2 * s->cap : 16;
        u64 *grown = PyMem_RawRealloc(s->out.rec,
                                      (size_t)cap * stride * sizeof(u64));
        if (grown == NULL)
            return NOMEM;
        s->out.rec = grown;
        s->cap = cap;
    }
    r = s->out.rec + (size_t)s->out.n++ * stride;
    memcpy(r, key, (size_t)w * sizeof(u64));
    r[w] = (u64)(int64_t)c;
    return OK;
}

/* acc[key] += c, deleting the key when the sum is zero (mod p).  The merge
   emits each key once, so on an empty acc this only inserts. */
static int
sink_fma(Sink *s, const u64 *key, i128 c)
{
    const Mode *m = s->mode;
    PyObject *k = key_to_py(key, m->w), *v, *old, *sum = NULL;
    Py_ssize_t size = PyDict_GET_SIZE(s->dict);
    int rc = FAIL, overflow;
    long long o;
    if (k == NULL)
        return FAIL;
    if ((v = coef_to_py(c)) == NULL)
        goto done;
    /* one lookup inserts a new key; an old one is summed below */
    if ((old = PyDict_SetDefault(s->dict, k, v)) == NULL)
        goto done;
    if (PyDict_GET_SIZE(s->dict) > size) {
        rc = OK;
        goto done;
    }
    o = PyLong_CheckExact(old)
        ? PyLong_AsLongLongAndOverflow(old, &overflow) : (overflow = 1, 0);
    if (o == -1 && PyErr_Occurred())
        goto done;
    if (!overflow && (!m->p || (o >= 0 && (u64)o < m->p))) {
        /* |c| < 2^126 over ZZ, c < p over GF(p): no overflow */
        i128 t = (i128)o + c;
        if (m->p)
            t %= (i128)m->p;
        sum = t ? coef_to_py(t) : Py_NewRef(zero_obj);
    }
    else {
        PyObject *t = PyNumber_Add(old, v);
        if (t != NULL && m->p) {
            sum = PyNumber_Remainder(t, m->pobj);
            Py_DECREF(t);
        }
        else
            sum = t;
    }
    if (sum != NULL) {
        int nonzero = PyObject_IsTrue(sum);
        if (nonzero > 0)
            rc = PyDict_SetItem(s->dict, k, sum) < 0 ? FAIL : OK;
        else if (nonzero == 0)
            rc = PyDict_DelItem(s->dict, k) < 0 ? FAIL : OK;
    }
done:
    Py_DECREF(k);
    Py_XDECREF(v);
    Py_XDECREF(sum);
    return rc;
}

/* The merge's next term must be expect's next one; DIFFER ends the merge
   at the first that is not.  Both run in descending key order, and a
   coefficient outside int64 differs from every coefficient of expect. */
static int
sink_cmp(Sink *s, const u64 *key, i128 c)
{
    const int w = s->mode->w;
    const u64 *r;
    if (s->seen == s->expect.n)
        return DIFFER;
    r = s->expect.rec + (size_t)s->seen++ * (w + 1);
    return key_equal(r, key, w) && c == (int64_t)r[w] ? OK : DIFFER;
}

static inline int
emit(Sink *s, const u64 *key, i128 c)
{
    switch (s->kind) {
    case SINK_ARRAY: return sink_array(s, key, c);
    case SINK_FMA: return sink_fma(s, key, c);
    default: return sink_cmp(s, key, c);
    }
}

/* ------------------------------------------------------------------------
 * heap merge of a sum of signed products
 * ---------------------------------------------------------------------- */

/* One product R*S, R the operand with fewer terms, negated when neg. */
typedef struct {
    const Terms *r, *s;
    int neg;
} Stream;

/* One cursor: term `r` of R times term `s` of S; `next` chains the
   cursors of one key behind the one in the heap (-1 ends the chain).  The
   row started at the term sbeg of S, and the next row, if it is below
   rend, starts there when this row's first pair leaves the heap. */
typedef struct {
    const u64 *r, *rend;
    const u64 *s, *sbeg, *send;
    Py_ssize_t next;
    int neg;
} Cursor;

typedef struct {
    Cursor *cur;
    Py_ssize_t *heap;
    u64 *keys;              /* the key of each cursor's current pair */
    Py_ssize_t size;        /* cursors allocated */
} Scratch;

static void
scratch_free(Scratch *sc)
{
    PyMem_RawFree(sc->cur);
    PyMem_RawFree(sc->heap);
    PyMem_RawFree(sc->keys);
    memset(sc, 0, sizeof *sc);
}

static int
scratch_reserve(Scratch *sc, Py_ssize_t size, int w)
{
    if (size <= sc->size)
        return OK;
    scratch_free(sc);
    sc->cur = PyMem_RawMalloc((size_t)size * sizeof(Cursor));
    sc->heap = PyMem_RawMalloc((size_t)size * sizeof(Py_ssize_t));
    sc->keys = PyMem_RawMalloc((size_t)size * w * sizeof(u64));
    if (!sc->cur || !sc->heap || !sc->keys) {
        scratch_free(sc);
        return NOMEM;
    }
    sc->size = size;
    return OK;
}

#define KEY(c) (keys + (size_t)(c) * W)

/* Put cursor c (with its chain) into the hole at slot i of a max-heap of
   hn cursors, and return the heap's new size: walk the hole down along the
   larger children, then find c's place on the way up (Floyd's bottom-up
   method: the key of a cursor that moved on is usually small, so it seldom
   moves up).  A hole at a leaf makes this a push.  When the cursor above
   that place has c's key, c joins its chain instead, and the heap's last
   cursor fills the hole: the pairs of one key then leave the heap in one
   step (Monagan and Pearce's chained heap). */
static inline __attribute__((always_inline)) Py_ssize_t
sift(Py_ssize_t *heap, Py_ssize_t hn, Py_ssize_t i, Py_ssize_t c,
     Cursor *cur, const u64 *keys, const int W)
{
    Py_ssize_t ch, j, up = 0;
    int cmp = -1;
    while ((ch = 2 * i + 1) < hn) {
        if (ch + 1 < hn && key_less(KEY(heap[ch]), KEY(heap[ch + 1]), W))
            ch++;
        heap[i] = heap[ch];
        i = ch;
    }
    for (j = i; j > 0; j = up) {
        up = (j - 1) >> 1;
        if ((cmp = key_cmp(KEY(heap[up]), KEY(c), W)) >= 0)
            break;
    }
    if (j > 0 && cmp == 0) {
        Py_ssize_t tail = c;
        while (cur[tail].next >= 0)
            tail = cur[tail].next;
        cur[tail].next = cur[heap[up]].next;
        cur[heap[up]].next = c;
        if (i == --hn)
            return hn;
        c = heap[hn];
        for (j = i; j > 0 && key_less(KEY(heap[(j - 1) >> 1]), KEY(c), W);
             j = (j - 1) >> 1)
            ;
    }
    for (; i > j; i = (i - 1) >> 1)
        heap[i] = heap[(i - 1) >> 1];
    heap[i] = c;
    return hn;
}

/* The merge proper, inlined for a few constant key widths and for each
   coefficient mode.  The heap holds the cursors the merge starts with,
   some of them chained behind another of the same key; row i + 1 of a run
   of rows that start at one term of S starts when row i's first pair
   leaves the heap, as (i + 1, j) is below (i, j).  Every pair
   not yet in the heap has a key strictly below one that is, so the heap's
   top is the largest pair left, and the pairs of one key leave it one
   after another; a key's sum is final when a smaller key comes up.  Of
   the chain at the top, the first cursor that moves on replaces the top in
   one sift and the others are pushed.  The merge ends at the first key
   below `floor` when one is given, and soon after another thread sets
   `stop`; it checks for signals only when `signals` is set. */
static inline __attribute__((always_inline)) int
merge_impl(Scratch *sc, Py_ssize_t hn, Py_ssize_t ncur, Sink *sink,
           const u64 *floor, int *stop, int signals, const int W,
           const int MODP)
{
    const int stride = W + 1;
    const u64 p = sink->mode->p;
    Cursor *cur = sc->cur;
    Py_ssize_t *heap = sc->heap;
    u64 *keys = sc->keys, top[MAX_WORDS];
    unsigned long rounds = 0;
    i128 acc = 0;
    u128 uacc = 0;
    int open = 0;

    while (hn > 0) {
        Py_ssize_t ci = heap[0], c, next;
        if (!open || !key_equal(KEY(ci), top, W)) {
            if (open) {
                if (MODP)
                    acc = (i128)(uacc % p);
                if (acc != 0) {
                    int rc = emit(sink, top, acc);
                    if (rc != OK)
                        return rc;
                }
                if ((++rounds & STOP_EVERY) == 0) {
                    if (stop != NULL && __atomic_load_n(stop, __ATOMIC_RELAXED))
                        return STOPPED;
                    if (signals && (rounds & SIGNAL_EVERY) == 0
                        && PyErr_CheckSignals() < 0)
                        return FAIL;
                }
            }
            open = floor == NULL || !key_less(KEY(ci), floor, W);
            if (!open)
                break;
            memcpy(top, KEY(ci), W * sizeof(u64));
            acc = 0;
            uacc = 0;
        }
        for (c = ci; c >= 0; c = next) {
            Cursor *k = &cur[c];
            Py_ssize_t row = -1;
            next = k->next;
            k->next = -1;
            if (MODP) {
                u64 a = k->r[W];
                uacc += (u128)((k->neg ? p - a : a) * k->s[W]);
            }
            else {
                i128 prod = (i128)(int64_t)k->r[W] * (int64_t)k->s[W];
                if (k->neg)
                    prod = -prod;
                if (__builtin_add_overflow(acc, prod, &acc))
                    return FALLBACK;
            }
            if (k->s == k->sbeg && k->r + stride < k->rend) {
                /* this row's first pair is out: start the next row */
                Cursor *nc = &cur[row = ncur++];
                *nc = *k;
                nc->r = k->r + stride;
                key_add(KEY(row), nc->r, nc->s, W);
            }
            k->s += stride;
            if (k->s < k->send) {
                key_add(KEY(c), k->r, k->s, W);
                hn = c == ci ? sift(heap, hn, 0, c, cur, keys, W)
                             : sift(heap, hn + 1, hn, c, cur, keys, W);
            }
            else if (c == ci && --hn > 0)
                hn = sift(heap, hn, 0, heap[hn], cur, keys, W);
            if (row >= 0)
                hn = sift(heap, hn + 1, hn, row, cur, keys, W);
        }
    }
    if (open) {
        if (MODP)
            acc = (i128)(uacc % p);
        if (acc != 0) {
            int rc = emit(sink, top, acc);
            if (rc != OK)
                return rc;
        }
    }
    /* a comparison needs every term of expect, too */
    return sink->kind == SINK_CMP && sink->seen < sink->expect.n ? DIFFER : OK;
}

#define RUN_AT(w)                                                       \
    (p ? merge_impl(sc, hn, ncur, sink, floor, stop, signals, (w), 1)   \
       : merge_impl(sc, hn, ncur, sink, floor, stop, signals, (w), 0))

static int
run(Scratch *sc, Py_ssize_t hn, Py_ssize_t ncur, Sink *sink,
    const u64 *floor, int *stop, int signals)
{
    const u64 p = sink->mode->p;
    switch (sink->mode->w) {
    case 1: return RUN_AT(1);
    case 2: return RUN_AT(2);
    case 3: return RUN_AT(3);
    case 4: return RUN_AT(4);
    default: return RUN_AT(sink->mode->w);
    }
}

/* Push cursor i onto the heap of sc: the run of rows of st's R from r to
   rend, all starting at the term s of its S. */
static Py_ssize_t
push(Scratch *sc, Py_ssize_t hn, Py_ssize_t i, const Stream *st,
     const u64 *r, const u64 *rend, const u64 *s, int W)
{
    Cursor *c = &sc->cur[i];
    const u64 *keys = sc->keys;
    c->r = r;
    c->rend = rend;
    c->s = c->sbeg = s;
    c->send = st->s->rec + (size_t)st->s->n * (W + 1);
    c->neg = st->neg;
    c->next = -1;
    key_add(sc->keys + (size_t)i * W, r, s, W);
    return sift(sc->heap, hn + 1, hn, i, sc->cur, keys, W);
}

/* The first row of each product, the others starting lazily; the heap's
   size, and the cursors used in *ncur. */
static Py_ssize_t
start_rows(const Stream *st, int nst, Scratch *sc, int w, Py_ssize_t *ncur)
{
    Py_ssize_t hn = 0;
    *ncur = 0;
    for (int t = 0; t < nst; t++)
        if (st[t].r->n && st[t].s->n)
            hn = push(sc, hn, (*ncur)++, &st[t], st[t].r->rec,
                      st[t].r->rec + (size_t)st[t].r->n * (w + 1),
                      st[t].s->rec, w);
    return hn;
}

static const u64 zero_key[MAX_WORDS];

/* How many terms of s (sorted descending), each plus r, are at or above k:
   the index of the first below. */
static Py_ssize_t
first_below(const u64 *r, const Terms *s, const u64 *k, int w)
{
    Py_ssize_t lo = 0, hi = s->n;
    u64 sum[MAX_WORDS];
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        key_add(sum, r, s->rec + (size_t)mid * (w + 1), w);
        if (key_less(sum, k, w))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

static Py_ssize_t
pairs_at_or_above(const Stream *st, int nst, const u64 *k, int w)
{
    Py_ssize_t count = 0;
    for (int t = 0; t < nst; t++)
        for (Py_ssize_t i = 0; i < st[t].r->n; i++)
            count += first_below(st[t].r->rec + (size_t)i * (w + 1), st[t].s,
                                 k, w);
    return count;
}

/* Every row from its first pair below k: the first row of each run of
   rows whose first pairs below k share a term of S (later rows never
   start further on), the others starting lazily. */
static Py_ssize_t
start_below(const Stream *st, int nst, const u64 *k, Scratch *sc, int w,
            Py_ssize_t *ncur)
{
    Py_ssize_t hn = 0;
    *ncur = 0;
    for (int t = 0; t < nst; t++) {
        const Terms *r = st[t].r, *s = st[t].s;
        const u64 *head = r->rec;
        Py_ssize_t run = s->n;      /* where the rows from head start */
        for (Py_ssize_t i = 0; i <= r->n; i++) {
            const u64 *ri = r->rec + (size_t)i * (w + 1);
            Py_ssize_t j = i < r->n ? first_below(ri, s, k, w) : -1;
            if (j == run)
                continue;
            if (run < s->n)
                hn = push(sc, hn, (*ncur)++, &st[t], head, ri,
                          s->rec + (size_t)run * (w + 1), w);
            head = ri;
            run = j;
        }
    }
    return hn;
}

/* Into k, a key with about `target` pairs at or above it: the middle row
   of the largest product plus the term of its S that a binary search
   finds. */
static void
pivot(const Stream *st, int nst, Py_ssize_t target, u64 *k, int w)
{
    const Stream *big = &st[0];
    const u64 *mid;
    Py_ssize_t lo = 0, hi;
    for (int t = 1; t < nst; t++)
        if (st[t].r->n * st[t].s->n > big->r->n * big->s->n)
            big = &st[t];
    mid = big->r->rec + (size_t)(big->r->n / 2) * (w + 1);
    hi = big->s->n - 1;
    while (lo < hi) {
        Py_ssize_t j = lo + (hi - lo) / 2;
        key_add(k, mid, big->s->rec + (size_t)j * (w + 1), w);
        if (pairs_at_or_above(st, nst, k, w) >= target)
            hi = j;
        else
            lo = j + 1;
    }
    key_add(k, mid, big->s->rec + (size_t)lo * (w + 1), w);
}

/* The helper thread of a split merge, and what the two threads share:
   under lock, the helper's status and whether it is done; and a flag that
   stops both, read and set with __atomic builtins. */
typedef struct {
    pthread_t thread;
    Scratch *sc;
    Py_ssize_t hn, ncur;
    Sink sink;
    pthread_mutex_t lock;
    pthread_cond_t cv;
    int rc, done;
    int stop;
} Helper;

static Py_ssize_t split_count;  /* merges run as two ranges */

static void *
helper_main(void *arg)
{
    Helper *h = arg;
    int rc = run(h->sc, h->hn, h->ncur, &h->sink, NULL, &h->stop, 0);
    if (rc != OK)
        __atomic_store_n(&h->stop, 1, __ATOMIC_RELAXED);
    pthread_mutex_lock(&h->lock);
    h->rc = rc;
    h->done = 1;
    pthread_cond_signal(&h->cv);
    pthread_mutex_unlock(&h->lock);
    return NULL;
}

/* Start a helper thread on the keys of st below the pivot it writes into
   floor, which about half the pairs are at or above; 0 when it could not
   start, and the merge stays on one thread. */
static int
helper_start(Helper *h, const Stream *st, int nst, Py_ssize_t pairs,
             Py_ssize_t rows, Scratch *sc, Sink *sink, u64 *floor)
{
    const int w = sink->mode->w;
    Py_ssize_t cut = 0;
    pthread_attr_t attr;
    sigset_t all, old;
    int made;

    if (scratch_reserve(sc, rows, w) != OK)
        return 0;
    pivot(st, nst, pairs / 2, floor, w);
    h->sc = sc;
    h->hn = start_below(st, nst, floor, sc, w, &h->ncur);
    h->sink = (Sink){sink->kind, sink->mode};
    if (sink->kind == SINK_CMP) {
        cut = first_below(zero_key, &sink->expect, floor, w);
        h->sink.expect.n = sink->expect.n - cut;
        h->sink.expect.rec = sink->expect.rec + (size_t)cut * (w + 1);
    }
    h->done = h->stop = 0;
    if (pthread_mutex_init(&h->lock, NULL) != 0)
        return 0;
    if (pthread_cond_init(&h->cv, NULL) != 0) {
        pthread_mutex_destroy(&h->lock);
        return 0;
    }
    /* the helper takes no signals: they go to the threads that run Python */
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    made = pthread_attr_init(&attr) == 0;
    if (made) {
        made = pthread_attr_setstacksize(&attr, (size_t)1 << 18) == 0
               && pthread_create(&h->thread, &attr, helper_main, h) == 0;
        pthread_attr_destroy(&attr);
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    if (!made) {
        pthread_mutex_destroy(&h->lock);
        pthread_cond_destroy(&h->cv);
        return 0;
    }
    if (sink->kind == SINK_CMP)
        sink->expect.n = cut;
    split_count++;
    return 1;
}

/* After the caller's range ended with rc: wait for the helper, checking
   signals, and stop it once the merge has failed or differs.  Then the
   status of the whole merge, with the helper's terms added to the
   caller's array. */
static int
helper_join(Helper *h, Sink *sink, int rc)
{
    const int w = sink->mode->w;
    pthread_mutex_lock(&h->lock);
    for (;;) {
        struct timespec t;
        if (rc != OK)
            __atomic_store_n(&h->stop, 1, __ATOMIC_RELAXED);
        if (h->done)
            break;
        clock_gettime(CLOCK_REALTIME, &t);
        t.tv_nsec += WAIT_NS;
        if (t.tv_nsec >= 1000000000) {
            t.tv_sec++;
            t.tv_nsec -= 1000000000;
        }
        if (pthread_cond_timedwait(&h->cv, &h->lock, &t) == ETIMEDOUT
            && rc != FAIL) {
            pthread_mutex_unlock(&h->lock);
            if (PyErr_CheckSignals() < 0)
                rc = FAIL;
            pthread_mutex_lock(&h->lock);
        }
    }
    pthread_mutex_unlock(&h->lock);
    pthread_join(h->thread, NULL);
    pthread_mutex_destroy(&h->lock);
    pthread_cond_destroy(&h->cv);

    /* a Python error first, then a failed allocation, then a difference
       (found on either side, it is one), then a fallback */
    if (rc != FAIL) {
        if (rc == NOMEM || h->rc == NOMEM)
            rc = NOMEM;
        else if (rc == DIFFER || h->rc == DIFFER)
            rc = DIFFER;
        else if (rc == FALLBACK || h->rc == FALLBACK)
            rc = FALLBACK;
        else if (rc == OK)
            rc = h->rc;
    }
    if (sink->kind == SINK_ARRAY) {
        Terms *lower = &h->sink.out;
        if (rc == OK && lower->n) {
            size_t stride = (size_t)(w + 1);
            u64 *all = PyMem_RawRealloc(sink->out.rec, (size_t)(sink->out.n
                                        + lower->n) * stride * sizeof(u64));
            if (all == NULL)
                rc = NOMEM;
            else {
                memcpy(all + (size_t)sink->out.n * stride, lower->rec,
                       (size_t)lower->n * stride * sizeof(u64));
                sink->out.rec = all;
                sink->out.n = sink->cap = sink->out.n + lower->n;
            }
        }
        PyMem_RawFree(lower->rec);
    }
    return rc;
}

/* Send sum over t of +-R_t*S_t to the sink, in descending key order: into
   an array or a comparison on two threads from SPLIT_MIN_PAIRS pairs on,
   else on this one. */
static int
merge(const Stream *st, int nst, Scratch sc[2], Sink *sink)
{
    const int w = sink->mode->w;
    Py_ssize_t rows = 0, pairs = 0, hn, ncur;
    u64 floor[MAX_WORDS];
    Helper h;
    int rc, two;
    for (int t = 0; t < nst; t++)
        if (st[t].s->n) {
            rows += st[t].r->n;
            pairs += st[t].r->n * st[t].s->n;
        }
    if (scratch_reserve(&sc[0], rows, w) != OK) {
        PyErr_NoMemory();
        return FAIL;
    }
    two = pairs >= SPLIT_MIN_PAIRS && sink->kind != SINK_FMA
          && helper_start(&h, st, nst, pairs, rows, &sc[1], sink, floor);
    hn = start_rows(st, nst, &sc[0], w, &ncur);
    rc = run(&sc[0], hn, ncur, sink, two ? floor : NULL,
             two ? &h.stop : NULL, 1);
    if (two)
        rc = helper_join(&h, sink, rc);
    if (rc == NOMEM) {
        PyErr_NoMemory();
        rc = FAIL;
    }
    return rc;
}

/* ------------------------------------------------------------------------
 * the pure-Python kernels, for the calls this file does not take
 * ---------------------------------------------------------------------- */

/* adjkit.kernels._fma and _det_laplace, looked up on the first call that
   needs them */
static PyObject *py_fma, *py_det_laplace;

static PyObject *
python_kernel(PyObject **slot, const char *name)
{
    if (*slot == NULL) {
        PyObject *mod = PyImport_ImportModule("adjkit.kernels");
        if (mod == NULL)
            return NULL;
        *slot = PyObject_GetAttrString(mod, name);
        Py_DECREF(mod);
    }
    return *slot;
}

static PyObject *
python_fma(PyObject *acc, PyObject *a, PyObject *b, PyObject *negate,
           PyObject *p)
{
    PyObject *fn = python_kernel(&py_fma, "_fma");
    if (fn == NULL)
        return NULL;
    return PyObject_CallFunctionObjArgs(fn, acc, a, b, negate, p, NULL);
}

/* ------------------------------------------------------------------------
 * products
 * ---------------------------------------------------------------------- */

static int
log2_ceil_norm(const Terms *t, int w)
{
    u128 norm = 0;
    int bits = 0;
    for (Py_ssize_t i = 0; i < t->n; i++) {
        int64_t c = (int64_t)t->rec[(size_t)i * (w + 1) + w];
        norm += c < 0 ? (u128)(-(i128)c) : (u128)c;
    }
    while (norm) {
        bits++;
        norm >>= 1;
    }
    return bits;
}

/* (-1)^negate * a * b, of the term arrays a and b at m->w words, into the
   sink; FALLBACK before the merge starts for a partial sum that could
   overflow the accumulator. */
static int
merge_terms(const Terms *ta, const Terms *tb, int negate, const Mode *m,
            Scratch sc[2], Sink *sink)
{
    Stream st;
    /* every partial sum is at most |a|_1 * |b|_1 in absolute value */
    if (!m->p && log2_ceil_norm(ta, m->w) + log2_ceil_norm(tb, m->w) > 126)
        return FALLBACK;
    st.r = ta->n <= tb->n ? ta : tb;
    st.s = ta->n <= tb->n ? tb : ta;
    st.neg = negate;
    return merge(&st, 1, sc, sink);
}

/* merge_terms of the term dicts a and b; FALLBACK also for a coefficient
   that is not an int64. */
static int
merge_product(PyObject *a, PyObject *b, int negate, const Mode *m,
              Scratch sc[2], Sink *sink)
{
    Terms ta = {0, NULL}, tb = {0, NULL};
    int rc;

    if ((rc = terms_from_dict(a, m, &ta, NULL)) == OK
        && (rc = terms_from_dict(b, m, &tb, NULL)) == OK)
        rc = merge_terms(&ta, &tb, negate, m, sc, sink);
    PyMem_RawFree(ta.rec);
    PyMem_RawFree(tb.rec);
    return rc;
}

/* acc += (-1)^negate * a * b into the sink; FALLBACK leaves the sink's
   dict untouched. */
static int
product(PyObject *a, PyObject *b, int negate, Mode *m, Sink *sink)
{
    size_t bits = 0;
    Scratch sc[2] = {{0}};
    int rc;

    if ((rc = scan_keys(a, &bits)) != OK || (rc = scan_keys(b, &bits)) != OK)
        return rc;
    if ((m->w = words_for(bits + 1)) == 0)
        return FALLBACK;
    rc = merge_product(a, b, negate, m, sc, sink);
    scratch_free(&sc[0]);
    scratch_free(&sc[1]);
    return rc;
}

/* npos positional arguments, then the nopt optional ones named in
   `names`, by position or keyword, into opt (NULL where not given). */
static int
parse_args(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
           Py_ssize_t npos, const char *fname, const char *const *names,
           int nopt, PyObject **opt)
{
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    if (nargs < npos || nargs > npos + nopt) {
        PyErr_Format(PyExc_TypeError, "%s() takes from %zd to %zd positional "
                     "arguments (%zd given)", fname, npos, npos + nopt, nargs);
        return -1;
    }
    for (int j = 0; j < nopt; j++)
        opt[j] = npos + j < nargs ? args[npos + j] : NULL;
    for (Py_ssize_t i = 0; i < nkw; i++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, i);
        int j = 0;
        while (j < nopt && !(PyUnicode_Check(name)
                             && PyUnicode_CompareWithASCIIString(name, names[j]) == 0))
            j++;
        if (j == nopt || opt[j] != NULL) {
            PyErr_Format(PyExc_TypeError, "%s() got an unexpected or repeated "
                         "keyword argument %R", fname, name);
            return -1;
        }
        opt[j] = args[nargs + i];
    }
    return 0;
}

static const char *const p_only[] = {"p"};

/* acc += a*b (or -= when negate), in place; the one fallback path is
   kernels._fma */
static PyObject *
fma_into(PyObject *acc, PyObject *a, PyObject *b, PyObject *negate, PyObject *p)
{
    Mode m = {0};
    Sink sink = {SINK_FMA, &m};
    int rc, neg;

    if (p == NULL)
        p = zero_obj;
    if (!PyDict_Check(acc) || !PyDict_Check(a) || !PyDict_Check(b)
        || (rc = mode_from(p, &m)) == FALLBACK)
        return python_fma(acc, a, b, negate, p);
    if (rc == FAIL || (neg = PyObject_IsTrue(negate)) < 0)
        return NULL;
    if (PyDict_GET_SIZE(a) && PyDict_GET_SIZE(b)) {
        sink.dict = acc;
        rc = product(a, b, neg, &m, &sink);
        if (rc == FALLBACK)
            return python_fma(acc, a, b, negate, p);
        if (rc == FAIL)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
fma_terms(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
          PyObject *kwnames)
{
    PyObject *p;

    if (parse_args(args, nargs, kwnames, 4, "fma_terms", p_only, 1, &p) < 0)
        return NULL;
    return fma_into(args[0], args[1], args[2], args[3], p);
}

/* a*b is the fma into a new dict */
static PyObject *
mul_terms(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
          PyObject *kwnames)
{
    PyObject *p, *out, *r;

    if (parse_args(args, nargs, kwnames, 2, "mul_terms", p_only, 1, &p) < 0
        || (out = PyDict_New()) == NULL)
        return NULL;
    if ((r = fma_into(out, args[0], args[1], Py_False, p)) == NULL)
        Py_CLEAR(out);
    Py_XDECREF(r);
    return out;
}

/* ------------------------------------------------------------------------
 * compact keys for a comparison with a pair (see the header)
 * ---------------------------------------------------------------------- */

/* One block of key bits: a digit of phi's mixed radix. */
typedef struct {
    size_t lo;      /* its lowest bit */
    int width;      /* its bits read from lo, up to the highest input bit */
    u128 bound;     /* B_b: the largest sum of its values the call forms */
    size_t word;    /* lo / 64 */
    int shift;      /* lo % 64 */
    u64 mask;       /* width ones */
} KeyBlock;

typedef struct {
    size_t w;       /* words of a key unmapped */
    int w2;         /* words of its image */
    int nb;
    KeyBlock *blk;
    u64 *place;     /* each block's place value, at w2 words */
} KeyMap;

/* {(words, words unmapped): count} of the comparisons on mapped keys */
static PyObject *compacted_counts;

static void
block_final(KeyBlock *b)
{
    b->word = b->lo / 64;
    b->shift = (int)(b->lo % 64);
    b->mask = b->width < 64 ? ((u64)1 << b->width) - 1 : ~(u64)0;
}

/* v_b(k): the block's bits of the key k.  It reads k[word + 1] in any
   case, which a record's coefficient provides. */
static inline u64
block_value(const u64 *k, const KeyBlock *b)
{
    return (k[b->word] >> b->shift
            | k[b->word + 1] << 1 << (63 - b->shift)) & b->mask;
}

/* phi(k) into map->w2 words.  No carry leaves the top word, as phi(k) <
   prod_b (B_b + 1) for every key mapped. */
static void
map_key(const KeyMap *map, const u64 *k, u64 *phi)
{
    const KeyBlock *blk = map->blk;
    const u64 *place = map->place;
    const int nb = map->nb, w2 = map->w2;
    if (w2 == 1) {
        u64 sum = 0;
        for (int b = 0; b < nb; b++)
            sum += place[b] * block_value(k, &blk[b]);
        phi[0] = sum;
        return;
    }
    memset(phi, 0, (size_t)w2 * sizeof(u64));
    for (int b = 0; b < nb; b++) {
        u64 v = block_value(k, &blk[b]), carry = 0;
        for (int j = 0; j < w2; j++) {
            u128 x = (u128)place[b * w2 + j] * v + phi[j] + carry;
            phi[j] = (u64)x;
            carry = (u64)(x >> 64);
        }
    }
}

/* The largest value of each block over the keys of t, into top. */
static void
block_maxima(const Terms *t, size_t w, const KeyBlock *blk, int nb, u64 *top)
{
    for (Py_ssize_t i = 0; i < t->n; i++) {
        const u64 *k = t->rec + (size_t)i * (w + 1);
        for (int b = 0; b < nb; b++) {
            u64 v = block_value(k, &blk[b]);
            if (v > top[b])
                top[b] = v;
        }
    }
}

/* Rewrite the keys of t from map->w words to phi(k) at map->w2 < map->w
   words, in place (each record is read whole before its image is written,
   at or below it), and give back the room saved. */
static void
rekey(Terms *t, const KeyMap *map)
{
    const size_t w = map->w;
    const int w2 = map->w2;
    u64 *fitted;
    for (Py_ssize_t i = 0; i < t->n; i++) {
        const u64 *k = t->rec + (size_t)i * (w + 1);
        u64 phi[MAX_WORDS], c = k[w];
        map_key(map, k, phi);
        memcpy(t->rec + (size_t)i * (w2 + 1), phi, (size_t)w2 * sizeof(u64));
        t->rec[(size_t)i * (w2 + 1) + w2] = c;
    }
    if (t->n && (fitted = PyMem_RawRealloc(t->rec, (size_t)t->n * (w2 + 1)
                                           * sizeof(u64))) != NULL)
        t->rec = fitted;
}

/* Derive phi from the n x n grid's arrays and the pair's, all at m->w
   words, and map them all by it when its values take fewer words; m->w is
   then the new width, and else nothing has changed.  OK or NOMEM. */
static int
compact(Terms *grid, int n, Terms pair[2], Mode *m)
{
    const size_t w = (size_t)m->w;
    u64 *top = NULL, ors[MAX_WORDS] = {0}, prod[MAX_WORDS];
    KeyMap map = {w, 0, 0, NULL, NULL};
    KeyBlock *blk;
    int nb = 0, pw = 1, rc = OK;
    size_t bits;

    /* a run of set bits takes at least two bits with the gap above it */
    map.blk = blk = PyMem_RawCalloc(32 * w + 1, sizeof(KeyBlock));
    if (blk == NULL)
        goto nomem;
    /* blocks: in the OR of the keys, each run of set bits starts one (no
       key and no sum has a bit below the first); a block wider than 64
       bits keeps the keys unmapped */
    for (int a = 0; a < n * n + 2; a++) {
        const Terms *t = a < n * n ? &grid[a] : &pair[a - n * n];
        for (Py_ssize_t i = 0; i < t->n; i++)
            for (size_t j = 0; j < w; j++)
                ors[j] |= t->rec[(size_t)i * (w + 1) + j];
    }
    for (size_t i = 0, prev = 0; i < 64 * w; i++) {
        size_t set = ors[i / 64] >> (i % 64) & 1;
        if (set && !prev)
            blk[nb++].lo = i;
        if (set && (blk[nb - 1].width = (int)(i - blk[nb - 1].lo + 1)) > 64)
            goto done;
        prev = set;
    }
    nb += nb == 0;              /* every key is 0: one block of value 0 */
    for (int b = 0; b < nb; b++)
        block_final(&blk[b]);
    /* bounds: the sum over rows of each row's largest value, and the
       largest of a plus the largest of b */
    top = PyMem_RawCalloc(2 * (size_t)nb, sizeof(u64));
    if (top == NULL)
        goto nomem;
    for (int i = 0; i < n; i++) {
        memset(top, 0, (size_t)nb * sizeof(u64));
        for (int j = 0; j < n; j++)
            block_maxima(&grid[i * n + j], w, blk, nb, top);
        for (int b = 0; b < nb; b++)
            blk[b].bound += top[b];
    }
    memset(top, 0, 2 * (size_t)nb * sizeof(u64));
    block_maxima(&pair[0], w, blk, nb, top);
    block_maxima(&pair[1], w, blk, nb, top + nb);
    for (int b = 0; b < nb; b++)
        if ((u128)top[b] + top[nb + b] > blk[b].bound)
            blk[b].bound = (u128)top[b] + top[nb + b];
    /* no carry: merge a block whose sums could reach the next one into it
       (every bound stays below 62 * 2^64, as a merged width is at most 64) */
    for (int b = 0; b + 1 < nb;) {
        size_t gap = blk[b + 1].lo - blk[b].lo;
        int width = (int)(gap + blk[b + 1].width);
        if (gap >= 128 || (blk[b].bound >> gap) == 0) {
            b++;
            continue;
        }
        if (width > 64)
            goto done;
        blk[b].bound += blk[b + 1].bound << gap;
        blk[b].width = width;
        memmove(&blk[b + 1], &blk[b + 2], (size_t)(nb - b - 2) * sizeof *blk);
        nb--;
    }
    for (int b = 0; b < nb; b++)        /* the merged blocks' masks */
        block_final(&blk[b]);
    /* each block's place value prod_{c<b} (B_c + 1), and in prod the count
       of phi's values, prod_b (B_b + 1) */
    map.place = PyMem_RawCalloc((size_t)nb * MAX_WORDS, sizeof(u64));
    if (map.place == NULL)
        goto nomem;
    prod[0] = 1;
    for (int b = 0; b < nb; b++) {
        u64 carry = 0, radix;
        if (blk[b].bound >= UINT64_MAX)
            goto done;
        radix = (u64)blk[b].bound + 1;
        memcpy(map.place + (size_t)b * MAX_WORDS, prod,
               (size_t)pw * sizeof(u64));
        for (int j = 0; j < pw; j++) {
            u128 x = (u128)prod[j] * radix + carry;
            prod[j] = (u64)x;
            carry = (u64)(x >> 64);
        }
        if (carry) {
            if (pw == MAX_WORDS)
                goto done;
            prod[pw++] = carry;
        }
    }
    for (int j = 0; prod[j]-- == 0; j++)     /* the largest value */
        ;
    while (pw > 1 && prod[pw - 1] == 0)
        pw--;
    bits = 64 * (size_t)(pw - 1)
           + (prod[pw - 1] ? 64 - (size_t)__builtin_clzll(prod[pw - 1]) : 0);
    if ((map.w2 = words_for(bits)) >= (int)w)
        goto done;
    for (int b = 1; b < nb; b++)       /* place values at w2 words apart */
        memmove(map.place + (size_t)b * map.w2,
                map.place + (size_t)b * MAX_WORDS,
                (size_t)map.w2 * sizeof(u64));
    map.nb = nb;
    for (int a = 0; a < n * n + 2; a++)
        rekey(a < n * n ? &grid[a] : &pair[a - n * n], &map);
    m->w = map.w2;
done:
    PyMem_RawFree(top);
    PyMem_RawFree(map.blk);
    PyMem_RawFree(map.place);
    return rc;
nomem:
    rc = NOMEM;
    goto done;
}

/* Count one comparison run on keys of `words` words that would take
   `unmapped` words unmapped. */
static int
count_compacted(int words, int unmapped)
{
    PyObject *key = Py_BuildValue("(ii)", words, unmapped), *old;
    PyObject *count;
    int rc;
    if (key == NULL)
        return -1;
    old = PyDict_GetItemWithError(compacted_counts, key);
    if (old == NULL && PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    count = PyLong_FromSsize_t(old ? PyLong_AsSsize_t(old) + 1 : 1);
    rc = count == NULL ? -1 : PyDict_SetItem(compacted_counts, key, count);
    Py_DECREF(key);
    Py_XDECREF(count);
    return rc;
}

/* ------------------------------------------------------------------------
 * Laplace
 * ---------------------------------------------------------------------- */

/* Rank of a k-subset (a bit mask) among all k-subsets in colex order, the
   order in which Gosper's step enumerates them. */
static Py_ssize_t
colex_rank(u64 mask, Py_ssize_t binom[][MAX_LAPLACE_N + 1])
{
    Py_ssize_t rank = 0;
    for (int i = 1; mask; i++, mask &= mask - 1)
        rank += binom[__builtin_ctzll(mask)][i];
    return rank;
}

static void
level_free(Terms *level, Py_ssize_t count)
{
    if (level == NULL)
        return;
    for (Py_ssize_t i = 0; i < count; i++)
        PyMem_RawFree(level[i].rec);
    PyMem_RawFree(level);
}

/* A merged array at its length: realloc down the room its doubling left. */
static void
fit(Sink *s)
{
    if (s->out.n < s->cap && s->out.n) {
        u64 *fitted = PyMem_RawRealloc(s->out.rec, (size_t)s->out.n
                                       * (s->mode->w + 1) * sizeof(u64));
        if (fitted != NULL)
            s->out.rec = fitted;
    }
}

/* Subset-memoized Laplace expansion along rows 0..n-1, as in
   kernels._laplace: level k holds the minors on rows 0..k-1, one per
   k-subset of columns, as sorted arrays.  With nexpect = 0 the last
   level's one minor goes straight into the dict out.  Otherwise it is
   compared term by term as it is produced with expect[0] (nexpect = 1) or
   with expect[0] * expect[1] (nexpect = 2), a product merged into an array
   before the levels: DIFFER at the first term that differs, and nothing of
   the determinant is ever stored.  A comparison with a pair runs on keys
   mapped by phi (compact) when that takes fewer words. */
static int
laplace(PyObject **grid, int n, Mode *m, PyObject *out,
        PyObject *const *expect, int nexpect)
{
    static Py_ssize_t binom[MAX_LAPLACE_N + 1][MAX_LAPLACE_N + 1];
    size_t bits = 0, ebits = 0;
    Terms *entries = NULL, *prev = NULL, *level = NULL, one = {1, NULL};
    Terms pair[2] = {{0, NULL}, {0, NULL}};
    Sink want = {SINK_ARRAY, m};
    Py_ssize_t nprev = 0, count = 0;
    Scratch sc[2] = {{0}};
    Stream st[MAX_LAPLACE_N];
    int rc = OK, nbits = 0, canonical = 1, unmapped;

    for (int i = 0; i < n * n; i++)
        if ((rc = scan_keys(grid[i], &bits)) != OK)
            return rc;
    for (int i = 0; i < nexpect; i++)
        if ((rc = scan_keys(expect[i], &ebits)) != OK)
            return rc;
    for (int v = n; v; v >>= 1)
        nbits++;
    /* a minor on k rows is a sum of products of k entries; the key of a
       product of two factors is below 2^(ebits + 1) */
    bits += nbits;
    ebits += nexpect == 2;
    if ((unmapped = m->w = words_for(bits > ebits ? bits : ebits)) == 0)
        return FALLBACK;
    if (nexpect == 1) {
        if ((rc = terms_from_dict(expect[0], m, &want.out, &canonical)) != OK)
            return rc;
        if (!canonical) {       /* the determinant's terms are canonical */
            PyMem_RawFree(want.out.rec);
            return DIFFER;
        }
    }
    if (binom[0][0] == 0)
        for (int a = 0; a <= MAX_LAPLACE_N; a++)
            for (int b = 0; b <= a; b++)
                binom[a][b] = b == 0 || b == a ? 1
                              : binom[a - 1][b - 1] + binom[a - 1][b];
    entries = PyMem_RawCalloc((size_t)n * n, sizeof(Terms));
    if (entries == NULL) {
        PyErr_NoMemory();
        rc = FAIL;
        goto done;
    }
    for (int i = 0; i < n * n; i++)
        if ((rc = terms_from_dict(grid[i], m, &entries[i], NULL)) != OK)
            goto done;
    if (nexpect == 2) {
        for (int i = 0; i < 2; i++)
            if ((rc = terms_from_dict(expect[i], m, &pair[i], NULL)) != OK)
                goto done;
        if (compact(entries, n, pair, m) != OK) {
            PyErr_NoMemory();
            rc = FAIL;
            goto done;
        }
        /* zeros dropped and reduced mod p by the merge: canonical */
        if ((rc = merge_terms(&pair[0], &pair[1], 0, m, sc, &want)) != OK)
            goto done;
        fit(&want);
        for (int i = 0; i < 2; i++) {
            PyMem_RawFree(pair[i].rec);
            pair[i].rec = NULL;
        }
    }
    one.rec = PyMem_RawCalloc((size_t)m->w + 1, sizeof(u64));
    if (one.rec == NULL) {
        PyErr_NoMemory();
        rc = FAIL;
        goto done;
    }
    one.rec[m->w] = 1;          /* the empty minor: 1 at the key 0 */
    prev = &one;
    nprev = 1;
    for (int k = 1; k <= n; k++) {
        u64 mask = ((u64)1 << k) - 1;
        count = binom[n][k];
        level = PyMem_RawCalloc((size_t)count, sizeof(Terms));
        if (level == NULL) {
            PyErr_NoMemory();
            rc = FAIL;
            goto done;
        }
        for (Py_ssize_t idx = 0; idx < count; idx++) {
            Sink sink = {k < n ? SINK_ARRAY : nexpect ? SINK_CMP : SINK_FMA, m};
            int pos = 0, nst = 0;
            sink.dict = out;
            sink.expect = want.out;
            for (u64 rest = mask; rest; rest &= rest - 1, pos++) {
                int j = __builtin_ctzll(rest);
                Terms *e = &entries[(k - 1) * n + j];
                Terms *minor = &prev[colex_rank(mask & ~((u64)1 << j), binom)];
                if (!e->n || !minor->n)
                    continue;
                st[nst].r = e->n <= minor->n ? e : minor;
                st[nst].s = e->n <= minor->n ? minor : e;
                st[nst].neg = (k - 1 + pos) & 1;
                nst++;
            }
            rc = merge(st, nst, sc, &sink);
            if (sink.kind == SINK_ARRAY) {
                if (rc == OK)
                    fit(&sink);
                level[idx] = sink.out;
            }
            if (rc != OK)
                goto done;
            {   /* Gosper's step: the next mask with k bits */
                u64 low = mask & -mask, up = mask + low;
                mask = (((up ^ mask) >> 2) / low) | up;
            }
        }
        if (prev != &one)
            level_free(prev, nprev);
        prev = level;
        nprev = count;
        level = NULL;
    }
done:
    if (m->w < unmapped && (rc == OK || rc == DIFFER)
        && count_compacted(m->w, unmapped) < 0)
        rc = FAIL;
    if (prev != &one)
        level_free(prev, nprev);
    level_free(level, count);
    if (entries != NULL)
        for (int i = 0; i < n * n; i++)
            PyMem_RawFree(entries[i].rec);
    PyMem_RawFree(entries);
    PyMem_RawFree(one.rec);
    PyMem_RawFree(want.out.rec);
    PyMem_RawFree(pair[0].rec);
    PyMem_RawFree(pair[1].rec);
    scratch_free(&sc[0]);
    scratch_free(&sc[1]);
    return rc;
}

/* det(rows), or with expect, whether det(rows) equals the term dict expect
   or the product of the pair expect = (a, b) of term dicts: the only
   fallback is kernels._det_laplace, which decides the same */
static PyObject *
det_laplace_terms(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
                  PyObject *kwnames)
{
    static const char *const names[] = {"p", "expect"};
    PyObject *opt[2], *p, *expect, *rows, *out = NULL, **grid = NULL, *fn;
    PyObject *want[2];
    Mode m = {0};
    Py_ssize_t n = 0, got = 0;
    int rc, nwant = 0;

    if (parse_args(args, nargs, kwnames, 1, "det_laplace_terms", names, 2,
                   opt) < 0)
        return NULL;
    p = opt[0] ? opt[0] : zero_obj;
    expect = opt[1] ? opt[1] : Py_None;
    rows = args[0];
    if ((rc = mode_from(p, &m)) == FAIL)
        return NULL;
    if (PyDict_Check(expect))
        want[nwant++] = expect;
    else if (PyTuple_Check(expect) && PyTuple_GET_SIZE(expect) == 2)
        for (; nwant < 2; nwant++)
            want[nwant] = PyTuple_GET_ITEM(expect, nwant);
    if (rc == FALLBACK || !PyList_Check(rows)
        || (expect != Py_None && nwant == 0))
        goto python;
    for (int i = 0; i < nwant; i++)
        if (!PyDict_Check(want[i]))
            goto python;
    n = PyList_GET_SIZE(rows);
    if (n == 0 || n > MAX_LAPLACE_N)
        goto python;
    grid = PyMem_RawMalloc((size_t)n * n * sizeof(PyObject *));
    if (grid == NULL)
        return PyErr_NoMemory();
    for (got = 0; got < n; got++) {
        PyObject *row = PyList_GET_ITEM(rows, got);
        if (!(PyList_Check(row) || PyTuple_Check(row))
            || PySequence_Fast_GET_SIZE(row) != n)
            goto python;
        for (Py_ssize_t j = 0; j < n; j++) {
            PyObject *e = PySequence_Fast_GET_ITEM(row, j);
            if (!PyDict_Check(e))
                goto python;
            grid[got * n + j] = e;
        }
    }
    if (nwant == 0 && (out = PyDict_New()) == NULL)
        goto done;
    rc = laplace(grid, (int)n, &m, out, want, nwant);
    if (rc == OK || rc == DIFFER) {
        if (nwant)
            out = PyBool_FromLong(rc == OK);
        goto done;
    }
    Py_CLEAR(out);
    if (rc == FAIL)
        goto done;
python:
    Py_CLEAR(out);
    if ((fn = python_kernel(&py_det_laplace, "_det_laplace")) != NULL)
        out = PyObject_CallFunctionObjArgs(fn, rows, p, expect, NULL);
done:
    PyMem_RawFree(grid);
    return out;
}

/* ------------------------------------------------------------------------
 * row reduction over GF(p) (see the header)
 * ---------------------------------------------------------------------- */

/* The residue of the int v in [0, p), p as the int pobj: any int, negative
   or wider than 64 bits. */
static int
residue(PyObject *v, PyObject *pobj, u64 p, u64 *out)
{
    int overflow = 1;
    long long c = 0;
    PyObject *r;

    if (PyLong_Check(v)) {
        c = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (c == -1 && PyErr_Occurred())
            return FAIL;
    }
    if (!overflow) {
        c %= (long long)p;
        *out = (u64)(c < 0 ? c + (long long)p : c);
        return OK;
    }
    if ((r = PyNumber_Remainder(v, pobj)) == NULL)
        return FAIL;
    *out = PyLong_AsUnsignedLongLong(r);
    Py_DECREF(r);
    if (*out == (u64)-1 && PyErr_Occurred())
        return FAIL;
    *out %= p;
    return OK;
}

/* a^-1 mod p for a in [1, p), p < 2^32; 0 when a and p share a factor */
static u64
inverse_mod(u64 a, u64 p)
{
    int64_t t = 0, nt = 1, r = (int64_t)p, nr = (int64_t)a;
    while (nr) {
        int64_t q = r / nr, x;
        x = t - q * nt; t = nt; nt = x;
        x = r - q * nr; r = nr; nr = x;
    }
    if (r != 1)
        return 0;
    return (u64)(t < 0 ? t + (int64_t)p : t);
}

/* row_reduce_mod(work, ncols, p, reduced): matrix._row_reduce_mod on
   native residues (see the header).  It takes the packed body's pivots,
   swaps and row factors, so it leaves the same rows and det. */
static PyObject *
row_reduce_mod(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    PyObject *work, *pobj, *pivots = NULL, *rows = NULL, *out = NULL;
    Py_ssize_t nrows, count = 0, ncols, npiv = 0;
    u64 p, det = 1, *cells = NULL, **row = NULL;
    int reduced, overflow;
    long long pv;

    if (parse_args(args, nargs, kwnames, 4, "row_reduce_mod", NULL, 0,
                   NULL) < 0)
        return NULL;
    work = args[0];
    pobj = args[2];
    if (!PyList_Check(work)) {
        PyErr_SetString(PyExc_TypeError, "row_reduce_mod: work must be a list");
        return NULL;
    }
    if ((ncols = PyNumber_AsSsize_t(args[1], NULL)) == -1 && PyErr_Occurred())
        return NULL;
    if (!PyLong_Check(pobj)) {
        PyErr_SetString(PyExc_TypeError, "row_reduce_mod: p must be an int");
        return NULL;
    }
    pv = PyLong_AsLongLongAndOverflow(pobj, &overflow);
    if (pv == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || pv < 2 || pv >= ((long long)1 << 32)) {
        PyErr_SetString(PyExc_ValueError,
                        "row_reduce_mod: p must satisfy 2 <= p < 2**32");
        return NULL;
    }
    p = (u64)pv;
    if ((reduced = PyObject_IsTrue(args[3])) < 0)
        return NULL;
    nrows = PyList_GET_SIZE(work);
    for (Py_ssize_t i = 0; i < nrows; i++) {
        PyObject *r = PyList_GET_ITEM(work, i);
        if (!(PyList_Check(r) || PyTuple_Check(r))) {
            PyErr_SetString(PyExc_TypeError,
                            "row_reduce_mod: rows must be lists");
            return NULL;
        }
        if (i == 0)
            count = PySequence_Fast_GET_SIZE(r);
        else if (PySequence_Fast_GET_SIZE(r) != count) {
            PyErr_SetString(PyExc_ValueError,
                            "row_reduce_mod: rows of different lengths");
            return NULL;
        }
    }
    if (ncols > count)
        ncols = count;
    if (nrows && (size_t)count > PY_SSIZE_T_MAX / sizeof(u64) / (size_t)nrows)
        return PyErr_NoMemory();
    cells = PyMem_Malloc((size_t)nrows * (size_t)count * sizeof(u64));
    row = PyMem_Malloc((size_t)nrows * sizeof(u64 *));
    if (cells == NULL || row == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < nrows; i++) {
        PyObject *r = PyList_GET_ITEM(work, i);
        row[i] = cells + (size_t)i * count;
        for (Py_ssize_t j = 0; j < count; j++)
            if (residue(PySequence_Fast_GET_ITEM(r, j), pobj, p,
                        &row[i][j]) == FAIL)
                goto done;
    }
    if ((pivots = PyList_New(0)) == NULL)
        goto done;
    for (Py_ssize_t col = 0; col < ncols; col++) {
        Py_ssize_t r = npiv, i = r;
        u64 *prow, inv;
        while (i < nrows && row[i][col] == 0)
            i++;
        if (i == nrows)
            continue;
        if (PyErr_CheckSignals() < 0)
            goto done;
        if (i != r) {
            prow = row[r];
            row[r] = row[i];
            row[i] = prow;
            det = p - det;  /* in [1, p]; reduced just below */
        }
        prow = row[r];
        det = det * prow[col] % p;
        if ((inv = inverse_mod(prow[col], p)) == 0) {
            PyErr_SetString(PyExc_ValueError,
                            "base is not invertible for the given modulus");
            goto done;
        }
        if (reduced)
            for (Py_ssize_t j = col; j < count; j++)
                prow[j] = prow[j] * inv % p;
        for (i = reduced ? 0 : r + 1; i < nrows; i++) {
            u64 *x = row[i], g;
            if (i == r || x[col] == 0)
                continue;
            g = reduced ? p - x[col] : (p - x[col]) * inv % p;
            for (Py_ssize_t j = col; j < count; j++)
                x[j] = (x[j] + g * prow[j]) % p;
        }
        PyObject *c = PyLong_FromSsize_t(col);
        if (c == NULL || PyList_Append(pivots, c) < 0) {
            Py_XDECREF(c);
            goto done;
        }
        Py_DECREF(c);
        npiv++;
    }
    if ((rows = PyList_New(nrows)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < nrows; i++) {
        PyObject *r = PyList_New(count);
        if (r == NULL)
            goto done;
        PyList_SET_ITEM(rows, i, r);
        for (Py_ssize_t j = 0; j < count; j++) {
            PyObject *v = PyLong_FromUnsignedLongLong(row[i][j]);
            if (v == NULL)
                goto done;
            PyList_SET_ITEM(r, j, v);
        }
    }
    if (PyList_SetSlice(work, 0, nrows, rows) == 0)
        out = Py_BuildValue("(OK)", pivots, (unsigned long long)det);
done:
    Py_XDECREF(rows);
    Py_XDECREF(pivots);
    PyMem_Free(cells);
    PyMem_Free(row);
    return out;
}

/* ------------------------------------------------------------------------
 * module
 * ---------------------------------------------------------------------- */

static PyObject *
split_merges(PyObject *self, PyObject *unused)
{
    return PyLong_FromSsize_t(split_count);
}

static PyObject *
compacted_compares(PyObject *self, PyObject *unused)
{
    return PyDict_Copy(compacted_counts);
}

#define KERNEL(name, fn, doc) \
    {name, (PyCFunction)(void (*)(void))fn, METH_FASTCALL | METH_KEYWORDS, doc}

/* Each term kernel is bound under two names, so that the large route's
   name is a distinct object a profiler can wrap on its own. */
static PyMethodDef methods[] = {
    KERNEL("mul_terms", mul_terms,
           "mul_terms(a, b, p=0)\n--\n\nReturn the term dict of a * b."),
    KERNEL("packed_mul_terms", mul_terms,
           "packed_mul_terms(a, b, p=0)\n--\n\n"
           "mul_terms, under the span name of large products."),
    KERNEL("fma_terms", fma_terms,
           "fma_terms(acc, a, b, negate, p=0)\n--\n\n"
           "acc += a*b (or -= when negate), in place on the dict acc."),
    KERNEL("det_laplace_terms", det_laplace_terms,
           "det_laplace_terms(rows, p=0, expect=None)\n--\n\n"
           "Determinant of a square grid of term dicts; given the term dict\n"
           "expect, whether the determinant equals it, and given the pair\n"
           "expect = (a, b) of term dicts, whether it equals a*b."),
    KERNEL("packed_det_laplace", det_laplace_terms,
           "packed_det_laplace(rows, p=0, expect=None)\n--\n\n"
           "det_laplace_terms, under the span name of large determinants."),
    KERNEL("row_reduce_mod", row_reduce_mod,
           "row_reduce_mod(work, ncols, p, reduced)\n--\n\n"
           "matrix._row_reduce_mod for 2 <= p < 2**32: row-reduce the int\n"
           "rows work over GF(p) in place, pivots in the first ncols columns\n"
           "only; return the pivot columns and the pivot product, negated\n"
           "once per row swap."),
    {"split_merges", split_merges, METH_NOARGS,
     "split_merges()\n--\n\nHow many merges so far ran as two key ranges on "
     "two threads."},
    {"compacted_compares", compacted_compares, METH_NOARGS,
     "compacted_compares()\n--\n\n{(words, words unmapped): count} of the "
     "determinant\ncomparisons that ran on keys mapped onto fewer words."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_termkernels_c",
    "Compiled heap-merge term kernels; see adjkit.kernels.", -1, methods,
};

PyMODINIT_FUNC
PyInit__termkernels_c(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod == NULL)
        return NULL;
    zero_obj = PyLong_FromLong(0);
    compacted_counts = PyDict_New();
    if (zero_obj == NULL || compacted_counts == NULL
        || PyModule_AddIntConstant(mod, "SPLIT_MIN_PAIRS", SPLIT_MIN_PAIRS) < 0
        || PyModule_AddStringConstant(mod, "SOURCE_DIGEST",
                                      source_marker + strlen("adjkit-source-digest:")) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
