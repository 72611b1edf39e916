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
 * differs: the determinant itself is never stored.
 *
 * Coefficients: over ZZ (p = 0) int64 inputs with an __int128 accumulator;
 * over GF(p) with p < 2^32, residues whose products fit in 64 bits.  A call
 * this file cannot do exactly (a coefficient that is not an int64, a
 * Fraction, an accumulator that could overflow, a key wider than MAX_WORDS,
 * a modulus of 2^32 or more) runs in the pure-Python kernels of
 * adjkit.kernels instead; a product decides that before it changes the
 * accumulator dict.  A failed allocation raises MemoryError.
 *
 * The build (adjkit/_cbuild.py) defines ADJKIT_SOURCE_DIGEST, the digest
 * of this file, and the loader rebuilds when it changes.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

typedef uint64_t u64;
typedef __int128 i128;
typedef unsigned __int128 u128;

static PyObject *zero_obj;  /* the int 0, the default p */

/* status of an internal step: done, Python error set, run in Python, or
   (a comparison) a term differs */
enum { OK = 0, FAIL = -1, FALLBACK = 1, DIFFER = 2 };

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
    const Terms *expect;    /* SINK_CMP: the terms the merge must produce */
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
        if (grown == NULL) {
            PyErr_NoMemory();
            return FAIL;
        }
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
    if (s->seen == s->expect->n)
        return DIFFER;
    r = s->expect->rec + (size_t)s->seen++ * (w + 1);
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
   cursors of one key behind the one in the heap (-1 ends the chain). */
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
        PyErr_NoMemory();
        return FAIL;
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
   coefficient mode.  The heap holds one cursor per started row of each
   product, some of them chained behind another of the same key; row i + 1
   starts when row i's first pair leaves the heap.  Every pair not yet in
   the heap has a key strictly below one that is, so the heap's top is the
   largest pair left, and the pairs of one key leave it one after another;
   a key's sum is final when a smaller key comes up.  Of the chain at the
   top, the first cursor that moves on replaces the top in one sift and the
   others are pushed. */
static inline __attribute__((always_inline)) int
merge_impl(const Stream *st, int nst, Scratch *sc, Sink *sink, const int W,
           const int MODP)
{
    const int stride = W + 1;
    const u64 p = sink->mode->p;
    Cursor *cur = sc->cur;
    Py_ssize_t *heap = sc->heap, hn = 0, ncur = 0;
    u64 *keys = sc->keys, top[MAX_WORDS];
    unsigned long rounds = 0;
    i128 acc = 0;
    u128 uacc = 0;
    int open = 0;

    for (int t = 0; t < nst; t++) {
        const Terms *r = st[t].r, *s = st[t].s;
        Cursor *c = &cur[ncur];
        if (!r->n || !s->n)
            continue;
        c->r = r->rec;
        c->rend = r->rec + (size_t)r->n * stride;
        c->s = c->sbeg = s->rec;
        c->send = s->rec + (size_t)s->n * stride;
        c->neg = st[t].neg;
        c->next = -1;
        key_add(KEY(ncur), c->r, c->s, W);
        hn = sift(heap, hn + 1, hn, ncur++, cur, keys, W);
    }
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
                if ((++rounds & SIGNAL_EVERY) == 0 && PyErr_CheckSignals() < 0)
                    return FAIL;
            }
            memcpy(top, KEY(ci), W * sizeof(u64));
            acc = 0;
            uacc = 0;
            open = 1;
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
        if (acc != 0)
            return emit(sink, top, acc);
    }
    return OK;
}

#define MERGE_AT(w)                                                     \
    (mode->p ? merge_impl(st, nst, sc, sink, (w), 1)                    \
             : merge_impl(st, nst, sc, sink, (w), 0))

/* Send sum over t of +-R_t*S_t to the sink, in descending key order. */
static int
merge(const Stream *st, int nst, Scratch *sc, Sink *sink)
{
    const Mode *mode = sink->mode;
    Py_ssize_t rows = 0;
    for (int t = 0; t < nst; t++)
        if (st[t].s->n)
            rows += st[t].r->n;
    if (scratch_reserve(sc, rows, mode->w) != OK)
        return FAIL;
    switch (mode->w) {
    case 1: return MERGE_AT(1);
    case 2: return MERGE_AT(2);
    case 3: return MERGE_AT(3);
    case 4: return MERGE_AT(4);
    default: return MERGE_AT(mode->w);
    }
}

/* ------------------------------------------------------------------------
 * the pure-Python kernels, for the calls this file does not take
 * ---------------------------------------------------------------------- */

/* adjkit.kernels._fma and _laplace, looked up on the first call that
   needs them */
static PyObject *py_fma, *py_laplace;

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

/* acc += (-1)^negate * a * b into the sink; FALLBACK leaves the sink's
   dict untouched. */
static int
product(PyObject *a, PyObject *b, int negate, Mode *m, Sink *sink)
{
    size_t bits = 0;
    Terms ta = {0, NULL}, tb = {0, NULL};
    Scratch sc = {0};
    Stream st;
    int rc;

    if ((rc = scan_keys(a, &bits)) != OK || (rc = scan_keys(b, &bits)) != OK)
        return rc;
    if ((m->w = words_for(bits + 1)) == 0)
        return FALLBACK;
    if ((rc = terms_from_dict(a, m, &ta, NULL)) != OK
        || (rc = terms_from_dict(b, m, &tb, NULL)) != OK)
        goto done;
    /* every partial sum is at most |a|_1 * |b|_1 in absolute value */
    if (!m->p && log2_ceil_norm(&ta, m->w) + log2_ceil_norm(&tb, m->w) > 126) {
        rc = FALLBACK;
        goto done;
    }
    st.r = ta.n <= tb.n ? &ta : &tb;
    st.s = ta.n <= tb.n ? &tb : &ta;
    st.neg = negate;
    rc = merge(&st, 1, &sc, sink);
done:
    scratch_free(&sc);
    PyMem_RawFree(ta.rec);
    PyMem_RawFree(tb.rec);
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

/* Subset-memoized Laplace expansion along rows 0..n-1, as in
   kernels._laplace: level k holds the minors on rows 0..k-1, one per
   k-subset of columns, as sorted arrays.  The last level's one minor goes
   straight into the dict out or, when expect is a dict, is compared with
   it term by term as it is produced: DIFFER at the first term that
   differs, and nothing of the determinant is ever stored. */
static int
laplace(PyObject **grid, int n, Mode *m, PyObject *out, PyObject *expect)
{
    static Py_ssize_t binom[MAX_LAPLACE_N + 1][MAX_LAPLACE_N + 1];
    size_t bits = 0;
    Terms *entries, *prev = NULL, *level = NULL, one = {1, NULL};
    Terms want = {0, NULL};
    Py_ssize_t nprev = 0, count = 0;
    Scratch sc = {0};
    Stream st[MAX_LAPLACE_N];
    int rc = OK, nbits = 0, canonical = 1;

    for (int i = 0; i < n * n; i++)
        if ((rc = scan_keys(grid[i], &bits)) != OK)
            return rc;
    if (expect != NULL && (rc = scan_keys(expect, &bits)) != OK)
        return rc;
    for (int v = n; v; v >>= 1)
        nbits++;
    /* a minor on k rows is a sum of products of k entries */
    if ((m->w = words_for(bits + nbits)) == 0)
        return FALLBACK;
    if (expect != NULL) {
        if ((rc = terms_from_dict(expect, m, &want, &canonical)) != OK)
            return rc;
        if (!canonical) {       /* the determinant's terms are canonical */
            PyMem_RawFree(want.rec);
            return DIFFER;
        }
    }
    if (binom[0][0] == 0)
        for (int a = 0; a <= MAX_LAPLACE_N; a++)
            for (int b = 0; b <= a; b++)
                binom[a][b] = b == 0 || b == a ? 1
                              : binom[a - 1][b - 1] + binom[a - 1][b];
    entries = PyMem_RawCalloc((size_t)n * n, sizeof(Terms));
    one.rec = PyMem_RawCalloc((size_t)m->w + 1, sizeof(u64));
    if (entries == NULL || one.rec == NULL) {
        PyErr_NoMemory();
        rc = FAIL;
        goto done;
    }
    one.rec[m->w] = 1;          /* the empty minor: 1 at the key 0 */
    for (int i = 0; i < n * n; i++)
        if ((rc = terms_from_dict(grid[i], m, &entries[i], NULL)) != OK)
            goto done;
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
            Sink sink = {k < n ? SINK_ARRAY : expect ? SINK_CMP : SINK_FMA, m};
            int pos = 0, nst = 0;
            sink.dict = out;
            sink.expect = &want;
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
            rc = merge(st, nst, &sc, &sink);
            if (rc == OK && sink.kind == SINK_CMP && sink.seen < want.n)
                rc = DIFFER;    /* expect has terms beyond the last */
            if (sink.kind == SINK_ARRAY) {
                if (rc == OK && sink.out.n < sink.cap && sink.out.n) {
                    u64 *fit = PyMem_RawRealloc(sink.out.rec, (size_t)sink.out.n
                                                * (m->w + 1) * sizeof(u64));
                    if (fit != NULL)
                        sink.out.rec = fit;
                }
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
    if (prev != &one)
        level_free(prev, nprev);
    level_free(level, count);
    if (entries != NULL)
        for (int i = 0; i < n * n; i++)
            PyMem_RawFree(entries[i].rec);
    PyMem_RawFree(entries);
    PyMem_RawFree(one.rec);
    PyMem_RawFree(want.rec);
    scratch_free(&sc);
    return rc;
}

/* det(rows), or with expect, det(rows) == expect: the only fallback is
   kernels._laplace, then == */
static PyObject *
det_laplace_terms(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
                  PyObject *kwnames)
{
    static const char *const names[] = {"p", "expect"};
    PyObject *opt[2], *p, *expect, *rows, *out = NULL, **grid = NULL, *fn;
    Mode m = {0};
    Py_ssize_t n = 0, got = 0;
    int rc;

    if (parse_args(args, nargs, kwnames, 1, "det_laplace_terms", names, 2,
                   opt) < 0)
        return NULL;
    p = opt[0] ? opt[0] : zero_obj;
    expect = opt[1] == Py_None ? NULL : opt[1];
    rows = args[0];
    if ((rc = mode_from(p, &m)) == FAIL)
        return NULL;
    if (rc == FALLBACK || !PyList_Check(rows)
        || (expect != NULL && !PyDict_Check(expect)))
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
    if (expect == NULL && (out = PyDict_New()) == NULL)
        goto done;
    rc = laplace(grid, (int)n, &m, out, expect);
    if (rc == OK || rc == DIFFER) {
        if (expect != NULL)
            out = PyBool_FromLong(rc == OK);
        goto done;
    }
    Py_CLEAR(out);
    if (rc == FAIL)
        goto done;
python:
    Py_CLEAR(out);
    if ((fn = python_kernel(&py_laplace, "_laplace")) != NULL
        && (out = PyObject_CallFunctionObjArgs(fn, rows, p, NULL)) != NULL
        && expect != NULL)
        Py_SETREF(out, PyObject_RichCompare(out, expect, Py_EQ));
done:
    PyMem_RawFree(grid);
    return out;
}

/* ------------------------------------------------------------------------
 * module
 * ---------------------------------------------------------------------- */

#define KERNEL(name, fn, doc) \
    {name, (PyCFunction)(void (*)(void))fn, METH_FASTCALL | METH_KEYWORDS, doc}

/* Each kernel is bound under two names, so that the large route's name is
   a distinct object a profiler can wrap on its own. */
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
           "expect, whether the determinant equals it."),
    KERNEL("packed_det_laplace", det_laplace_terms,
           "packed_det_laplace(rows, p=0, expect=None)\n--\n\n"
           "det_laplace_terms, under the span name of large determinants."),
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
    if (zero_obj == NULL
        || PyModule_AddStringConstant(mod, "SOURCE_DIGEST",
                                      source_marker + strlen("adjkit-source-digest:")) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
