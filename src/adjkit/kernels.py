"""Term-arithmetic kernels: the inner loops of polynomial arithmetic.

A polynomial is carried around as a plain dict mapping a monomial key to a
nonzero coefficient.  The kernels know nothing of the key layout (that is
defined in ``polyring``): the key of a product of two monomials is the sum
of their keys, and the caller guarantees that every sum it asks for is the
key of a monomial.  Every kernel takes the modulus as its last parameter
``p``: ``p=0`` means characteristic zero, with int or Fraction
coefficients; a prime ``p`` means int coefficients in ``[1, p)``.  Inputs
are canonical and so are the results: no zero coefficient is ever stored.
A kernel tests ``p`` once per call, never inside its loops over term pairs.

The kernels are pure Python; ``IMPL`` names the implementation.
"""

from __future__ import annotations

from itertools import combinations

IMPL = "py"


# The public kernels are the names a profiler may wrap.  Kernels call each
# other only through the private helpers, so each public call is one unit
# of work from the polynomial or matrix layer.

def _reduce(terms, p):
    """terms with coefficients reduced mod p; p=0 returns terms itself."""
    if not p:
        return terms
    return {e: r for e, c in terms.items() if (r := c % p)}


def _fma(acc, a, b, negate, p):
    """acc += a*b (or -= when negate), in place."""
    if not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    bitems = list(b.items())
    if p:
        pop = acc.pop
        for ea, ca in a.items():
            if negate:
                ca = p - ca
            for eb, cb in bitems:
                e = ea + eb
                v = (get(e, 0) + ca * cb) % p
                if v:
                    acc[e] = v
                else:
                    pop(e, None)
    else:
        for ea, ca in a.items():
            if negate:
                ca = -ca
            for eb, cb in bitems:
                e = ea + eb
                v = get(e)
                if v is None:
                    acc[e] = ca * cb
                else:
                    v = v + ca * cb
                    if v:
                        acc[e] = v
                    else:
                        del acc[e]


def _laplace(rows, p):
    """Determinant of a square grid of term dicts.

    Subset-memoized Laplace expansion over column subsets: level k holds the
    minors on rows 0..k-1, indexed by a bitmask of k columns.  Only two
    levels are alive at once, which keeps the memory footprint at the two
    largest minor layers.
    """
    n = len(rows)
    level = {0: {0: 1}}  # empty minor = 1, at the key of the monomial 1
    cols = list(range(n))
    for k in range(1, n + 1):
        row_entries = rows[k - 1]
        nxt = {}
        for subset in combinations(cols, k):
            acc = {}
            mask = 0
            for j in subset:
                mask |= 1 << j
            # expand along row k-1: entry at submatrix position (k-1, pos)
            # carries the cofactor sign (-1)^(k-1+pos)
            for pos in range(k):
                j = subset[pos]
                entry = row_entries[j]
                if entry:
                    prev = level[mask & ~(1 << j)]
                    if prev:
                        _fma(acc, entry, prev, (k - 1 + pos) % 2 == 1, p)
            nxt[mask] = acc
        level = nxt
    return level[(1 << n) - 1]


# ---------------------------------------------------------------------------
# public kernels
# ---------------------------------------------------------------------------

def add_terms(a, b, p=0):
    """Return the term dict of a + b."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        v = get(e)
        if v is None:
            out[e] = c
        else:
            v = v + c
            if v:
                out[e] = v
            else:
                del out[e]
    # residues in [1, p) sum to at most 2p - 2: reduce once at the end
    return _reduce(out, p)


def neg_terms(a, p=0):
    return _reduce({e: -c for e, c in a.items()}, p)


def scale_terms(a, c, p=0):
    """Multiply every coefficient by the nonzero scalar c."""
    return _reduce({e: c * v for e, v in a.items()}, p)


def mul_terms(a, b, p=0):
    """Return the term dict of a * b."""
    out = {}
    _fma(out, a, b, False, p)
    return out


def fma_terms(acc, a, b, negate, p=0):
    """acc += a*b (or -= when negate), in place on the dict acc."""
    _fma(acc, a, b, negate, p)


def sub_scaled_terms(rem, key, coeff, b, p=0):
    """rem -= (coeff * monomial key) * b, in place; return the keys newly
    created.

    Used by the exact-division loop, which tracks fresh monomials in a heap.
    """
    new_keys = []
    get = rem.get
    if p:
        nc = p - coeff
        for eb, cb in b.items():
            e = key + eb
            v = get(e)
            if v is None:  # a product of nonzero residues is nonzero
                rem[e] = (nc * cb) % p
                new_keys.append(e)
            else:
                v = (v + nc * cb) % p
                if v:
                    rem[e] = v
                else:
                    del rem[e]
    else:
        for eb, cb in b.items():
            e = key + eb
            v = get(e)
            if v is None:
                rem[e] = -coeff * cb
                new_keys.append(e)
            else:
                v = v - coeff * cb
                if v:
                    rem[e] = v
                else:
                    del rem[e]
    return new_keys


def det_laplace_terms(rows, p=0):
    """Determinant of a square grid of term dicts."""
    return _laplace(rows, p)


# The callers route large products and determinants to these two names and
# small ones to mul_terms and det_laplace_terms.  The bodies are the same;
# the names remain only as traced span names of the large route.

def packed_mul_terms(a, b, p=0):
    """mul_terms, under the span name of large products."""
    out = {}
    _fma(out, a, b, False, p)
    return out


def packed_det_laplace(rows, p=0):
    """det_laplace_terms, under the span name of large determinants."""
    return _laplace(rows, p)


# perfbench/layers.py wraps every kernel by name, these old mod-p names too.
add_terms_mod = add_terms
neg_terms_mod = neg_terms
scale_terms_mod = scale_terms
mul_terms_mod = mul_terms
fma_terms_mod = fma_terms
sub_scaled_terms_mod = sub_scaled_terms
det_laplace_terms_mod = det_laplace_terms
