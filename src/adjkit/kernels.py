"""Term-arithmetic kernels: the inner loops of polynomial arithmetic.

A polynomial is carried around as a plain dict mapping an exponent vector
(a tuple of non-negative ints, one slot per ring variable) to a nonzero
coefficient.  Every kernel takes the modulus as its last parameter ``p``:
``p=0`` means characteristic zero, with int or Fraction coefficients; a
prime ``p`` means int coefficients in ``[1, p)``.  Inputs are canonical and
so are the results: no zero coefficient is ever stored.  A kernel tests
``p`` once per call, never inside its loops over term pairs.

The ``packed_*`` kernels are the path of large products and determinants.
There the exponent vector is packed into one Python int (one byte per
variable, big-endian), so that multiplying two monomials is one integer
addition.  Each packed kernel bounds the exponents of its result from its
inputs and takes the tuple path when one might exceed 255, so callers
choose them by size alone.  Their results are tuple-keyed.

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
    """acc += a*b (or -= when negate), in place on tuple-keyed dicts."""
    if not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    bitems = list(b.items())
    if p:
        for ea, ca in a.items():
            if negate:
                ca = p - ca
            for eb, cb in bitems:
                e = tuple(map(int.__add__, ea, eb))
                v = get(e)
                if v is None:
                    v = (ca * cb) % p
                    if v:
                        acc[e] = v
                else:
                    v = (v + ca * cb) % p
                    if v:
                        acc[e] = v
                    else:
                        del acc[e]
    else:
        for ea, ca in a.items():
            if negate:
                ca = -ca
            for eb, cb in bitems:
                e = tuple(map(int.__add__, ea, eb))
                v = get(e)
                if v is None:
                    acc[e] = ca * cb
                else:
                    v = v + ca * cb
                    if v:
                        acc[e] = v
                    else:
                        del acc[e]


def _packed_fma(acc, a, b, negate, p):
    """_fma on packed-int keys."""
    if not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    bitems = list(b.items())
    if p:
        for ea, ca in a.items():
            if negate:
                ca = p - ca
            for eb, cb in bitems:
                e = ea + eb
                v = get(e)
                if v is None:
                    v = (ca * cb) % p
                    if v:
                        acc[e] = v
                else:
                    v = (v + ca * cb) % p
                    if v:
                        acc[e] = v
                    else:
                        del acc[e]
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


def _pack(terms):
    return {int.from_bytes(bytes(e), "big"): c for e, c in terms.items()}


def _unpack(packed, width):
    return {tuple(k.to_bytes(width, "big")): c for k, c in packed.items()}


def _laplace(rows, one, fma, p):
    """Determinant of a square grid of term dicts keyed like ``one``.

    Subset-memoized Laplace expansion over column subsets: level k holds the
    minors on rows 0..k-1, indexed by a bitmask of k columns.  Only two
    levels are alive at once, which keeps the memory footprint at the two
    largest minor layers.
    """
    n = len(rows)
    level = {0: {one: 1}}  # empty minor = 1
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
                        fma(acc, entry, prev, (k - 1 + pos) % 2 == 1, p)
            nxt[mask] = acc
        level = nxt
    return level[(1 << n) - 1]


# ---------------------------------------------------------------------------
# public kernels
# ---------------------------------------------------------------------------

def add_terms(a, b, p=0):
    """Return the term dict of a + b."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
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


def sub_scaled_terms(rem, exps, coeff, b, p=0):
    """rem -= (coeff * x^exps) * b, in place; return the keys newly created.

    Used by the exact-division loop, which tracks fresh monomials in a heap.
    """
    new_keys = []
    get = rem.get
    if p:
        nc = p - coeff
        for eb, cb in b.items():
            e = tuple(map(int.__add__, exps, eb))
            v = get(e)
            if v is None:
                v = (nc * cb) % p
                if v:
                    rem[e] = v
                    new_keys.append(e)
            else:
                v = (v + nc * cb) % p
                if v:
                    rem[e] = v
                else:
                    del rem[e]
    else:
        for eb, cb in b.items():
            e = tuple(map(int.__add__, exps, eb))
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


def det_laplace_terms(rows, nvars, p=0):
    """Determinant of a square grid of tuple-keyed term dicts."""
    return _laplace(rows, (0,) * nvars, _fma, p)


def _max_exp(terms, width):
    """The largest exponent in a term dict; 0 with no terms or variables."""
    return max(map(max, terms), default=0) if width else 0


def packed_mul_terms(a, b, width, p=0):
    """mul_terms, computed through the packed representation when every
    exponent of the product fits in a byte."""
    out = {}
    if _max_exp(a, width) + _max_exp(b, width) > 255:
        _fma(out, a, b, False, p)
        return out
    _packed_fma(out, _pack(a), _pack(b), False, p)
    return _unpack(out, width)


def packed_det_laplace(rows, width, p=0):
    """det_laplace_terms, computed through the packed representation when
    every exponent of the determinant fits in a byte.

    An exponent of a term of the determinant is at most the sum over the
    rows of the largest exponent in each row.
    """
    if sum(max((_max_exp(e, width) for e in row), default=0)
           for row in rows) > 255:
        return _laplace(rows, (0,) * width, _fma, p)
    packed = [[_pack(e) for e in row] for row in rows]
    return _unpack(_laplace(packed, 0, _packed_fma, p), width)


# perfbench/layers.py wraps every kernel by name, these old mod-p names too.
add_terms_mod = add_terms
neg_terms_mod = neg_terms
scale_terms_mod = scale_terms
mul_terms_mod = mul_terms
fma_terms_mod = fma_terms
sub_scaled_terms_mod = sub_scaled_terms
det_laplace_terms_mod = det_laplace_terms
