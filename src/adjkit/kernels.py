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

Every kernel has a pure-Python body here.  The products, the fused
multiply-add and the Laplace determinant (``mul_terms``, ``fma_terms``,
``det_laplace_terms``, their ``packed_*`` twins and ``*_mod`` aliases) also
have a compiled body in ``_termkernels_c.c``, which merges term pairs in
descending key order with a heap on native multiword keys; it relies on the
two key properties above and no other.  The first import builds it from
source when needed (see ``_cbuild``) and binds those names to it.  A call
the compiled body cannot do exactly (Fraction coefficients, an int64
overflow, a key too wide, a modulus of 2^32 or more) runs in the
pure-Python body.

Given a term dict ``expect``, the Laplace determinant returns whether the
determinant equals it instead of the determinant itself.  The compiled body
then stores nothing of the determinant: the merge of its last level
produces the terms in descending key order, each is compared with the next
term of ``expect`` as it comes, and the call returns False at the first that
differs.  ``expect`` may also be the pair ``(a, b)`` of term dicts, and the
determinant is then compared with a*b.  The compiled body merges a*b into a
native array before the expansion, so no term of the product becomes a
Python object.  The pure-Python body, which every fallback runs, never holds
the determinant either: it starts its accumulator at -expect (or -a*b), adds
the last Laplace level into it and tests that nothing is left.

Since a comparison with a pair returns no key, the compiled body may
rename its keys.  It derives from the keys of the grid, a and b a map phi
onto fewer words and runs every level, the product a*b and the comparison
on the images, using only the two key properties above.  Each maximal run
of set bits in the OR of those keys starts a block.  B_b bounds every sum
of block-b values v_b the call forms: the sum over grid rows of the row's
largest, and the largest of a plus the largest of b.  A block whose sums
could carry into the next one is merged with it, so the blocks of a sum of
keys are the sums of their blocks, and phi(k) is the mixed-radix number
with digits v_b(k) and radices B_b + 1.  phi is then additive, injective
and order-preserving on every key the call forms.  It serves only when its
values take fewer 64-bit words than the keys need unmapped, which at n = 5
turns the 4-word keys of det(adj X) = det(X)^3 * det(X) into 1-word keys.
Products, fma, determinants returned as dicts and comparisons with one
dict keep their keys.  ``compacted_compares()`` counts the comparisons
that ran on mapped keys, by their word count and the one the keys need
unmapped: ``{(1, 4): 1}`` after that check.

A compiled merge of at least ``SPLIT_MIN_PAIRS`` (2^20) term pairs into a
native array (a minor of a Laplace level, or the product of a pair
``expect``) or into a comparison runs on two threads: cut at a pivot key
with about half the pairs at or above it, the calling thread merges the
keys at or above it and a helper thread those below, whose terms join
the array after the caller's (a compared determinant cuts ``expect`` at
the pivot too).  The helper calls no Python API, so a merge whose result
is a dict (a product, an fma, or a determinant returned as a dict) runs
on the calling thread alone at any size.  So does a merge whose helper
thread cannot start, and every smaller merge.  ``split_merges()`` counts
the merges that ran on two threads.  Results are the same either way:
only the time differs.

``row_reduce_mod`` is the compiled body of ``matrix._row_reduce_mod``,
the GF(p) row reduction, for 2 <= p < 2^32, and None on the pure-Python
kernels; ``matrix._row_reduce`` runs the packed body in ``matrix.py``
whenever it is None or p is 2^32 or more.

``IMPL`` is ``"c"`` or ``"py"``; ``IMPL_NOTE`` is empty
with ``"c"`` and says why the compiled kernels were refused with ``"py"``:
``ADJKIT_PURE`` set, a read-only tree, no compiler, a build error or an
import error.  The private ``_fma``, ``_laplace`` and ``_det_laplace`` stay
pure Python: they are the fallback and the tests' reference.
"""

from __future__ import annotations

from itertools import combinations

from . import _cbuild


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


def _laplace(rows, p, acc=None):
    """Determinant of a square grid of term dicts; given the dict ``acc``,
    acc += det in place, and acc is returned.

    Subset-memoized Laplace expansion over column subsets: level k holds the
    minors on rows 0..k-1, indexed by a bitmask of k columns.  Only two
    levels are alive at once, which keeps the memory footprint at the two
    largest minor layers.  The last level's one minor is acc itself.
    """
    n = len(rows)
    if acc is None:
        acc = {}
    if n == 0:
        _fma(acc, {0: 1}, {0: 1}, False, p)
        return acc
    level = {0: {0: 1}}  # empty minor = 1, at the key of the monomial 1
    cols = list(range(n))
    for k in range(1, n + 1):
        row_entries = rows[k - 1]
        # the last level reads each minor once: drop it as it is read
        read = level.pop if k == n else level.__getitem__
        nxt = {}
        for subset in combinations(cols, k):
            out = acc if k == n else {}
            mask = 0
            for j in subset:
                mask |= 1 << j
            # expand along row k-1: entry at submatrix position (k-1, pos)
            # carries the cofactor sign (-1)^(k-1+pos)
            for pos in range(k):
                j = subset[pos]
                entry = row_entries[j]
                if entry:
                    prev = read(mask & ~(1 << j))
                    if prev:
                        _fma(out, entry, prev, (k - 1 + pos) % 2 == 1, p)
            nxt[mask] = out
        level = nxt
    return acc


def _det_laplace(rows, p, expect):
    """The determinant of rows; given ``expect``, whether it equals the
    term dict expect or the product of the pair expect = (a, b).

    A comparison never holds the determinant: the accumulator starts at
    -expect (after the canonical test the compiled body makes: every
    coefficient nonzero, and in [1, p) over GF(p)) or at -a*b, the last
    Laplace level adds the determinant into it, and the two are equal
    when nothing is left."""
    if expect is None:
        return _laplace(rows, p)
    if isinstance(expect, tuple):
        a, b = expect
        acc = {}
        _fma(acc, a, b, True, p)
    elif isinstance(expect, dict):
        if not all(c and (not p or 0 < c < p) for c in expect.values()):
            return False
        acc = {e: p - c if p else -c for e, c in expect.items()}
    else:
        return _laplace(rows, p) == expect
    return not _laplace(rows, p, acc)


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


def det_laplace_terms(rows, p=0, expect=None):
    """Determinant of a square grid of term dicts; given the term dict
    ``expect``, whether the determinant equals it, and given the pair
    ``expect = (a, b)`` of term dicts, whether it equals a*b."""
    return _det_laplace(rows, p, expect)


# The callers route large products and determinants to these two names and
# small ones to mul_terms and det_laplace_terms.  The bodies are the same;
# the names remain only as traced span names of the large route.

def packed_mul_terms(a, b, p=0):
    """mul_terms, under the span name of large products."""
    out = {}
    _fma(out, a, b, False, p)
    return out


def packed_det_laplace(rows, p=0, expect=None):
    """det_laplace_terms, under the span name of large determinants."""
    return _det_laplace(rows, p, expect)


_compiled, IMPL_NOTE = _cbuild.load()
IMPL = "py" if _compiled is None else "c"
# The pair count from which a compiled merge runs on two threads; None
# on the pure-Python kernels, which never split.
SPLIT_MIN_PAIRS = None if _compiled is None else _compiled.SPLIT_MIN_PAIRS


# The compiled GF(p) row reduction; matrix._row_reduce_mod serves without it.
row_reduce_mod = None if _compiled is None else _compiled.row_reduce_mod


def split_merges() -> int:
    """How many merges so far ran as two key ranges on two threads."""
    return 0 if _compiled is None else _compiled.split_merges()


def compacted_compares() -> dict:
    """{(words, words of the keys given): count} of the determinant
    comparisons that ran on keys mapped onto fewer words; a copy."""
    return {} if _compiled is None else _compiled.compacted_compares()


if _compiled is not None:
    mul_terms = _compiled.mul_terms
    packed_mul_terms = _compiled.packed_mul_terms
    fma_terms = _compiled.fma_terms
    det_laplace_terms = _compiled.det_laplace_terms
    packed_det_laplace = _compiled.packed_det_laplace

# perfbench/layers.py wraps every kernel by name, these old mod-p names too.
add_terms_mod = add_terms
neg_terms_mod = neg_terms
scale_terms_mod = scale_terms
mul_terms_mod = mul_terms
fma_terms_mod = fma_terms
sub_scaled_terms_mod = sub_scaled_terms
det_laplace_terms_mod = det_laplace_terms
