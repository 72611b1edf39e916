"""Kernels: the inner loops of polynomial arithmetic on term dicts, and of
GF(p) matrix arithmetic on int rows.

A polynomial is carried around as a plain dict mapping a monomial key to a
nonzero coefficient.  The kernels know nothing of the key layout (that is
defined in ``polyring``): the key of a product of two monomials is the sum
of their keys, and the caller guarantees that every sum it asks for is the
key of a monomial.  Every term kernel takes the modulus as its parameter
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

Two GF(p) kernels work on matrices given as lists of int rows:
``row_reduce_mod``, the row reduction, and ``matmul_mod``, the product.
Their pure-Python bodies pack each row into one int (``_pack``,
``_unpack``).  The row reduction also has a compiled body, for
2 <= p < 2^32, which hands every other call, the malformed ones too, to
the pure-Python ``_row_reduce_mod``, as the term kernels hand theirs to
``_fma`` and ``_det_laplace``; so a malformed call raises the same error
on both builds.

``IMPL`` is ``"c"`` or ``"py"``; ``IMPL_NOTE`` is empty
with ``"c"`` and says why the compiled kernels were refused with ``"py"``:
``ADJKIT_PURE`` set, a read-only tree, no compiler, a build error or an
import error.  The private ``_fma``, ``_laplace``, ``_det_laplace`` and
``_row_reduce_mod`` stay pure Python: they are the fallback and the tests'
reference.
"""

from __future__ import annotations

import operator
from itertools import chain, combinations

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
    term dict expect or the product of the pair expect = (a, b).  Any
    other ``expect`` raises TypeError.

    A comparison never holds the determinant: the accumulator starts at
    -expect (after the canonical test the compiled body makes: every
    coefficient nonzero, and in [1, p) over GF(p)) or at -a*b, the last
    Laplace level adds the determinant into it, and the two are equal
    when nothing is left."""
    if expect is None:
        return _laplace(rows, p)
    if isinstance(expect, dict):
        if not all(c and (not p or 0 < c < p) for c in expect.values()):
            return False
        acc = {e: p - c if p else -c for e, c in expect.items()}
    elif (isinstance(expect, tuple) and len(expect) == 2
          and all(isinstance(f, dict) for f in expect)):
        acc = {}
        _fma(acc, *expect, True, p)
    else:
        raise TypeError("expect must be None, a term dict or a pair of "
                        f"term dicts, not {type(expect).__name__}")
    return not _laplace(rows, p, acc)


def _pack(row, width, p):
    """The residues mod p of ``row`` as one int, a packed row: entry j is
    the little-endian slot of ``width`` bytes at bit 8 * width * j.  Slots
    are nonnegative, so packed rows add and scale slot by slot for as long
    as no slot reaches 256**width."""
    return int.from_bytes(b"".join([(v % p).to_bytes(width, "little")
                                    for v in row]), "little")


def _unpack(x, width, count, p):
    """The ``count`` slots of the packed row ``x``, each reduced into
    [0, p): the inverse of ``_pack``."""
    b = x.to_bytes(width * count, "little")
    return [int.from_bytes(b[i:i + width], "little") % p
            for i in range(0, width * count, width)]


def _row_reduce_mod(work, ncols, p, reduced):
    """Row-reduce the int rows ``work`` over GF(p); see ``row_reduce_mod``.

    Each row is packed into one int (``_pack``), with this slot invariant:
    every slot holds a nonnegative representative of its entry, at most
    (p-1) + u*(p-1)**2 with u = min(rows, ncols), and slots are as wide as
    that bound needs.  A slot starts in [0, p).  A row update adds
    f * (pivot row) with f in [0, p) and the pivot row reduced into
    [0, p), so at most (p-1)**2 per slot, and a row takes at most one
    update per pivot.  So an update is one multiply-add of ints, and a slot
    is reduced mod p only when its pivot column is inspected and when its
    row becomes the pivot row.  With ``reduced`` each row is unpacked once,
    at the end; without it no row is unpacked.
    """
    if not isinstance(work, list) or not isinstance(p, int):
        raise TypeError("row_reduce_mod: work must be a list and p an int")
    if p < 2:
        raise ValueError(f"row_reduce_mod: p must be at least 2, not {p}")
    count = len(work[0]) if work else 0
    if any(len(row) != count for row in work):
        raise ValueError("row_reduce_mod: rows of different lengths")
    if not all(issubclass(t, int) for t in set(map(type, chain(*work)))):
        raise TypeError("row_reduce_mod: entries must be ints")
    nrows = len(work)
    width = ((p - 1) * (1 + min(nrows, ncols) * (p - 1))).bit_length() // 8 + 1
    rows = [_pack(row, width, p) for row in work]
    shift = 8 * width
    mask = (1 << shift) - 1
    pivots = []
    det = 1
    for col in range(ncols):
        r = len(pivots)
        s = shift * col
        for i in range(r, nrows):
            if (rows[i] >> s & mask) % p:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            det = -det
        # left of col the pivot row is 0 mod p: only the rest is reduced
        prow = _unpack(rows[r] >> s, width, count - col, p)
        pval = prow[0]
        det = det * pval % p
        inv = pow(pval, -1, p)
        if reduced:
            prow = [v * inv for v in prow]
        rows[r] = packed = _pack(prow, width, p) << s
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            f = (rows[i] >> s & mask) % p
            if f:
                rows[i] += (p - f if reduced else (p - f) * inv % p) * packed
        pivots.append(col)
    if reduced:
        work[:] = [_unpack(x, width, count, p) for x in rows]
    return pivots, det


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


def row_reduce_mod(work, ncols, p, reduced):
    """Row-reduce the int rows ``work`` over GF(p), pivots searched in the
    first ``ncols`` columns only; return the pivot columns and the pivot
    product, negated once per row swap.  Entries may be any int
    representative.  With ``reduced`` the rows become the reduced row
    echelon form, as lists of residues in [0, p); without it they are left
    as given.  Ragged rows and p < 2 raise ValueError, and a ``work`` that
    is not a list, a modulus or an entry that is not an int TypeError."""
    return _row_reduce_mod(work, ncols, p, reduced)


def matmul_mod(a_rows, b_rows, p):
    """The product of the int matrices with rows ``a_rows`` and ``b_rows``
    over GF(p), as rows of residues in [0, p).  b_rows is not empty.

    Row i of the product is sum_l a_il * (row l of b), on packed rows whose
    slots take k = len(b_rows) products below p**2 each."""
    width = (len(b_rows) * (p - 1) ** 2).bit_length() // 8 + 1
    count = len(b_rows[0])
    packed = [_pack(row, width, p) for row in b_rows]
    return [_unpack(sum(map(operator.mul, [a % p for a in row], packed)),
                    width, count, p) for row in a_rows]


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
    row_reduce_mod = _compiled.row_reduce_mod

# perfbench/layers.py wraps every kernel by name, these old mod-p names too.
add_terms_mod = add_terms
neg_terms_mod = neg_terms
scale_terms_mod = scale_terms
mul_terms_mod = mul_terms
fma_terms_mod = fma_terms
sub_scaled_terms_mod = sub_scaled_terms
det_laplace_terms_mod = det_laplace_terms
