"""Independent GF(p) oracle for the benchmark's exact checks.

Nothing here calls adjkit.  Determinants, adjugates and minors over GF(p)
come from plain Gaussian elimination, and polynomials are evaluated either
from their canonical strings or from raw term maps.  Evaluation at a point
is a ring homomorphism, so a correct symbolic result maps exactly to the
value computed here, while a wrong one matches at a random point with
probability at most deg/p.
"""

from __future__ import annotations

import re
from itertools import combinations

P = 2**31 - 1

_TERM_RE = re.compile(r"([+-]?)([^+-]+)")


def generic_point(n: int, rng, p: int = P) -> dict:
    """Random values for the variables x_i_j (1-based) and t."""
    point = {f"x_{i}_{j}": rng.randrange(1, p)
             for i in range(1, n + 1) for j in range(1, n + 1)}
    point["t"] = rng.randrange(1, p)
    return point


def point_matrix(n: int, point: dict) -> list[list[int]]:
    return [[point[f"x_{i}_{j}"] for j in range(1, n + 1)]
            for i in range(1, n + 1)]


def eval_str(s, point: dict, p: int = P) -> int:
    """Value mod p of a canonical polynomial string (or int) at a point."""
    if isinstance(s, int):
        return s % p
    compact = "".join(s.split())
    if compact in ("0", "+0", "-0"):
        return 0
    total = 0
    pos = 0
    for m in _TERM_RE.finditer(compact):
        if m.start() != pos:
            raise ValueError(f"cannot evaluate {s!r}")
        pos = m.end()
        value = p - 1 if m.group(1) == "-" else 1
        for factor in m.group(2).split("*"):
            if factor[0].isdigit():
                num, _, den = factor.partition("/")
                value = value * int(num) % p
                if den:
                    value = value * pow(int(den), p - 2, p) % p
            else:
                name, _, exp = factor.partition("^")
                value = value * pow(point[name], int(exp or 1), p) % p
        total += value
    if pos != len(compact):
        raise ValueError(f"cannot evaluate {s!r}")
    return total % p


def eval_terms(terms: dict, values: list[int], p: int = P) -> int:
    """Value mod p of a term map {exponent tuple: coefficient}."""
    total = 0
    for exps, c in terms.items():
        v = c % p
        for x, e in zip(values, exps):
            if e:
                v = v * pow(x, e, p) % p
        total += v
    return total % p


def det_mod(rows: list[list[int]], p: int = P) -> int:
    n = len(rows)
    if n == 0:
        return 1
    m = [[v % p for v in row] for row in rows]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = m[r][col] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[col])]
    return det % p


def submatrix(rows, keep_r, keep_c):
    return [[rows[i][j] for j in keep_c] for i in keep_r]


def adj_mod(rows: list[list[int]], p: int = P) -> list[list[int]]:
    """Transposed cofactor matrix mod p."""
    n = len(rows)
    if n == 1:
        return [[1]]
    idx = range(n)
    out = [[0] * n for _ in idx]
    for i in idx:
        for j in idx:
            minor = det_mod(submatrix(rows, [r for r in idx if r != j],
                                      [c for c in idx if c != i]), p)
            out[i][j] = (-minor if (i + j) % 2 else minor) % p
    return out


def compound_mod(rows: list[list[int]], m: int, p: int = P) -> list[list[int]]:
    subs = list(combinations(range(len(rows)), m))
    return [[det_mod(submatrix(rows, s, t), p) for t in subs] for s in subs]


def matmul_mod(a, b, p: int = P):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]
