"""Exact linear algebra for small rational matrices.

Rank is computed by fraction-free (Bareiss) elimination after clearing
denominators; kernels of the symmetric 3x3 matrices that show up in fiber
diagnosis come from the adjugate, using A*adj(A) = det(A)*I.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(rows):
    """Scale the whole matrix by one positive integer so entries are int.

    A single global scale keeps symmetric matrices symmetric and changes
    neither rank nor kernel.
    """
    denoms = [
        c.denominator
        for row in rows
        for c in row
        if isinstance(c, Fraction) and c.denominator != 1
    ]
    scale = lcm(*denoms) if denoms else 1
    out = []
    for row in rows:
        out.append([int(c * scale) if isinstance(c, Fraction) else c * scale for c in row])
    return out


def bareiss_rank(rows) -> int:
    """Rank of an integer (or rational) matrix, fraction-free elimination."""
    if not rows:
        return 0
    a = [list(r) for r in clear_denominators(rows)]
    nr, nc = len(a), len(a[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                num = a[r][c] * a[i][j] - a[i][c] * a[r][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise AssertionError("Bareiss divisibility broken")
                a[i][j] = q
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
    return rank


def det3(a) -> int:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def adjugate3(a):
    def cof(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        minor = a[r[0]][c[0]] * a[r[1]][c[1]] - a[r[0]][c[1]] * a[r[1]][c[0]]
        return -minor if (i + j) % 2 else minor

    # adj[i][j] is the (j, i) cofactor
    return [[cof(j, i) for j in range(3)] for i in range(3)]


def _primitive(vec):
    g = gcd(*(abs(c) for c in vec))
    if g:
        vec = [c // g for c in vec]
    lead = next((c for c in vec if c != 0), 0)
    if lead < 0:
        vec = [-c for c in vec]
    return tuple(vec)


def kernel_vector_3x3(rows):
    """A primitive integer kernel vector of a rank-2 integer 3x3 matrix.

    The adjugate of a rank-2 matrix is nonzero and every nonzero column lies
    in the kernel (A*adj(A) = det(A)*I = 0).  Returns None when the rank is
    not 2, so callers can use it as a rank-2 probe.
    """
    a = clear_denominators(rows)
    if det3(a) != 0:
        return None
    adj = adjugate3(a)
    for j in range(3):
        col = [adj[0][j], adj[1][j], adj[2][j]]
        if any(col):
            return _primitive(col)
    return None
