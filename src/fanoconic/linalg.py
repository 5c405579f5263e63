"""Exact linear algebra for the symmetric 3x3 matrices of fiber diagnosis.

One global scale clears the denominators, and one adjugate then gives
both the rank and, for rank 2, a kernel vector, using
A*adj(A) = det(A)*I.
"""

from __future__ import annotations

from math import gcd, lcm


def clear_denominators(rows):
    """Scale the whole matrix by one positive integer so entries are int.

    A single global scale keeps symmetric matrices symmetric and changes
    neither rank nor kernel.
    """
    scale = lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in rows]


def adjugate3(a):
    """adj A, whose (i, j) entry is the (j, i) cofactor of A."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    return [[a11 * a22 - a12 * a21, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11],
            [a12 * a20 - a10 * a22, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12],
            [a10 * a21 - a11 * a20, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10]]


def _primitive(vec):
    g = gcd(*(abs(c) for c in vec))
    if g:
        vec = [c // g for c in vec]
    lead = next((c for c in vec if c != 0), 0)
    if lead < 0:
        vec = [-c for c in vec]
    return tuple(vec)


def rank_and_kernel_3x3(rows):
    """(rank, node) of a rational 3x3 matrix from one adjugate.

    det A is row 0 of A times column 0 of adj A.  The rank is 3 if that is
    nonzero, 2 if adj A is nonzero (some 2x2 minor survives), 1 if A is
    nonzero and 0 otherwise.  For rank 2 every nonzero column of adj A
    lies in the kernel, and node is the primitive integer form of the
    first one, leading nonzero entry positive; otherwise node is None.
    """
    a = clear_denominators(rows)
    adj = adjugate3(a)
    if a[0][0] * adj[0][0] + a[0][1] * adj[1][0] + a[0][2] * adj[2][0]:
        return 3, None
    for j in range(3):
        col = [adj[0][j], adj[1][j], adj[2][j]]
        if any(col):
            return 2, _primitive(col)
    return (1 if any(map(any, a)) else 0), None
