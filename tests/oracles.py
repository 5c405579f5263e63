"""Independent reimplementations the tests compare the package against.

Everything here deliberately avoids the package's own algorithms and
shortcuts: counting walks the exponent lattice recursively instead of
using binomial closed forms, ranks come from textbook fraction Gaussian
elimination instead of fraction-free elimination, symmetric functions are
built from their recursion, polynomial values are summed term by term
instead of through the compiled evaluation plan, and the chart gradient is
assembled from naive differentiate-then-evaluate calls at the rescaled
point instead of the integer-weighted fast path.
"""

from fractions import Fraction
from functools import lru_cache


# -- monomial counting and enumeration --------------------------------------


@lru_cache(maxsize=None)
def _x_block_count(n_vars: int, degree: int) -> int:
    if degree < 0:
        return 0
    if n_vars == 1:
        return 1
    return sum(_x_block_count(n_vars - 1, degree - e) for e in range(degree + 1))


def count_monomials(a: int, b: int, twist: int, n_x: int) -> int:
    """Number of monomials of bidegree (a, b), by direct lattice recursion."""
    if a < 0:
        return 0
    total = 0
    for k1 in range(a + 1):
        for k2 in range(a - k1 + 1):
            d = b + twist * (k1 + k2)
            total += _x_block_count(n_x, d)
    return total


def enumerate_monomials(a: int, b: int, twist: int, n_x: int) -> list:
    """All exponent tuples (x..., y0, y1, y2) of bidegree (a, b).

    Depth-first over the x block with the last slot forced, so no
    stars-and-bars anywhere.  Intended for classes of modest size only.
    """
    if a < 0:
        return []
    out = []

    def fill_x(i, remaining, acc):
        if i == n_x - 1:
            out.append(tuple(acc) + (remaining,) + tail)
            return
        for e in range(remaining + 1):
            acc.append(e)
            fill_x(i + 1, remaining - e, acc)
            acc.pop()

    for k1 in range(a + 1):
        for k2 in range(a - k1 + 1):
            k0 = a - k1 - k2
            d = b + twist * (k1 + k2)
            if d < 0:
                continue
            tail = (k0, k1, k2)
            fill_x(0, d, [])
    return out


# -- polynomial evaluation --------------------------------------------------


def eval_terms(poly, values):
    """sum(c * prod(v ** e)) over the terms, one power at a time."""
    total = 0
    for exps, c in poly.terms.items():
        term = c
        for v, e in zip(values, exps, strict=True):
            term *= v ** e
        total += term
    return total


def eval_gradient_terms(poly, values):
    """Every partial derivative by Poly.diff, each summed term by term."""
    return [eval_terms(poly.diff(i), values) for i in range(poly.ring.n)]


# -- linear algebra ---------------------------------------------------------


def rref_rank(rows) -> int:
    """Rank by plain Gauss-Jordan over Fraction."""
    mat = [[Fraction(c) for c in row] for row in rows]
    if not mat:
        return 0
    n_cols = len(mat[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [c / inv for c in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [c - f * d for c, d in zip(mat[r], mat[rank])]
        rank += 1
    return rank


# -- symmetric functions ----------------------------------------------------


def complete_homogeneous(k: int, values: tuple) -> int:
    """h_k(values) from the recursion h_k(x, rest) = h_k(rest) + x*h_{k-1}(all)."""
    if k == 0:
        return 1
    if not values:
        return 0
    return complete_homogeneous(k, values[1:]) \
        + values[0] * complete_homogeneous(k - 1, values)


def elementary_symmetric(k: int, values: tuple) -> int:
    if k == 0:
        return 1
    if k > len(values):
        return 0
    return elementary_symmetric(k, values[1:]) \
        + values[0] * elementary_symmetric(k - 1, values[1:])


# -- chart gradient ---------------------------------------------------------


def chart_gradient(matrix, point, z):
    """(on_fibration, gradient_nonzero) by rescaling into the chart.

    The point is moved to the x_{j*} = 1, y0 = 1 representative with
    Fraction arithmetic, z to its z_{k*} = 1 representative, and every
    partial derivative is taken the slow way: Poly.diff then eval.
    """
    params = matrix.params
    xs, ys = point.x, point.y
    jx = max(range(len(xs)), key=lambda i: abs(xs[i]))
    xj = Fraction(xs[jx])
    y0 = Fraction(ys[0])
    scale = xj ** params.twist / y0
    coords = tuple(Fraction(v) / xj for v in xs) + (
        Fraction(1), ys[1] * scale, ys[2] * scale)
    kz = max(range(3), key=lambda i: abs(z[i]))
    zn = tuple(Fraction(c, z[kz]) for c in z)

    entries = dict(matrix.named_entries())
    weights = {
        "s1": zn[0] * zn[0], "s2": 2 * zn[0] * zn[1], "s3": zn[1] * zn[1],
        "lam1": 2 * zn[0] * zn[2], "lam2": 2 * zn[1] * zn[2],
        "sigma": zn[2] * zn[2],
    }
    vals = {name: entries[name].eval(coords) for name in entries}
    value = sum(vals[name] * w for name, w in weights.items())

    grads = []
    ncox = params.n_x + 3
    for v in range(ncox):
        if v == jx or v == params.n_x:
            continue
        grads.append(sum(entries[name].diff(v).eval(coords) * w
                         for name, w in weights.items()))
    zgrad = [
        2 * (vals["s1"] * zn[0] + vals["s2"] * zn[1] + vals["lam1"] * zn[2]),
        2 * (vals["s2"] * zn[0] + vals["s3"] * zn[1] + vals["lam2"] * zn[2]),
        2 * (vals["lam1"] * zn[0] + vals["lam2"] * zn[1] + vals["sigma"] * zn[2]),
    ]
    grads += [zgrad[k] for k in range(3) if k != kz]
    return value == 0, any(g != 0 for g in grads)
