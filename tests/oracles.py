"""Independent reimplementations the tests compare the package against.

Everything here deliberately avoids the package's own algorithms and
shortcuts: counting walks the exponent lattice recursively instead of
using binomial closed forms, ranks come from textbook fraction Gaussian
elimination instead of the adjugate, symmetric functions are
built from their recursion, polynomial values are summed term by term
instead of through the compiled evaluation plan, products add exponent
tuples instead of packed ints, lines are restricted by binomial
expansion and det S on a line by cofactors, the chart gradient is
assembled from naive differentiate-then-evaluate calls at the rescaled
point instead of the integer-weighted fast path, the boundary identity is
checked by differentiating every entry of S, and again on the quadratic
form F = z^T S z in a ring extended by the fiber coordinates, instead of
by reading seven coefficients, nefness comes from pairings with curves
instead of cone membership, and nonzero coefficients are drawn by randint
instead of by rejection on getrandbits, bidegrees are read term by term,
the drawn member is assembled by polynomial arithmetic instead of in
one pass, and base loci are the minimal hitting sets among all 15 subsets
of y0, y1, y2, X instead of six.  Two exceptions: squarefree_by_gcd is
the exact gcd route of u_is_squarefree without the mod-p certificate in
front of it, and the draw on sorted bases (draw_by_bases, with
section_bases, draw_on_basis and square_sigma_prime) and the per-term line
degree bound are the package's earlier algorithms, kept as references
for the draw in key-table blocks and the bounds read off the plans.

The polynomial helpers at the end (differentiation, substitution,
generators, lifting, serialization) exist only for the tests.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby
from math import comb
from operator import itemgetter

from fanoconic.coxring import ConicMatrix, _section_draws, cox_ring, y_indices, y_patterns
from fanoconic.picard import DivisorClassY
from fanoconic.polynomial import Poly, PolyRing, u_add, u_diff, u_gcd, u_mul, u_trim


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


def count_sections_by_sum(a: int, b: int, twist: int, n_base: int) -> int:
    """h^0 of (a, b) by adding up the binomial of every y-split s <= a."""
    total = 0
    for s in range(a + 1):
        d = b + twist * s
        if d >= 0:
            total += (s + 1) * comb(d + n_base, n_base)
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


def poly_degree_by_terms(poly, params):
    """The common bidegree of the terms, each term read on its own: None
    for zero, ValueError if mixed."""
    i0, i1, i2 = y_indices(params)
    t = params.twist
    degrees = {(e[i0] + e[i1] + e[i2], sum(e[:i0]) - t * (e[i1] + e[i2]))
               for e in poly.terms}
    if not degrees:
        return None
    if len(degrees) > 1:
        shown = sorted(str(DivisorClassY(*d)) for d in degrees)
        raise ValueError(f"polynomial is not bigraded homogeneous: {', '.join(shown)}")
    return DivisorClassY(*degrees.pop())


def draw_by_arithmetic(params, seed: int, coeff_range: int = 100,
                       perturb: bool = False) -> dict:
    """The entries and sigma' of instantiate_sections as term dicts, each
    section drawn by randint on its sorted enumerate_monomials basis and
    the entries assembled by Poly arithmetic: sigma' y1 + r1, sigma' y2 + r2,
    sigma' y2 + r3 and sigma' * sigma' + w."""
    rng = random.Random(seed)
    ring = cox_ring(params)
    t, m = params.twist, params.m

    def section(a, b, min_y_order):
        basis = sorted(e for e in enumerate_monomials(a, b, t, params.n_x)
                       if e[-2] + e[-1] >= min_y_order)
        coeffs = nonzero_draws_by_randint(rng, coeff_range, len(basis))
        return Poly(ring, dict(zip(basis, coeffs)))

    lam1, lam2 = section(2, -m, 0), section(2, -m, 0)
    y0, y1, y2 = (ring.var(i) for i in y_indices(params))
    sigma_prime = y0
    r1 = r2 = r3 = w = ring.zero()
    if perturb:
        sigma_prime = y0 + section(1, 0, 1)
        r1, r2, w, r3 = (section(2, -t, 2), section(2, -t, 2), section(2, 0, 1),
                         section(2, -t, 2))
    entries = {
        "s1": sigma_prime * y1 + r1, "s2": sigma_prime * y2 + r2,
        "s3": sigma_prime * y2 + r3, "lam1": lam1, "lam2": lam2,
        "sigma": sigma_prime * sigma_prime + w, "sigma_prime": sigma_prime,
    }
    return {name: poly.terms for name, poly in entries.items()}


# -- the draw on sorted bases ---------------------------------------------------


def compositions(total: int, parts: int):
    """The weak compositions of total into parts, by stars and bars."""
    if parts == 1:
        yield (total,)
        return
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for bar in bars:
            out.append(bar - prev - 1)
            prev = bar
        out.append(total + parts - 1 - prev - 1)
        yield tuple(out)


def section_bases(keys, params) -> dict:
    """{(class, min_y_order): the sorted exponent tuples of its monomial
    basis} for each key.  Each x-degree's monomials are enumerated once,
    for every pattern and basis that has it, and a repeated key shares its
    basis."""
    nx = params.n_x
    x_monomials = {}
    bases = {}
    for cls_, order in keys:
        if (cls_, order) in bases:
            continue
        basis = []
        # the patterns of one x-degree come together, sorted by their tails
        for d, patterns in groupby(y_patterns(cls_, params, order), itemgetter(3)):
            alphas = x_monomials.get(d)
            if alphas is None:
                alphas = x_monomials[d] = list(compositions(d, nx))
            tails = [pattern[:3] for pattern in patterns]
            basis += [alpha + tail for alpha in alphas for tail in tails]
        basis.sort()
        bases[cls_, order] = basis
    return bases


def draw_on_basis(basis: list, params, rng, coeff_range: int) -> Poly:
    """One coefficient from rng per basis monomial, in order, uniform on
    [-coeff_range, coeff_range] without 0; an empty basis gives zero."""
    if coeff_range < 1:
        raise ValueError("coeff_range must be positive")
    coeffs = nonzero_draws_by_randint(rng, coeff_range, len(basis))
    return Poly(cox_ring(params), dict(zip(basis, coeffs)))


def times_var(terms: dict, i: int) -> dict:
    """The term dict times the variable of index i."""
    return {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in terms.items()}


def square_sigma_prime(terms: dict, nx: int) -> dict:
    """The term dict of sigma'^2, zero coefficients kept, for the terms of
    sigma' = c y0 + y1 A + y2 B with A and B polynomials in the x alone and
    int coefficients; ValueError on any other term.

    Each x-monomial alpha of A or B is packed into one int, a byte per
    exponent (each at most 127, so a sum of two cannot carry), and its
    coefficients (a, b) into a + b U with U = 2^k.  The product of two of
    these is a a' + (a b' + a' b) U + b b' U^2, so one pass over the pairs
    alpha <= alpha' gives the coefficients of A^2, 2AB and B^2 together.
    With N the l1 norm of A and B, each of the three is at most N^2 in
    absolute value, so k = bit length of N^2, plus 1, keeps them apart as
    balanced base-U digits.
    """
    y0 = (0,) * nx + (1, 0, 0)
    c = terms.get(y0, 0)
    out = {(0,) * nx + (2, 0, 0): c * c} if c else {}
    forms = {}
    for e, coeff in terms.items():
        if e == y0:
            continue
        if e[nx:] not in ((0, 1, 0), (0, 0, 1)):
            raise ValueError(f"sigma' has a term {e} outside c y0 + y1 A + y2 B")
        if c:
            out[e[:nx] + (1,) + e[nx + 1:]] = 2 * c * coeff
        # a, the coefficient of y1 x^alpha, goes first; b, of y2 x^alpha, second
        forms.setdefault(e[:nx], [0, 0])[e[nx + 2]] = coeff
    if max(map(max, forms), default=0) > 127:
        raise ValueError("sigma' has an x exponent above 127")

    norm = sum(abs(a) + abs(b) for a, b in forms.values())
    k = (norm * norm).bit_length() + 1
    packed = [(int.from_bytes(bytes(alpha), "little"), a + (b << k))
              for alpha, (a, b) in forms.items()]
    sums = {}
    get = sums.get
    for i, (key1, v1) in enumerate(packed):
        key = key1 + key1
        sums[key] = get(key, 0) + v1 * v1
        v1 += v1  # the pair (i, j) stands for (j, i) too
        for key2, v2 in packed[i + 1:]:
            key = key1 + key2
            sums[key] = get(key, 0) + v1 * v2
    half, mask = 1 << (k - 1), (1 << k) - 1
    for key, v in sums.items():
        alpha = tuple(key.to_bytes(nx, "little"))
        aa = ((v + half) & mask) - half
        v = (v - aa) >> k
        ab = ((v + half) & mask) - half
        out[alpha + (0, 2, 0)] = aa
        out[alpha + (0, 1, 1)] = ab
        out[alpha + (0, 0, 2)] = (v - ab) >> k
    return out


def draw_by_bases(params, seed: int, coeff_range: int = 100, perturb: bool = False) -> dict:
    """The entries and sigma' of instantiate_sections as term dicts, each
    section drawn on its sorted basis (section_bases, draw_on_basis), the
    products by y1 and y2 taken as exponent shifts and sigma'^2 by
    square_sigma_prime, each sum a merge of term dicts."""
    rng = random.Random(seed)
    draws = _section_draws(params, perturb)
    bases = section_bases(draws, params)
    lam1, lam2, *extra = [draw_on_basis(bases[key], params, rng, coeff_range)
                          for key in draws]
    ring = cox_ring(params)
    nx = params.n_x
    sigma_prime = ring.var(nx)
    r1 = r2 = r3 = w = ring.zero()
    if perturb:
        sigma_extra, r1, r2, w, r3 = extra
        sigma_prime = sigma_prime + sigma_extra
    sigma_prime_y1, sigma_prime_y2 = (Poly(ring, times_var(sigma_prime.terms, i))
                                      for i in (nx + 1, nx + 2))
    sigma = square_sigma_prime(sigma_prime.terms, nx)
    for e, c in w.terms.items():
        sigma[e] = sigma.get(e, 0) + c
    entries = {"s1": sigma_prime_y1 + r1, "s2": sigma_prime_y2 + r2,
               "s3": sigma_prime_y2 + r3, "lam1": lam1, "lam2": lam2,
               "sigma": Poly(ring, sigma), "sigma_prime": sigma_prime}
    return {name: poly.terms for name, poly in entries.items()}


def line_degree_bound(poly, support) -> int | None:
    """Largest t-degree a term of poly can reach on a line moving along
    the given variable support, which must not be empty, each term
    projected on the support; None for the zero polynomial."""
    if not poly.terms:
        return None
    if len(support) == 1:
        # itemgetter of one index returns the exponent, not a tuple
        return max(map(itemgetter(*support), poly.terms))
    return max(map(sum, map(itemgetter(*support), poly.terms)))


# -- base loci ----------------------------------------------------------------


def base_locus_by_hitting_sets(a: int, b: int, twist: int) -> dict:
    """base_locus(...) of (a, b) by the full enumeration.

    The support of each monomial is read over the alphabet y0, y1, y2, X
    (X: some x), every nonempty subset of the alphabet that meets all
    supports is a hitting set, and the minimal ones without X and not
    holding all three y's are the primes kept.
    """
    name = str(DivisorClassY(a, b))
    supports = set()
    for k1 in range(a + 1):
        for k2 in range(a - k1 + 1):
            d = b + twist * (k1 + k2)
            if d >= 0:
                supports.add(frozenset(
                    v for v, k in (("y0", a - k1 - k2), ("y1", k1), ("y2", k2), ("X", d))
                    if k))
    if not supports:
        return {"class": name, "strata": ["FULL"], "raw_primes": []}
    if frozenset() in supports:
        return {"class": name, "strata": ["EMPTY"], "raw_primes": []}
    alphabet = ("y0", "y1", "y2", "X")
    hitting = [set(c) for r in range(1, 5) for c in combinations(alphabet, r)
               if all(sup & set(c) for sup in supports)]
    minimal = [h for h in hitting if not any(other < h for other in hitting)]
    kept = sorted(sorted(h) for h in minimal
                  if "X" not in h and not h >= {"y0", "y1", "y2"})
    strata = {("y1", "y2"): "V", ("y0",): "Y0_DIVISOR"}
    return {"class": name,
            "strata": sorted({strata[tuple(h)] for h in kept}) or ["EMPTY"],
            "raw_primes": kept}


# -- polynomial arithmetic and evaluation -----------------------------------


def mul_terms(f, g) -> Poly:
    """f * g term by term, the exponent tuples added entry by entry."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2, strict=True))
            out[key] = out.get(key, 0) + c1 * c2
    return Poly(f.ring, out)


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
    """Every partial derivative by diff, each summed term by term."""
    return [eval_terms(diff(poly, i), values) for i in range(poly.ring.n)]


# -- curve classes and nefness ----------------------------------------------


@dataclass(frozen=True)
class CurveClassY:
    """A curve class on Y recorded by its intersection vector against (D, H)."""

    dot_D: int
    dot_H: int


ELL_F = CurveClassY(1, 0)  # a line in a fiber of Y -> P^{3m}
ELL_V = CurveClassY(0, 1)  # a line in the section V


def nonzero_draws_by_randint(rng, bound: int, count: int) -> list:
    """count draws uniform on [-bound, -1] union [1, bound], each one
    randint(1, 2 * bound) with the upper half shifted past 0."""
    draws = []
    for _ in range(count):
        v = rng.randint(1, 2 * bound)
        draws.append(v - bound - 1 if v <= bound else v - bound)
    return draws


def pair(divisor, curve: CurveClassY) -> int:
    """Intersection number of a divisor class with a curve class."""
    return divisor.a * curve.dot_D + divisor.b * curve.dot_H


def nef_by_duality(cls_, params) -> bool:
    """Nefness via intersection numbers, the oracle side of the cone test."""
    return pair(cls_, ELL_F) >= 0 and pair(cls_, ELL_V) >= 0


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


@lru_cache(maxsize=None)
def _partials(poly):
    return tuple(diff(poly, v) for v in range(poly.ring.n))


@lru_cache(maxsize=None)
def _partial_values(poly, coords):
    return tuple(d.eval(coords) for d in _partials(poly))


def chart_gradient(matrix, point, z):
    """(on_fibration, gradient_nonzero) by rescaling into the chart.

    The point is moved to the x_{j*} = 1, y0 = 1 representative with
    Fraction arithmetic, z to its z_{k*} = 1 representative, and every
    partial derivative is taken the slow way: diff then eval.  The
    partials of each entry, and their values at each rescaled point, are
    computed once and reused across calls.
    """
    params = matrix.params
    xs, ys = point[:params.n_x], point[params.n_x:]
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

    partials = {name: _partial_values(poly, coords) for name, poly in entries.items()}
    grads = []
    ncox = params.n_x + 3
    for v in range(ncox):
        if v == jx or v == params.n_x:
            continue
        grads.append(sum(partials[name][v] * w for name, w in weights.items()))
    zgrad = [
        2 * (vals["s1"] * zn[0] + vals["s2"] * zn[1] + vals["lam1"] * zn[2]),
        2 * (vals["s2"] * zn[0] + vals["s3"] * zn[1] + vals["lam2"] * zn[2]),
        2 * (vals["lam1"] * zn[0] + vals["lam2"] * zn[1] + vals["sigma"] * zn[2]),
    ]
    grads += [zgrad[k] for k in range(3) if k != kz]
    return value == 0, any(g != 0 for g in grads)


# -- rebuilt matrices ---------------------------------------------------------


def rebuilt_matrix(matrix, **changes) -> ConicMatrix:
    """The matrix with the given entries replaced, built again through the
    ConicMatrix constructor, so that its ring and degree checks run on the
    new entries."""
    entries = {**dict(matrix.named_entries()), "sigma_prime": matrix.sigma_prime, **changes}
    return ConicMatrix(matrix.params, **entries)


# -- the boundary identity by calculus on the entries -----------------------


def boundary_identity_by_calculus(matrix) -> str:
    """The boundary identity as conditions on the entries restricted to
    V = {y1 = y2 = 0}, in the Cox ring: s1, s2, s3, lam1 and lam2 vanish
    there, the y1-partials of (s1, s2, s3) are (sigma', 0, 0), the
    y2-partials are (0, sigma', sigma'), and every other partial of s1, s2
    and s3 vanishes.  Each partial is taken with diff and restricted with
    subs, over every variable of the ring."""
    _, iy1, iy2 = y_indices(matrix.params)
    on_v = {iy1: 0, iy2: 0}
    sp = subs(matrix.sigma_prime, on_v)
    zero = sp.ring.zero()
    expected = {iy1: (sp, zero, zero), iy2: (zero, sp, sp)}
    s_block = (matrix.s1, matrix.s2, matrix.s3)
    if any(subs(entry, on_v) for entry in s_block + (matrix.lam1, matrix.lam2)):
        return "FAIL"
    for v in range(sp.ring.n):
        got = tuple(subs(diff(entry, v), on_v) for entry in s_block)
        if got != expected.get(v, (zero,) * 3):
            return "FAIL"
    return "PASS"


# -- the boundary identity on the quadratic form ----------------------------


@lru_cache(maxsize=None)
def _conic_ring(m: int) -> PolyRing:
    names = [f"x{i}" for i in range(3 * m + 1)] + ["y0", "y1", "y2", "z0", "z1", "z2"]
    return PolyRing(names)


def conic_ring(params) -> PolyRing:
    """Cox ring of Y extended by the fiber coordinates z0, z1, z2."""
    return _conic_ring(params.m)


def quadratic_form(matrix) -> Poly:
    """F = z^T S z in the extended ring."""
    ring = conic_ring(matrix.params)
    z = [ring.var(f"z{k}") for k in range(3)]
    e = {name: lift(poly, ring) for name, poly in matrix.named_entries()}
    rows = ((e["s1"], e["s2"], e["lam1"]),
            (e["s2"], e["s3"], e["lam2"]),
            (e["lam1"], e["lam2"], e["sigma"]))
    F = ring.zero()
    for i in range(3):
        for j in range(i, 3):
            F = F + (1 if i == j else 2) * rows[i][j] * z[i] * z[j]
    return F


def boundary_identity_by_form(matrix) -> str:
    """dF|_W = sigma'(z0^2 dy1 + z1(2 z0 + z1) dy2), checked by
    differentiating F in every one of its variables and restricting each
    partial to W = {y1 = y2 = z2 = 0}."""
    ring = conic_ring(matrix.params)
    _, iy1, iy2 = y_indices(matrix.params)
    iz0, iz1, iz2 = ring.n - 3, ring.n - 2, ring.n - 1
    F = quadratic_form(matrix)
    wall = {iy1: 0, iy2: 0, iz2: 0}
    sp = lift(subs(matrix.sigma_prime, {iy1: 0, iy2: 0}), ring)
    z0, z1 = ring.var(iz0), ring.var(iz1)
    expected = {iy1: sp * z0 * z0, iy2: sp * z1 * (2 * z0 + z1)}
    for v in range(ring.n):
        if subs(diff(F, v), wall) != expected.get(v, ring.zero()):
            return "FAIL"
    return "PASS"


# -- polynomial helpers -----------------------------------------------------


def diff(poly, which) -> Poly:
    """Partial derivative with respect to a variable (index or name)."""
    if isinstance(which, str):
        which = poly.ring.names.index(which)
    out = {}
    for exps, c in poly.terms.items():
        e = exps[which]
        if not e:
            continue
        key = exps[:which] + (e - 1,) + exps[which + 1:]
        out[key] = out.get(key, 0) + c * e
    return Poly(poly.ring, out)


def subs(poly, assignments: dict) -> Poly:
    """Substitute scalars for some variables; keys are indices or names."""
    idx = {}
    for k, v in assignments.items():
        if isinstance(k, str):
            k = poly.ring.names.index(k)
        idx[k] = v
    out = {}
    for exps, c in poly.terms.items():
        for i, val in idx.items():
            e = exps[i]
            if e:
                c = c * val ** e
                if c == 0:
                    break
        if c == 0:
            continue
        key = tuple(0 if i in idx else e for i, e in enumerate(exps))
        out[key] = out.get(key, 0) + c
    return Poly(poly.ring, out)


def gens(ring) -> tuple:
    return tuple(ring.var(i) for i in range(ring.n))


def lift(poly, big) -> Poly:
    """Reinterpret poly in a ring whose names start with poly's ring names."""
    if big.names[: poly.ring.n] != poly.ring.names:
        raise ValueError("target ring does not extend this ring")
    pad = (0,) * (big.n - poly.ring.n)
    return Poly(big, {exps + pad: c for exps, c in poly.terms.items()})


def to_pairs(poly) -> list:
    """Canonical serialization: (coefficient, exponent list) pairs.

    Sorted by exponent tuple.  Fraction coefficients come out as "p/q"
    strings so the result is JSON safe; ints stay ints.
    """
    out = []
    for exps in sorted(poly.terms):
        c = poly.terms[exps]
        if isinstance(c, Fraction):
            c = int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        out.append((c, list(exps)))
    return out


def from_pairs(ring, pairs) -> Poly:
    """Inverse of to_pairs."""
    terms = {}
    for coeff, exps in pairs:
        if isinstance(coeff, str):
            coeff = Fraction(coeff)
        exps = tuple(exps)
        if len(exps) != ring.n:
            raise ValueError("exponent tuple has wrong length")
        terms[exps] = terms.get(exps, 0) + coeff
    return Poly(ring, {e: c for e, c in terms.items() if c != 0})


def squarefree_by_gcd(f: list) -> bool:
    """Squarefree verdict from the exact gcd of f and f' over Q alone."""
    f = u_trim(list(f))
    return len(f) == 1 or len(u_gcd(f, u_diff(f))) == 1


def _linear_power(a, b, e: int) -> list:
    # (a + b t)^e by the binomial theorem
    return [comb(e, k) * a ** (e - k) * b ** k for k in range(e + 1)]


def restrict_line(poly, point, direction) -> list:
    """Coefficients of poly(point + t*direction) as a univariate in t.

    Ascending order, trailing zeros trimmed; [] is the zero polynomial.
    """
    if len(point) != poly.ring.n or len(direction) != poly.ring.n:
        raise ValueError("wrong number of coordinates")
    cache = {}
    out = [0]
    for exps, c in poly.terms.items():
        term = [c]
        for i, e in enumerate(exps):
            if not e:
                continue
            f = cache.get((i, e))
            if f is None:
                f = cache[(i, e)] = _linear_power(point[i], direction[i], e)
            term = u_mul(term, f)
            if not any(term):
                break
        out = u_add(out, term)
    return u_trim(out)


def direct_restriction(matrix, point, direction) -> list:
    """det S on the line point + t*direction, as a univariate in t.

    Each entry is restricted by binomial expansion, and the symmetric
    determinant is expanded along its first row at the univariate level;
    a determinant of the full polynomial matrix would square the perturbed
    sigma before ever restricting.
    """
    e = {name: restrict_line(poly, point, direction)
         for name, poly in matrix.named_entries()}

    def minor(a, b, c, d):
        return u_add(u_mul(e[a], e[b]), [-x for x in u_mul(e[c], e[d])])

    det = u_mul(e["s1"], minor("s3", "sigma", "lam2", "lam2"))
    det = u_add(det, [-x for x in u_mul(e["s2"], minor("s2", "sigma", "lam2", "lam1"))])
    det = u_add(det, u_mul(e["lam1"], minor("s2", "lam2", "s3", "lam1")))
    return u_trim(det)
