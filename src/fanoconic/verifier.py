"""Pointwise verification of one instantiated conic bundle.

The divisor-level certificate says what classes the defining data must
have; this module actually draws the sections, builds the symmetric matrix

        [ s1   s2   l1 ]
    S = [ s2   s3   l2 ]      s_i in (2,-2m), l_i in (2,-m), sigma in (2,0),
        [ l1   l2   sig]

and interrogates the fibration F = z^T S z = 0 with exact arithmetic:
fiber ranks, degenerate types and nodes at sampled points (all read off
one adjugate of the numeric S), gradient audits in
honest affine charts, and squarefree/degree probes of det S along integer
lines (each entry restricted to the line on its own by one evaluation
at a large power of two, det S expanded from the six univariates).  All
randomness flows through one seeded generator in a documented order, so
a report is a pure function of (m, seed, n_samples, flags).

The special shape of the default sections (s1 = sigma' y1, s2 = s3 =
sigma' y2, sigma = sigma'^2 with sigma' = y0) forces the boundary identity

    dF restricted to {y1 = y2 = z2 = 0}  =  sigma' (z0^2 dy1 + z1(2 z0 + z1) dy2),

which is checked symbolically, not numerically: the bidegrees of the
entries reduce it to seven coefficients, the y0 coefficient of sigma'
and the y0 y1 and y0 y2 coefficients of s1, s2 and s3 (see
boundary_identity_verdict).  Perturbation mode adds independent random
sections vanishing on V to second order to s1, s2 and s3, and V-vanishing
corrections to sigma' and sigma; the identity survives because the extra
terms never contribute first-order terms along V.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter, mul

from .coxring import (
    _nonzero_draws,
    count_sections,
    cox_ring,
    draw_on_basis,
    poly_degree,
    section_basis,
    y_indices,
)
from .linalg import rank_and_kernel_3x3
from .picard import ConstructionParams, DivisorClassY
from .polynomial import (
    Poly,
    u_add,
    u_degree,
    u_is_squarefree,
    u_mul,
)

Z_GRID = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (1, -2, 0))

LINE_RESAMPLE_CAP = 25

# Sections are drawn dense, one coefficient per basis monomial.  A draw whose
# bases add up to more monomials than this is refused before anything is
# drawn: at m = 4 each lam entry alone would have 8.1 million terms.  Each
# count stops at the limit, so the refusal is immediate for every m.
MAX_SECTION_TERMS = 1_000_000


@dataclass(frozen=True)
class CoxPointY:
    """A point of Y in Cox coordinates, exact rational entries."""

    x: tuple
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        if len(self.y) != 3:
            raise ValueError("y must have three coordinates")

    @property
    def coords(self) -> tuple:
        return self.x + self.y

    def is_admissible(self) -> bool:
        return any(c != 0 for c in self.x) and any(c != 0 for c in self.y)


class FiberType(str, Enum):
    SMOOTH_CONIC = "SMOOTH_CONIC"
    LINE_PAIR = "LINE_PAIR"
    DOUBLE_LINE = "DOUBLE_LINE"
    WHOLE_PLANE = "WHOLE_PLANE"


_RANK_TO_TYPE = {
    3: FiberType.SMOOTH_CONIC,
    2: FiberType.LINE_PAIR,
    1: FiberType.DOUBLE_LINE,
    0: FiberType.WHOLE_PLANE,
}


@dataclass(frozen=True)
class FiberDiagnosis:
    rank: int
    fiber_type: FiberType
    node: tuple | None  # primitive integer kernel direction when rank is 2


def diagnose_conic(rows) -> FiberDiagnosis:
    """Classify a numeric symmetric 3x3 matrix as a plane conic."""
    rank, node = rank_and_kernel_3x3(rows)
    return FiberDiagnosis(rank, _RANK_TO_TYPE[rank], node)


_SLOT_NAMES = ("s1", "s2", "s3", "lam1", "lam2", "sigma")


def _s_rows(s1, s2, s3, lam1, lam2, sigma):
    """The rows of S from its six entries, given in _SLOT_NAMES order."""
    return [[s1, s2, lam1], [s2, s3, lam2], [lam1, lam2, sigma]]


def _slot_degrees(params: ConstructionParams) -> dict:
    t, m = params.twist, params.m
    return {
        "s1": DivisorClassY(2, -t), "s2": DivisorClassY(2, -t),
        "s3": DivisorClassY(2, -t),
        "lam1": DivisorClassY(2, -m), "lam2": DivisorClassY(2, -m),
        "sigma": DivisorClassY(2, 0),
    }


@dataclass(frozen=True)
class ConicMatrix:
    """The six section entries of S, plus sigma'.

    sigma_prime is kept so the boundary identity can be stated for the
    perturbed family too; hand-built matrices may pass None, which skips
    that check.  Entries and sigma' must lie in cox_ring(params), and the
    entries are degree-validated at construction (the zero polynomial is
    allowed in any slot).
    """

    params: ConstructionParams
    s1: Poly
    s2: Poly
    s3: Poly
    lam1: Poly
    lam2: Poly
    sigma: Poly
    sigma_prime: Poly | None = None

    def __post_init__(self):
        ring, wants = cox_ring(self.params), _slot_degrees(self.params)
        for name in _SLOT_NAMES + ("sigma_prime",):
            poly = getattr(self, name)
            if poly is not None and poly.ring != ring:
                raise ValueError(f"entry {name} is not in the ring of m = {self.params.m}")
            deg = poly_degree(poly, self.params) if name in wants else None
            if deg is not None and deg != wants[name]:
                raise ValueError(f"entry {name} has degree {deg}, expected {wants[name]}")

    def named_entries(self):
        return tuple((name, getattr(self, name)) for name in _SLOT_NAMES)

    def evaluate(self, point: CoxPointY):
        c = point.coords
        return _s_rows(*(poly.eval(c) for _, poly in self.named_entries()))

    @cached_property
    def _line_bounds(self) -> dict:
        """Per-slot line degree bounds, memoized by the direction support."""
        return {}

    @cached_property
    def _entry_sizes(self) -> dict:
        """Per-slot (l1 norm, total degree) for the line probes; ValueError
        if a coefficient is not an int."""
        sizes = {}
        for name, poly in self.named_entries():
            coeffs = poly.terms.values()
            if not all(isinstance(c, int) for c in coeffs):
                raise ValueError(f"entry {name} has a non-integer coefficient")
            sizes[name] = (sum(map(abs, coeffs)), max(map(sum, poly.terms), default=0))
        return sizes


def instantiate_sections(params: ConstructionParams, seed: int,
                         coeff_range: int = 100, perturb: bool = False) -> ConicMatrix:
    """Draw the section matrix for one instance, deterministically.

    Default mode is the special shape with lam1, lam2 the only random
    entries; perturb additionally mixes random higher-order terms into the
    s-block, sigma' and sigma.  The lam draws come first so both modes
    share them at equal seeds.
    """
    return _draw_matrix(params, random.Random(seed), coeff_range, perturb)


def _section_draws(params, perturb):
    """(class, min_y_order) of each random section an instance draws, in
    draw order: lam1, lam2, then in perturb mode the corrections to sigma',
    s1, s2, sigma and s3."""
    t, m = params.twist, params.m
    draws = [(DivisorClassY(2, -m), 0)] * 2
    if perturb:
        draws += [(DivisorClassY(1, 0), 1), (DivisorClassY(2, -t), 2),
                  (DivisorClassY(2, -t), 2), (DivisorClassY(2, 0), 1),
                  (DivisorClassY(2, -t), 2)]
    return draws


def _draw_matrix(params, rng, coeff_range, perturb) -> ConicMatrix:
    """Draw the section matrix from rng."""
    draws = _section_draws(params, perturb)
    size = sum(count_sections(cls_, params, limit=MAX_SECTION_TERMS) for cls_, _ in draws)
    if size > MAX_SECTION_TERMS:
        raise ValueError(
            f"the {'perturbed ' if perturb else ''}sections at m = {params.m} "
            f"span above the limit of {MAX_SECTION_TERMS} monomials")
    ring = cox_ring(params)
    iy0, iy1, iy2 = y_indices(params)
    y0, y1, y2 = ring.var(iy0), ring.var(iy1), ring.var(iy2)
    # draws on the same basis share one enumeration, and its exponent tuples
    bases = {}
    for cls_, order in draws:
        if (cls_, order) not in bases:
            bases[cls_, order] = section_basis(cls_, params, order)
    lam1, lam2, *extra = [draw_on_basis(bases[key], params, rng, coeff_range)
                          for key in draws]

    sigma_prime = y0
    r1 = r2 = r3 = w = ring.zero()
    if perturb:
        sigma_extra, r1, r2, w, r3 = extra
        sigma_prime = y0 + sigma_extra
    sigma_prime_y2 = sigma_prime * y2

    return ConicMatrix(
        params, sigma_prime * y1 + r1, sigma_prime_y2 + r2,
        sigma_prime_y2 + r3, lam1, lam2, sigma_prime * sigma_prime + w,
        sigma_prime=sigma_prime)


def fiber_at(matrix: ConicMatrix, point: CoxPointY) -> FiberDiagnosis:
    """Exact rank diagnosis of the conic over one point.

    Invariant under the torus scalings of the point because rescaling acts
    on S by a diagonal congruence.
    """
    if not point.is_admissible():
        raise ValueError("point hits an irrelevant locus")
    return diagnose_conic(matrix.evaluate(point))


# -- chart gradients -------------------------------------------------------
#
# The smoothness audits work in the affine chart x_{j*} = 1, y0 = 1,
# z_{k*} = 1 (j* the largest |x| coordinate, k* the largest |z|).  Instead
# of rescaling the point into the chart and paying for Fraction arithmetic
# everywhere, everything is evaluated at the raw integer representative:
# for an entry of bidegree (2, b) and the chart scale nu = x_{j*}, the
# entry value and each of its partials at the normalized point equal the
# raw ones times nu^{-b} and a further per-component nonzero torus factor.
# The nu^{-b} weights (b is -2m, -m or 0, so these are integer powers of
# nu) must stay inside the sums below because they differ between the
# entry blocks; the per-component outer factors and the z-normalization
# scale are dropped, which changes no zero/nonzero verdict.


def _chart_frame(point: CoxPointY, z):
    if not point.is_admissible():
        raise ValueError("point hits an irrelevant locus")
    if point.y[0] == 0:
        raise ValueError("point lies outside the y0 chart")
    xs = point.x
    jx = max(range(len(xs)), key=lambda i: abs(xs[i]))
    if len(z) != 3:
        raise ValueError("z must have three coordinates")
    kz = max(range(3), key=lambda i: abs(z[i]))
    if z[kz] == 0:
        raise ValueError("zero fiber direction")
    return jx, kz


def _entry_evals(matrix: ConicMatrix, point: CoxPointY):
    coords = point.coords
    return {name: poly.eval_with_gradient(coords)
            for name, poly in matrix.named_entries()}


def _chart_values(matrix, point, jx, evals):
    """(nu_weights, values): the weight nu^{-b} of each entry of bidegree
    (2, b), nu = x_{jx}^m, and the entry values times their weights, both
    in _SLOT_NAMES order."""
    nu = point.x[jx] ** matrix.params.m
    nu_w = (nu * nu,) * 3 + (nu, nu, 1)
    return nu_w, [w * evals[name][0] for w, name in zip(nu_w, _SLOT_NAMES)]


def _audit_gradient(matrix, point, z, evals):
    """Return (lies_on_fibration, gradient_nonzero) for the chart audit,
    from evals = _entry_evals(matrix, point)."""
    params = matrix.params
    jx, kz = _chart_frame(point, z)
    nu_w, values = _chart_values(matrix, point, jx, evals)
    z0, z1, z2 = z
    zw = (z0 * z0, 2 * z0 * z1, z1 * z1, 2 * z0 * z2, 2 * z1 * z2, z2 * z2)
    value = sum(map(mul, zw, values))

    ncox = params.n_x + 3
    iy0 = params.n_x
    base = [0] * ncox
    for name, a, b in zip(_SLOT_NAMES, zw, nu_w):
        if a == 0:
            continue
        w = a * b
        grad = evals[name][1]
        for v in range(ncox):
            g = grad[v]
            if g:
                base[v] += w * g
    zgrad = [sum(map(mul, row, z)) for row in _s_rows(*values)]
    nonzero = any(base[v] for v in range(ncox) if v != jx and v != iy0) \
        or any(zgrad[k] for k in range(3) if k != kz)
    return value == 0, nonzero


def check_smooth_at_node(matrix: ConicMatrix, point: CoxPointY) -> bool:
    """Gradient-nonzero verdict at the node of a rank-2 fiber.

    The kernel direction is recomputed in the chart frame (the torus
    rescaling twists the fiber trivialization by diag(nu^m, nu^m, 1), so a
    kernel computed in the raw frame would belong to a different basis).
    ValueError if the fiber does not have rank 2 at the point.
    """
    jx, _ = _chart_frame(point, (1, 1, 1))
    evals = _entry_evals(matrix, point)
    _, values = _chart_values(matrix, point, jx, evals)
    _, node = rank_and_kernel_3x3(_s_rows(*values))
    if node is None:
        raise ValueError("fiber does not have rank 2 at this point")
    on_x, nonzero = _audit_gradient(matrix, point, node, evals)
    if not on_x:
        raise ValueError("node does not lie on the fibration")
    return nonzero


# -- the boundary identity, symbolically -----------------------------------


def boundary_identity_verdict(matrix: ConicMatrix) -> str:
    """Check dF|_W = sigma'(z0^2 dy1 + z1(2 z0 + z1) dy2) exactly.

    The right-hand side is the chart identity in homogeneous form (each
    z-chart version follows by setting the corresponding z to 1).  On W =
    {y1 = y2 = z2 = 0} the monomials z0^2, z0 z1 and z1^2 are independent,
    so the identity holds iff, restricted to V = {y1 = y2 = 0}, s1, s2, s3,
    lam1 and lam2 vanish, the y1-partials of (s1, s2, s3) are (sigma', 0,
    0), the y2-partials are (0, sigma', sigma'), and every other partial
    of s1, s2, s3 vanishes (sigma only meets W through z2^2).

    The bidegrees that ConicMatrix enforces settle all but seven scalars of
    that.  Every term of an entry of class (2, -m) or (2, -2m) has y-order
    k1 + k2 >= 1, so the entries vanish on V; a term of y-order 1 in the
    s-block has x-degree 0, so it is a multiple of y0 y1 or y0 y2; and a
    term of y-order >= 2 still vanishes on V after one derivative.  So with
    c the y0 coefficient of sigma' and (a_i, b_i) the y0 y1 and y0 y2
    coefficients of s_i, the identity holds iff sigma' restricted to V is
    exactly c y0 and the pairs are (c, 0), (0, c) and (0, c).  Returns
    PASS, FAIL, or SKIPPED when the matrix does not carry a sigma'.
    """
    if matrix.sigma_prime is None:
        return "SKIPPED"
    nx = matrix.params.n_x
    y0, y0y1, y0y2 = ((0,) * nx + ys for ys in ((1, 0, 0), (1, 1, 0), (1, 0, 1)))
    sigma_prime = matrix.sigma_prime.terms
    if any(e[nx + 1] == e[nx + 2] == 0 and e != y0 for e in sigma_prime):
        return "FAIL"
    c = sigma_prime.get(y0, 0)
    pairs = tuple((s.terms.get(y0y1, 0), s.terms.get(y0y2, 0))
                  for s in (matrix.s1, matrix.s2, matrix.s3))
    return "PASS" if pairs == ((c, 0), (0, c), (0, c)) else "FAIL"


# -- line probes ------------------------------------------------------------


@dataclass(frozen=True)
class LineProbe:
    degree: int              # degree in t of det S on the line, -1 if zero
    squarefree: bool | None  # None when the restriction vanishes identically
    identically_zero: bool


def _line_degree_bound(poly: Poly, support) -> int | None:
    """Largest t-degree a term of poly can reach on a line moving along
    the given variable support, which must not be empty; None for the
    zero polynomial."""
    if not poly.terms:
        return None
    if len(support) == 1:
        # itemgetter of one index returns the exponent, not a tuple
        return max(map(itemgetter(*support), poly.terms))
    return max(map(sum, map(itemgetter(*support), poly.terms)))


def _restrict_entry(poly: Poly, size, bound: int, point, direction) -> list:
    """poly(point + t*direction) as an ascending, trimmed coefficient list,
    read off the one value at t = 2^K (Kronecker substitution).

    size is (||poly||_1, total degree), and bound + 1 the most coefficients
    the restriction may have.  Each coefficient of prod_i (p_i + t d_i)^(a_i)
    is at most prod_i (|p_i| + |d_i|)^(a_i) in absolute value, so every
    coefficient of the restriction is at most B = ||poly||_1 * M^deg, with
    M = max_i |p_i| + |d_i|.  With
    K = B.bit_length() + 1 they all lie in (-2^(K-1), 2^(K-1)), and they
    are the unique balanced base-2^K digits of the value.
    """
    norm, degree = size
    reach = max(abs(p) + abs(d) for p, d in zip(point, direction))
    k = (norm * reach ** degree).bit_length() + 1
    value = poly.eval(tuple(p + (d << k) for p, d in zip(point, direction)))
    half = 1 << (k - 1)
    mask = (1 << k) - 1
    digits = []
    while value:
        digit = ((value + half) & mask) - half
        digits.append(digit)
        value = (value - digit) >> k
    if len(digits) > bound + 1:
        raise AssertionError("restriction exceeds its line degree bound")
    return digits


# det S = s1 s3 sigma + 2 s2 lam1 lam2 - s3 lam1^2 - s1 lam2^2 - s2^2 sigma,
# as (coefficient, factors) pairs
_DET_TERMS = (
    (1, ("s1", "s3", "sigma")),
    (2, ("s2", "lam1", "lam2")),
    (-1, ("s3", "lam1", "lam1")),
    (-1, ("s1", "lam2", "lam2")),
    (-1, ("s2", "s2", "sigma")),
)


def discriminant_on_line(matrix: ConicMatrix, point, direction) -> LineProbe:
    """Restrict det S to the integer line point + t*direction.

    The point and direction must have int coordinates, the direction must
    be nonzero, and the line must not be contained in an irrelevant locus
    (its x-part and y-part must not both vanish identically).  The entries
    must have int coefficients.  Each nonzero entry is restricted on its
    own, by one evaluation at t = 2^K (see _restrict_entry); a restriction
    with more coefficients than the entry's line degree bound plus one
    raises.  det S is then expanded from the six univariates, so its degree
    is exact; the squarefree test is u_is_squarefree.
    """
    params = matrix.params
    nx = params.n_x
    point = tuple(point)
    direction = tuple(direction)
    if len(point) != nx + 3 or len(direction) != nx + 3:
        raise ValueError("line data has the wrong number of coordinates")
    if not all(isinstance(c, int) for c in point + direction):
        raise ValueError("line data must be integers")
    if not any(direction):
        raise ValueError("zero line direction")
    if not any(point[:nx]) and not any(direction[:nx]):
        raise ValueError("line lies inside the locus x = 0")
    if not any(point[nx:]) and not any(direction[nx:]):
        raise ValueError("line lies inside the locus y = 0")

    support = tuple(i for i, d in enumerate(direction) if d != 0)
    bounds = matrix._line_bounds.get(support)
    if bounds is None:
        bounds = matrix._line_bounds[support] = {
            name: _line_degree_bound(poly, support)
            for name, poly in matrix.named_entries()}

    sizes = matrix._entry_sizes
    on_line = {}
    for name, poly in matrix.named_entries():
        b = bounds[name]
        on_line[name] = [] if b is None else _restrict_entry(
            poly, sizes[name], b, point, direction)
    det = []
    for k, names in _DET_TERMS:
        term = [k]
        for name in names:
            term = u_mul(term, on_line[name])
        det = u_add(det, term)
    deg = u_degree(det)
    if deg < 0:
        return LineProbe(-1, None, True)
    return LineProbe(deg, u_is_squarefree(det), False)


# -- sampling ---------------------------------------------------------------


def _sample_x(params, rng, bound):
    while True:
        xs = tuple(rng.randint(-bound, bound) for _ in range(params.n_x))
        if any(xs):
            return xs


def sample_v_point(params: ConstructionParams, rng: random.Random,
                   coeff_range: int = 100) -> CoxPointY:
    """A random point of V: random x, y = (y0, 0, 0) with y0 nonzero."""
    return CoxPointY(_sample_x(params, rng, coeff_range),
                     (_nonzero_draws(rng, coeff_range, 1)[0], 0, 0))


def sample_generic_point(params: ConstructionParams, rng: random.Random,
                         coeff_range: int = 100) -> CoxPointY:
    """A random point off V with y0 != 0 (both exceptional loci are thin,
    and the y0 chart is where the gradient audits live)."""
    xs = _sample_x(params, rng, coeff_range)
    y0 = _nonzero_draws(rng, coeff_range, 1)[0]
    while True:
        y1 = rng.randint(-coeff_range, coeff_range)
        y2 = rng.randint(-coeff_range, coeff_range)
        if y1 or y2:
            return CoxPointY(xs, (y0, y1, y2))


def _sample_chart_line(params, rng, bound):
    """A random line inside the chart x0 = 1, y0 = 1."""
    nx = params.n_x
    point = (1,) + tuple(rng.randint(-bound, bound) for _ in range(nx - 1)) \
        + (1, rng.randint(-bound, bound), rng.randint(-bound, bound))
    while True:
        direction = (0,) + tuple(rng.randint(-bound, bound) for _ in range(nx - 1)) \
            + (0, rng.randint(-bound, bound), rng.randint(-bound, bound))
        if any(direction):
            return point, direction


def _sample_fiber_line(params, rng, bound):
    """A random line inside one fiber of Y -> P^{3m}: x frozen, y a pencil."""
    nx = params.n_x
    xs = _sample_x(params, rng, bound)
    while True:
        u = tuple(rng.randint(-bound, bound) for _ in range(3))
        v = tuple(rng.randint(-bound, bound) for _ in range(3))
        if (u[0] * v[1] - u[1] * v[0], u[0] * v[2] - u[2] * v[0],
                u[1] * v[2] - u[2] * v[1]) != (0, 0, 0):
            return xs + u, (0,) * nx + v


# -- the instance report -----------------------------------------------------


@dataclass(frozen=True)
class InstanceReport:
    m: int
    seed: int
    n_samples: int
    coeff_range: int
    perturb: bool
    section_terms: dict
    v_fibers: dict
    generic_fibers: dict
    boundary_identity: str
    chart_lines: dict
    fiber_lines: dict
    failures: tuple
    passed: bool

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "coeff_range": self.coeff_range,
            "perturb": self.perturb,
            "section_terms": dict(self.section_terms),
            "v_fibers": dict(self.v_fibers),
            "generic_fibers": dict(self.generic_fibers),
            "boundary_identity": self.boundary_identity,
            "chart_lines": dict(self.chart_lines),
            "fiber_lines": dict(self.fiber_lines),
            "failures": [dict(f) for f in self.failures],
            "passed": self.passed,
        }


def run_instance(params: ConstructionParams, seed: int, n_samples: int,
                 coeff_range: int = 100, perturb: bool = False,
                 sections: ConicMatrix | None = None) -> InstanceReport:
    """Draw one instance and run the full sampling audit.

    Draw order (all from one generator seeded with seed): section matrix,
    V points, generic points, chart lines, fiber lines; resamples consume
    the same stream.  n_samples controls the point counts and the chart
    lines; fiber lines get max(1, n_samples // 5).  The sections argument
    is a test hook that skips the draw and audits a prebuilt matrix.

    Every deviation lands in failures with its witness; passed means no
    failures.  A generic sample landing on the discriminant is not a
    deviation as long as its node passes the smoothness audit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = random.Random(seed)
    matrix = sections if sections is not None else \
        _draw_matrix(params, rng, coeff_range, perturb)

    failures: list[dict] = []

    # fibers over V, with the z-grid gradient audit
    v_samples = []
    n_double = n_sigma = n_grid = 0
    for i in range(n_samples):
        p = sample_v_point(params, rng, coeff_range)
        evals = _entry_evals(matrix, p)
        diag = diagnose_conic(_s_rows(*(evals[name][0] for name in _SLOT_NAMES)))
        ok_type = diag.fiber_type is FiberType.DOUBLE_LINE
        n_double += ok_type
        if not ok_type:
            failures.append({
                "check": "v_fiber_double_line", "index": i,
                "x": list(p.x), "y": list(p.y), "got": diag.fiber_type.value,
            })
        sigma_ok = evals["sigma"][0] != 0
        n_sigma += sigma_ok
        if not sigma_ok:
            failures.append({
                "check": "sigma_nonzero_on_V", "index": i,
                "x": list(p.x), "y": list(p.y),
            })
        grid_ok = True
        for z in Z_GRID:
            on_x, nonzero = _audit_gradient(matrix, p, z, evals)
            if not on_x:
                raise AssertionError("V-grid point fell off the fibration")
            if not nonzero:
                grid_ok = False
                failures.append({
                    "check": "gradient_on_W", "index": i, "z": list(z),
                    "x": list(p.x), "y": list(p.y),
                })
        n_grid += grid_ok
        v_samples.append({
            "x": list(p.x), "y0": p.y[0], "fiber": diag.fiber_type.value,
            "sigma_nonzero": sigma_ok, "grid_ok": grid_ok,
        })

    # generic fibers
    g_samples = []
    n_smooth = n_pair = n_pair_smooth = 0
    for i in range(n_samples):
        p = sample_generic_point(params, rng, coeff_range)
        diag = fiber_at(matrix, p)
        rec = {"x": list(p.x), "y": list(p.y), "fiber": diag.fiber_type.value}
        if diag.fiber_type is FiberType.SMOOTH_CONIC:
            n_smooth += 1
        elif diag.fiber_type is FiberType.LINE_PAIR:
            # a generic sample can land on the discriminant; diagnose, do
            # not fail, unless the node is actually a singular point of X
            n_pair += 1
            node_ok = check_smooth_at_node(matrix, p)
            n_pair_smooth += node_ok
            rec["node_smooth"] = node_ok
            if not node_ok:
                failures.append({
                    "check": "node_smoothness", "index": i,
                    "x": list(p.x), "y": list(p.y), "node": list(diag.node),
                })
        else:
            failures.append({
                "check": "generic_fiber_rank", "index": i,
                "x": list(p.x), "y": list(p.y), "got": diag.fiber_type.value,
            })
        g_samples.append(rec)

    verdict = boundary_identity_verdict(matrix)
    if verdict == "FAIL":
        failures.append({"check": "boundary_identity"})

    def probe_lines(sampler, count, kind, check, passes):
        # draw count lines, redrawing each up to LINE_RESAMPLE_CAP times
        # while det S vanishes on it identically
        samples = []
        n_ok = resampled = 0
        for i in range(count):
            for _ in range(LINE_RESAMPLE_CAP):
                u, v = sampler(params, rng, coeff_range)
                probe = discriminant_on_line(matrix, u, v)
                if not probe.identically_zero:
                    break
                resampled += 1
            else:
                failures.append({"check": f"{kind}_resample_exhausted", "index": i})
                samples.append({"degree": -1, "squarefree": None})
                continue
            ok = passes(probe)
            n_ok += ok
            if not ok:
                failures.append({
                    "check": f"{kind}_{check}", "index": i,
                    "point": list(u), "direction": list(v), "degree": probe.degree,
                })
            samples.append({"degree": probe.degree, "squarefree": probe.squarefree})
        return n_ok, resampled, samples

    # chart lines: det S restricted to a general line stays squarefree
    n_sqfree, c_resampled, c_samples = probe_lines(
        _sample_chart_line, n_samples, "chart_line", "squarefree",
        lambda probe: bool(probe.squarefree))
    # fiber lines: the restriction of det S to a fiber is a sextic
    n_fiber_lines = max(1, n_samples // 5)
    n_deg6, f_resampled, f_samples = probe_lines(
        _sample_fiber_line, n_fiber_lines, "fiber_line", "degree",
        lambda probe: probe.degree == 6)

    passed = not failures

    return InstanceReport(
        m=params.m,
        seed=seed,
        n_samples=n_samples,
        coeff_range=coeff_range,
        perturb=perturb,
        section_terms={name: len(poly) for name, poly in matrix.named_entries()},
        v_fibers={
            "count": n_samples, "double_line": n_double,
            "sigma_nonzero": n_sigma, "grid_ok": n_grid,
            "grid_points_per_sample": len(Z_GRID), "samples": v_samples,
        },
        generic_fibers={
            "count": n_samples, "smooth_conic": n_smooth,
            "line_pair": n_pair, "line_pair_smooth": n_pair_smooth,
            "samples": g_samples,
        },
        boundary_identity=verdict,
        chart_lines={
            "count": n_samples, "squarefree": n_sqfree,
            "resampled_zero": c_resampled, "samples": c_samples,
        },
        fiber_lines={
            "count": n_fiber_lines, "degree_six": n_deg6,
            "resampled_zero": f_resampled, "samples": f_samples,
        },
        failures=tuple(failures),
        passed=passed,
    )
