"""Pointwise verification of one instantiated conic divisor.

The divisor-level certificate says what classes the defining data must
have; coxring.instantiate_sections draws one member, the symmetric matrix

        [ s1   s2   l1 ]
    S = [ s2   s3   l2 ]      s_i in (2,-2m), l_i in (2,-m), sigma in (2,0),
        [ l1   l2   sig]

of sections, and this module audits it: run_instance draws the member
from its seeded generator and interrogates the fibration F = z^T S z = 0
with exact arithmetic: fiber ranks, degenerate types and nodes at
sampled points (all read off one adjugate of the numeric S), the fibers
over V and the smoothness of X along W = {y1 = y2 = z2 = 0} from the
coefficients of S along V, smoothness at a sampled node from the first
derivatives of det S, and squarefree/degree probes of det S along
integer lines (the six entries evaluated at one point of the line, a
large power of two along it, each read off as a univariate, det S
expanded from the six).  All randomness flows through one seeded
generator in a documented order, so a report is a pure function of
(m, seed, n_samples, flags).

A point of Y is the tuple of its n_x + 3 Cox coordinates, x first, and a
line is a point and a direction of that shape.  fiber_at,
check_smooth_at_node and discriminant_on_line refuse other lengths, and
points or lines inside {x = 0} or {y = 0}, through one shared check.

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
from operator import mul

from .coxring import ConicMatrix, _draw_matrix, _nonzero_draws
from .linalg import rank_and_kernel_3x3
from .picard import ConstructionParams, _Record
from .polynomial import (
    _coefficient,
    _support_degree,
    u_add,
    u_degree,
    u_is_squarefree,
    u_mul,
)

Z_GRID = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (1, -2, 0))

LINE_RESAMPLE_CAP = 25


def _check_cox_data(params: ConstructionParams, *vectors) -> None:
    """Refuse Cox data that is not n_x + 3 coordinates each, x first, or
    whose point (one vector) or line (point and direction) lies inside the
    irrelevant locus {x = 0} or {y = 0}; ValueError, so that the check
    also holds under python -O."""
    nx = params.n_x
    if any(len(v) != nx + 3 for v in vectors):
        raise ValueError("Cox data has the wrong number of coordinates")
    if not any(any(v[:nx]) for v in vectors):
        raise ValueError("Cox data lies inside the locus x = 0")
    if not any(any(v[nx:]) for v in vectors):
        raise ValueError("Cox data lies inside the locus y = 0")


# the printed name of a conic of each rank
_FIBER_NAMES = ("WHOLE_PLANE", "DOUBLE_LINE", "LINE_PAIR", "SMOOTH_CONIC")


def fiber_at(matrix: ConicMatrix, point) -> tuple:
    """(rank, node) of the conic over one point, given by its n_x + 3 Cox
    coordinates, x first, ints or Fractions; node is the primitive integer
    kernel direction when the rank is 2, else None (rank_and_kernel_3x3).

    Invariant under the torus scalings of the point because rescaling acts
    on S by a diagonal congruence.
    """
    _check_cox_data(matrix.params, point)
    return rank_and_kernel_3x3(matrix.evaluate(point))


def check_smooth_at_node(matrix: ConicMatrix, point) -> bool:
    """Whether X is smooth at the node of the rank-2 fiber over point.

    Over a rank-2 point of the discriminant Delta = {det S = 0}, X is
    smooth iff Delta is smooth there (Beauville, "Variétés de Prym et
    jacobiennes intermédiaires", Ann. Sci. ÉNS 1977, §1): with k
    spanning the kernel of S, adj S = c k k^T with c != 0, so
    d(det S) = c k^T (dS) k, which is dF at the node for F = z^T S z,
    whose z-derivative 2 S k vanishes.  So the verdict is whether some
    Cox-coordinate derivative of det S is nonzero at the point, each read
    as the t-coefficient of det S on point + t e_v.  No chart is needed:
    det S is bihomogeneous, so its two Euler relations make the y0 and
    x_{j*} derivatives vanish whenever all the others do.  The y-lines
    come first: their points keep the x-part, where the entries' leading
    monomials lie, so they reuse the table of the rank evaluation.

    The point (Cox coordinates as for fiber_at) and the entries must be
    integral, as for line probes; ValueError otherwise, on an inadmissible
    point, and when the fiber does not have rank 2 at the point.
    """
    _check_cox_data(matrix.params, point)
    if not all(isinstance(c, int) for c in point):
        raise ValueError("node data must be integers")
    rank, _ = rank_and_kernel_3x3(matrix.evaluate(point))
    if rank != 2:
        raise ValueError("fiber does not have rank 2 at this point")
    n, nx = len(point), matrix.params.n_x
    for v in (*range(nx, n), *range(nx)):
        det = _det_on_line(matrix, point, tuple(int(i == v) for i in range(n)))
        if len(det) > 1 and det[1]:
            return True
    return False


# -- the entries along V ------------------------------------------------------


def _v_coefficients(matrix: ConicMatrix):
    """(sigma00, pairs): the y0^2 coefficient of sigma, and the y0 y1 and
    y0 y2 coefficients (a_i, b_i) of s1, s2 and s3.

    The bidegrees that ConicMatrix enforces make these all of S to first
    order along V = {y1 = y2 = 0}.  Every term of an entry of class (2, -m)
    or (2, -2m) has y-order k1 + k2 >= 1, so s1, s2, s3, lam1 and lam2
    vanish on V; a term of y-order 1 in the s-block has x-degree 0, so it
    is a multiple of y0 y1 or y0 y2; a term of y-order >= 2 still vanishes
    on V after one derivative; and sigma restricted to V is sigma00 y0^2.
    """
    nx = matrix.params.n_x
    y0y0, y0y1, y0y2 = ((0,) * nx + ys for ys in ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    pairs = tuple((_coefficient(s, y0y1), _coefficient(s, y0y2))
                  for s in (matrix.s1, matrix.s2, matrix.s3))
    return _coefficient(matrix.sigma, y0y0), pairs


def _w_gradient_nonzero(pairs, z) -> bool:
    """Whether dF is nonzero at (p, z), p in V with y0 != 0 and z2 = 0.

    With pairs from _v_coefficients, S(p) = diag(0, 0, sigma00 y0^2), so
    S(p) z = 0 and the z-derivatives vanish; lam and sigma meet F only
    through z2; and every x- and y0-derivative of the s-block vanishes on
    V.  What is left is dF = y0 (Q_a(z) dy1 + Q_b(z) dy2) with
    Q_a(z) = a1 z0^2 + 2 a2 z0 z1 + a3 z1^2, and Q_b the same in the b_i.
    """
    z0, z1, _ = z
    zw = (z0 * z0, 2 * z0 * z1, z1 * z1)
    return any(sum(map(mul, zw, column)) for column in zip(*pairs))


def boundary_identity_verdict(matrix: ConicMatrix) -> str:
    """Check dF|_W = sigma'(z0^2 dy1 + z1(2 z0 + z1) dy2) exactly.

    The right-hand side is the chart identity in homogeneous form (each
    z-chart version follows by setting the corresponding z to 1).  On W =
    {y1 = y2 = z2 = 0} the monomials z0^2, z0 z1 and z1^2 are independent,
    so the identity holds iff, restricted to V = {y1 = y2 = 0}, s1, s2, s3,
    lam1 and lam2 vanish, the y1-derivatives of (s1, s2, s3) are (sigma',
    0, 0), the y2-derivatives are (0, sigma', sigma'), and every other
    first derivative of s1, s2, s3 vanishes (sigma only meets W through
    z2^2).

    The bidegrees settle all but seven scalars of that (see
    _v_coefficients).  sigma' has class D, whose only monomial without y1
    and y2 is y0, so sigma' restricted to V is c y0, c its y0 coefficient.
    With (a_i, b_i) the y0 y1 and y0 y2 coefficients of s_i, the identity
    holds iff the pairs are (c, 0), (0, c) and (0, c).  Returns PASS or
    FAIL.
    """
    c = _coefficient(matrix.sigma_prime, (0,) * matrix.params.n_x + (1, 0, 0))
    _, pairs = _v_coefficients(matrix)
    return "PASS" if pairs == ((c, 0), (0, c), (0, c)) else "FAIL"


# -- line probes ------------------------------------------------------------


class LineProbe(_Record):
    degree: int              # degree in t of det S on the line, -1 if zero
    squarefree: bool | None  # None when the restriction vanishes identically

    @property
    def identically_zero(self) -> bool:
        return self.degree < 0


# det S = s1 s3 sigma + 2 s2 lam1 lam2 - s3 lam1^2 - s1 lam2^2 - s2^2 sigma,
# as (coefficient, factors) pairs
_DET_TERMS = (
    (1, ("s1", "s3", "sigma")),
    (2, ("s2", "lam1", "lam2")),
    (-1, ("s3", "lam1", "lam1")),
    (-1, ("s1", "lam2", "lam2")),
    (-1, ("s2", "s2", "sigma")),
)


def _det_on_line(matrix: ConicMatrix, point, direction) -> list:
    """det S on the integer line point + t*direction, as a coefficient
    list, from one evaluation of each nonzero entry at t = 2^K (Kronecker
    substitution), all six at the same point.

    Each coefficient of prod_i (p_i + t d_i)^(a_i) is at most
    prod_i (|p_i| + |d_i|)^(a_i) in absolute value, so every coefficient of
    an entry f restricted to the line is at most B = ||f||_1 * M^deg f,
    with M = max_i |p_i| + |d_i|.  K is one more than the bit length of
    the largest B of the six, so every coefficient lies in
    (-2^(K-1), 2^(K-1)) and the coefficients of f are the unique balanced
    base-2^K digits of its value.  A restriction with more digits than the
    entry's line degree bound plus one raises; the bound, the largest
    degree of a term in the variables the line moves, is read off the
    entry's evaluation plan (_support_degree) once per direction support.
    det S is then expanded from the six univariates.
    """
    support = tuple(i for i, d in enumerate(direction) if d != 0)
    bounds = matrix._line_bounds.get(support)
    if bounds is None:
        bounds = matrix._line_bounds[support] = {
            name: _support_degree(poly, support) for name, poly in matrix.named_entries()}

    sizes = matrix._entry_sizes
    reach = max(abs(p) + abs(d) for p, d in zip(point, direction))
    k = max(norm * reach ** degree for norm, degree in sizes.values()).bit_length() + 1
    at = tuple(p + (d << k) for p, d in zip(point, direction))
    half, mask = 1 << (k - 1), (1 << k) - 1
    on_line = {}
    for name, poly in matrix.named_entries():
        value = poly.eval(at) if poly else 0
        digits = on_line[name] = []
        while value:
            if len(digits) > (bounds[name] or 0):
                raise AssertionError("restriction exceeds its line degree bound")
            digit = ((value + half) & mask) - half
            digits.append(digit)
            value = (value - digit) >> k
    det = []
    for c, names in _DET_TERMS:
        term = [c]
        for name in names:
            term = u_mul(term, on_line[name])
        det = u_add(det, term)
    return det


def discriminant_on_line(matrix: ConicMatrix, point, direction) -> LineProbe:
    """Restrict det S to the integer line point + t*direction.

    The point and direction must have n_x + 3 int coordinates, x first, the
    direction must be nonzero, and the line must not be contained in an
    irrelevant locus (its x-part and y-part must not both vanish
    identically).  The entries must have int coefficients.  Each nonzero
    entry is restricted by one evaluation at t = 2^K, one K for all six
    (see _det_on_line); a restriction with more coefficients than the
    entry's line degree bound plus one raises.  det S is then expanded from
    the six univariates, so its degree is exact; the squarefree test is
    u_is_squarefree.
    """
    _check_cox_data(matrix.params, point, direction)
    if not all(isinstance(c, int) for c in (*point, *direction)):
        raise ValueError("line data must be integers")
    if not any(direction):
        raise ValueError("zero line direction")

    det = _det_on_line(matrix, point, direction)
    deg = u_degree(det)
    return LineProbe(deg, u_is_squarefree(det) if deg >= 0 else None)


# -- sampling ---------------------------------------------------------------


def _sample_x(params, rng, bound):
    while True:
        xs = tuple(rng.randint(-bound, bound) for _ in range(params.n_x))
        if any(xs):
            return xs


def sample_v_point(params: ConstructionParams, rng: random.Random,
                   coeff_range: int = 100) -> tuple:
    """The Cox coordinates of a random point of V: random x, then y =
    (y0, 0, 0) with y0 nonzero."""
    return _sample_x(params, rng, coeff_range) \
        + (_nonzero_draws(rng, coeff_range, 1)[0], 0, 0)


def sample_generic_point(params: ConstructionParams, rng: random.Random,
                         coeff_range: int = 100) -> tuple:
    """The Cox coordinates of a random point off V with y0 != 0 (both
    exceptional loci are thin)."""
    xs = _sample_x(params, rng, coeff_range)
    y0 = _nonzero_draws(rng, coeff_range, 1)[0]
    while True:
        y1 = rng.randint(-coeff_range, coeff_range)
        y2 = rng.randint(-coeff_range, coeff_range)
        if y1 or y2:
            return xs + (y0, y1, y2)


def _sample_chart_line(params, rng, bound):
    """A random line inside the chart x0 = 1, y0 = 1 whose y-part moves and
    misses V.

    Delta is singular along V (adj S = 0 there), so det S has a repeated
    root on every line through V.  The y-part (1, p + t d) of the line
    meets y1 = y2 = 0 iff p and d are parallel and d != 0, or p = 0.  On
    the default shape det S also has a square factor on {y2 = 0} and on
    {y1 = y2} (it is -y0 y1 lam2^2 and -y0 y1 (lam1 - lam2)^2 there); a line
    inside either one has d = 0 or d parallel to p.  So a line is kept iff
    d != 0 and p, d are not parallel, and is otherwise redrawn whole, since
    a new direction alone never helps p = 0.
    """
    nx = params.n_x
    while True:
        point = (1,) + tuple(rng.randint(-bound, bound) for _ in range(nx - 1)) \
            + (1, rng.randint(-bound, bound), rng.randint(-bound, bound))
        direction = (0,) + tuple(rng.randint(-bound, bound) for _ in range(nx - 1)) \
            + (0, rng.randint(-bound, bound), rng.randint(-bound, bound))
        (p1, p2), (d1, d2) = point[nx + 1:], direction[nx + 1:]
        if (d1 or d2) and p1 * d2 != p2 * d1:
            return point, direction


def _sample_fiber_line(params, rng, bound):
    """A random line inside one fiber of Y -> P^{3m}: x frozen, y the pencil
    u + t v, with v off {y0 = 0} and off V.

    y0 divides det S on the default shape, so v_y0 = 0 would put a root at
    t = infinity; a v on V (v_y1 = v_y2 = 0) meets V at t = infinity, where
    Delta is singular, so det S would lose at least two degrees.
    """
    nx = params.n_x
    xs = _sample_x(params, rng, bound)
    while True:
        u = tuple(rng.randint(-bound, bound) for _ in range(3))
        v = tuple(rng.randint(-bound, bound) for _ in range(3))
        # given v_y0 != 0, two minors decide if u, v span a pencil
        if v[0] and (v[1] or v[2]) \
                and (u[0] * v[1] - u[1] * v[0], u[0] * v[2] - u[2] * v[0]) != (0, 0):
            return xs + u, (0,) * nx + v


# -- the instance report -----------------------------------------------------


def run_instance(params: ConstructionParams, seed: int, n_samples: int,
                 coeff_range: int = 100, perturb: bool = False) -> dict:
    """Draw one instance and run the full sampling audit; return the report
    document: m, seed, n_samples, coeff_range, perturb, section_terms,
    v_fibers, generic_fibers, boundary_identity, chart_lines, fiber_lines,
    failures and passed.

    Draw order (all from one generator seeded with seed): section matrix,
    V points, generic points, chart lines, fiber lines; resamples consume
    the same stream.  n_samples controls the point counts and the chart
    lines; fiber lines get max(1, n_samples // 5).

    Every deviation lands in failures with its witness; passed means no
    failures.  A generic sample landing on the discriminant is not a
    deviation as long as its node passes the smoothness audit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = random.Random(seed)
    matrix = _draw_matrix(params, rng, coeff_range, perturb)
    nx = params.n_x

    failures: list[dict] = []

    # fibers over V and the z-grid, decided by _v_coefficients: S is
    # diag(0, 0, sigma00 y0^2) on V, so every V fiber is a double line iff
    # sigma00 != 0.  The V points are still drawn, for the report and the
    # seeded stream
    sigma00, pairs = _v_coefficients(matrix)
    sigma_ok = sigma00 != 0
    v_fiber = "DOUBLE_LINE" if sigma_ok else "WHOLE_PLANE"
    bad_z = [z for z in Z_GRID if not _w_gradient_nonzero(pairs, z)]
    v_samples = []
    for i in range(n_samples):
        p = sample_v_point(params, rng, coeff_range)
        if not sigma_ok:
            failures.append({
                "check": "v_fiber_double_line", "index": i,
                "x": list(p[:nx]), "y": list(p[nx:]), "got": v_fiber,
            })
            failures.append({
                "check": "sigma_nonzero_on_V", "index": i,
                "x": list(p[:nx]), "y": list(p[nx:]),
            })
        failures.extend({
            "check": "gradient_on_W", "index": i, "z": list(z),
            "x": list(p[:nx]), "y": list(p[nx:]),
        } for z in bad_z)
        v_samples.append({
            "x": list(p[:nx]), "y0": p[nx], "fiber": v_fiber,
            "sigma_nonzero": sigma_ok, "grid_ok": not bad_z,
        })
    n_v_ok = n_samples if sigma_ok else 0

    # generic fibers
    g_samples = []
    n_smooth = n_pair = n_pair_smooth = 0
    for i in range(n_samples):
        p = sample_generic_point(params, rng, coeff_range)
        rank, node = fiber_at(matrix, p)
        rec = {"x": list(p[:nx]), "y": list(p[nx:]), "fiber": _FIBER_NAMES[rank]}
        if rank == 3:
            n_smooth += 1
        elif rank == 2:
            # a generic sample can land on the discriminant; diagnose, do
            # not fail, unless the node is actually a singular point of X
            n_pair += 1
            node_ok = check_smooth_at_node(matrix, p)
            n_pair_smooth += node_ok
            rec["node_smooth"] = node_ok
            if not node_ok:
                failures.append({
                    "check": "node_smoothness", "index": i,
                    "x": list(p[:nx]), "y": list(p[nx:]), "node": list(node),
                })
        else:
            failures.append({
                "check": "generic_fiber_rank", "index": i,
                "x": list(p[:nx]), "y": list(p[nx:]), "got": _FIBER_NAMES[rank],
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

    return {
        "m": params.m,
        "seed": seed,
        "n_samples": n_samples,
        "coeff_range": coeff_range,
        "perturb": perturb,
        "section_terms": {name: len(poly) for name, poly in matrix.named_entries()},
        "v_fibers": {
            "count": n_samples, "double_line": n_v_ok,
            "sigma_nonzero": n_v_ok, "grid_ok": 0 if bad_z else n_samples,
            "grid_points_per_sample": len(Z_GRID), "samples": v_samples,
        },
        "generic_fibers": {
            "count": n_samples, "smooth_conic": n_smooth,
            "line_pair": n_pair, "line_pair_smooth": n_pair_smooth,
            "samples": g_samples,
        },
        "boundary_identity": verdict,
        "chart_lines": {
            "count": n_samples, "squarefree": n_sqfree,
            "resampled_zero": c_resampled, "samples": c_samples,
        },
        "fiber_lines": {
            "count": n_fiber_lines, "degree_six": n_deg6,
            "resampled_zero": f_resampled, "samples": f_samples,
        },
        "failures": failures,
        "passed": not failures,
    }
