"""Pointwise audits of instantiated conic bundles: fiber diagnosis, the
verdicts over V and at nodes, the boundary identity, and line probes of
the discriminant."""

import json
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fanoconic
from fanoconic import coxring, polynomial, verifier
from fanoconic.coxring import (
    _SLOT_NAMES,
    MAX_SECTION_TERMS,
    ConicMatrix,
    _s_rows,
    _section_draws,
    count_sections,
    cox_ring,
    instantiate_sections,
)
from fanoconic.linalg import rank_and_kernel_3x3
from fanoconic.picard import ConstructionParams, DivisorClassY
from fanoconic.polynomial import (
    Poly,
    PolyRing,
    _support_degree,
    u_degree,
    u_is_squarefree,
    u_mul,
)
from fanoconic.verifier import (
    LINE_RESAMPLE_CAP,
    Z_GRID,
    LineProbe,
    boundary_identity_verdict,
    check_smooth_at_node,
    discriminant_on_line,
    fiber_at,
    run_instance,
    sample_generic_point,
    sample_v_point,
    _det_on_line,
    _sample_chart_line,
    _sample_fiber_line,
    _v_coefficients,
    _w_gradient_nonzero,
)

from .oracles import (
    boundary_identity_by_calculus,
    boundary_identity_by_form,
    chart_gradient,
    conic_ring,
    direct_restriction,
    enumerate_monomials,
    eval_gradient_terms,
    eval_terms,
    line_degree_bound,
    quadratic_form,
    rebuilt_matrix,
    restrict_line,
    rref_rank,
    subs,
)

M2 = ConstructionParams(2)


@pytest.fixture(scope="module")
def default_matrix():
    return instantiate_sections(M2, seed=42, coeff_range=50)


@pytest.fixture(scope="module")
def perturbed_matrix():
    return instantiate_sections(M2, seed=42, coeff_range=50, perturb=True)


def _zero_entries():
    z = cox_ring(M2).zero()
    return (z, z, z, z, z, z)


# the sigma' of the default shape, for hand-built matrices
Y0 = cox_ring(M2).var("y0")


# -- points and rings -------------------------------------------------------


def test_conic_ring_names():
    ring = conic_ring(M2)
    assert ring.names[:7] == ("x0", "x1", "x2", "x3", "x4", "x5", "x6")
    assert ring.names[7:] == ("y0", "y1", "y2", "z0", "z1", "z2")
    assert conic_ring(ConstructionParams(2)) is ring


_INADMISSIBLE = {
    "short": ((1,) * 7 + (1, 2), "wrong number of coordinates"),
    "long": ((1,) * 7 + (1, 2, 3, 4), "wrong number of coordinates"),
    "x_zero": ((0,) * 7 + (1, 2, 3), "locus x = 0"),
    "y_zero": ((1,) * 7 + (0, 0, 0), "locus y = 0"),
}


@pytest.mark.parametrize("bad", list(_INADMISSIBLE))
@pytest.mark.parametrize("audit", ["fiber_at", "check_smooth_at_node",
                                   "discriminant_on_line"])
def test_audit_entry_points_refuse_inadmissible_data(default_matrix, audit, bad):
    # the three entry points share one check: n_x + 3 coordinates, x first,
    # and a point or line off {x = 0} and {y = 0}; the line's direction has
    # the zeros of its point, so the line stays inside the same locus
    point, message = _INADMISSIBLE[bad]
    line = (point, tuple(c * (i + 2) for i, c in enumerate(point)))
    calls = {
        "fiber_at": lambda: fiber_at(default_matrix, point),
        "check_smooth_at_node": lambda: check_smooth_at_node(default_matrix, point),
        "discriminant_on_line": lambda: discriminant_on_line(default_matrix, *line),
    }
    with pytest.raises(ValueError, match=message):
        calls[audit]()


# -- conic diagnosis --------------------------------------------------------


def test_diagnose_ranks():
    # fiber_at returns rank_and_kernel_3x3 of S at the point: the rank, and
    # the node only when the conic is a line pair
    assert rank_and_kernel_3x3([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (3, None)
    assert rank_and_kernel_3x3([[1, 0, 0], [0, 1, 0], [0, 0, 0]]) == (2, (0, 0, 1))
    assert rank_and_kernel_3x3([[1, 0, 0], [0, 0, 0], [0, 0, 0]]) == (1, None)
    assert rank_and_kernel_3x3([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == (0, None)


def test_diagnose_accepts_fractions():
    assert rank_and_kernel_3x3([
        [Fraction(1, 2), 0, 0],
        [0, Fraction(1, 3), 0],
        [0, 0, 0],
    ]) == (2, (0, 0, 1))


# -- the section matrix -----------------------------------------------------


def test_matrix_rejects_wrong_entry_degree():
    ring = cox_ring(M2)
    y0 = ring.var("y0")
    entries = list(_zero_entries())
    entries[0] = y0 * y0  # (2, 0) in an s-slot wanting (2, -4)
    with pytest.raises(ValueError):
        ConicMatrix(M2, *entries, sigma_prime=y0)


def test_matrix_rejects_mixed_degree_entry():
    ring = cox_ring(M2)
    entries = list(_zero_entries())
    entries[5] = ring.var("y0") ** 2 + ring.var("y0")
    with pytest.raises(ValueError):
        ConicMatrix(M2, *entries, sigma_prime=Y0)


def test_matrix_rejects_entries_from_another_ring(default_matrix):
    m2_entries = [poly for _, poly in default_matrix.named_entries()]
    with pytest.raises(ValueError, match="entry s1 is not in the ring of m = 3"):
        ConicMatrix(ConstructionParams(3), *m2_entries,
                    sigma_prime=default_matrix.sigma_prime)
    # y0^2 of the m = 3 ring has exponent tuples of another length, which
    # the degree check alone would misread
    y0_m3 = cox_ring(ConstructionParams(3)).var("y0")
    entries = list(_zero_entries())
    entries[5] = y0_m3 * y0_m3
    with pytest.raises(ValueError, match="entry sigma is not in the ring of m = 2"):
        ConicMatrix(M2, *entries, sigma_prime=Y0)
    with pytest.raises(ValueError, match="entry sigma_prime is not in the ring"):
        ConicMatrix(M2, *_zero_entries(), sigma_prime=y0_m3)


def test_default_matrix_shape(default_matrix):
    ring = cox_ring(M2)
    y0, y1, y2 = ring.var("y0"), ring.var("y1"), ring.var("y2")
    assert default_matrix.s1 == y0 * y1
    assert default_matrix.s2 == y0 * y2
    assert default_matrix.s3 == default_matrix.s2
    assert default_matrix.sigma == y0 * y0
    assert default_matrix.sigma_prime == y0
    n_lam = count_sections(DivisorClassY(2, -2), M2)
    assert len(default_matrix.lam1) == n_lam == 2828
    assert len(default_matrix.lam2) == n_lam
    rows = _s_rows(*(poly for _, poly in default_matrix.named_entries()))
    for i in range(3):
        for j in range(3):
            assert rows[i][j] == rows[j][i]


def test_section_draw_size_limit():
    def size(m, perturb):
        params = ConstructionParams(m)
        return sum(count_sections(cls_, params)
                   for cls_, _ in _section_draws(params, perturb))

    assert size(2, False) == 2 * 2828
    assert size(3, False) == 292_600
    assert size(2, True) < size(3, False) < MAX_SECTION_TERMS
    assert MAX_SECTION_TERMS < size(3, True) < size(4, False)
    with pytest.raises(ValueError, match="above the limit"):
        run_instance(ConstructionParams(3), seed=1, n_samples=1, perturb=True)


def test_instantiation_deterministic():
    a = instantiate_sections(M2, seed=7, coeff_range=20)
    b = instantiate_sections(M2, seed=7, coeff_range=20)
    assert a.named_entries() == b.named_entries()
    c = instantiate_sections(M2, seed=8, coeff_range=20)
    assert a.lam1 != c.lam1


@pytest.mark.parametrize("perturb, enumerations", [(False, 1), (True, 4)])
def test_each_basis_is_enumerated_once_per_draw(monkeypatch, perturb, enumerations):
    # lam1 and lam2 share a basis, and so do r1, r2 and r3 under perturb;
    # each basis walks its y-patterns once, and the x-monomials of each
    # x-degree are one slice of the key table, taken once per draw for
    # every pattern, basis and entry that has it
    patterns, x_degrees = [], []
    y_patterns, key_slice = coxring.y_patterns, coxring._key_slice

    def counting_patterns(*args, **kwargs):
        patterns.append(args)
        return y_patterns(*args, **kwargs)

    def counting_slices(ring, lead, d):
        x_degrees.append(d)
        return key_slice(ring, lead, d)

    monkeypatch.setattr(coxring, "y_patterns", counting_patterns)
    monkeypatch.setattr(coxring, "_key_slice", counting_slices)
    matrix = instantiate_sections(M2, seed=5, perturb=perturb)
    assert len(patterns) == enumerations
    # lam has x-degrees 2 and 6; the corrections add 4 (sigma', r) and 8 (w,
    # sigma'^2).  The y-monomials of s1, s2, s3, sigma and sigma' have
    # x-degree 0, whose index range needs no slice
    assert sorted(x_degrees) == ([2, 4, 6, 8] if perturb else [2, 6])
    assert len(matrix.lam1) == len(matrix.lam2) == 2828
    # lam1 and lam2 lie on the same slices: their plans share the index
    # ranges, and the draw made no exponent tuple for either
    assert [idx for *_, idx in matrix.lam1._plan[2]] == \
        [idx for *_, idx in matrix.lam2._plan[2]] == \
        [range(8, 36), range(8, 36), *[range(792, 1716)] * 3]
    assert matrix.lam1._terms is matrix.lam2._terms is None


@pytest.mark.parametrize("m, perturb, sigma_prime_terms", [
    pytest.param(2, False, 1, id="False-1"), pytest.param(2, True, 421, id="True-421"),
    pytest.param(3, False, 1, id="m3-False-1")])
def test_the_audit_builds_no_entry_terms(monkeypatch, m, perturb, sigma_prime_terms):
    # the audit reads the class, sizes, V coefficients and length of each
    # entry and of sigma' off its block plan: no polynomial has its terms
    # read, and no plan is compiled from a term dict
    read, compiled, drawn = [], [], []
    terms, build_plan, draw = polynomial.Poly.terms.fget, polynomial._build_plan, \
        verifier._draw_matrix

    def counting_terms(poly):
        read.append(poly)
        return terms(poly)

    def counting_build_plan(poly_terms):
        compiled.append(poly_terms)
        return build_plan(poly_terms)

    def keeping_draw(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(polynomial.Poly, "terms", property(counting_terms))
    monkeypatch.setattr(polynomial, "_build_plan", counting_build_plan)
    monkeypatch.setattr(verifier, "_draw_matrix", keeping_draw)
    params = ConstructionParams(m)
    assert run_instance(params, seed=1, n_samples=3, perturb=perturb)["passed"]
    assert (read, compiled) == ([], [])
    (matrix,) = drawn
    assert len(matrix.sigma_prime) == sigma_prime_terms
    assert all(poly._terms is None
               for poly in (*dict(matrix.named_entries()).values(), matrix.sigma_prime))


def test_perturbed_matrix_shares_lambda_draws(default_matrix, perturbed_matrix):
    assert perturbed_matrix.lam1 == default_matrix.lam1
    assert perturbed_matrix.lam2 == default_matrix.lam2
    assert perturbed_matrix.s1 != default_matrix.s1
    assert len(perturbed_matrix.sigma) > 1


def test_perturbed_s_block_is_drawn_independently(perturbed_matrix):
    ring = cox_ring(M2)
    iy1, iy2 = ring.names.index("y1"), ring.names.index("y2")
    base = perturbed_matrix.sigma_prime * ring.var("y2")
    assert perturbed_matrix.s3 != perturbed_matrix.s2
    for entry in (perturbed_matrix.s2, perturbed_matrix.s3):
        correction = entry - base
        assert len(correction) > 1
        assert all(e[iy1] + e[iy2] >= 2 for e in correction.terms)


def test_quadratic_form_evaluates_like_matrix(default_matrix):
    rng = random.Random(1)
    F = quadratic_form(default_matrix)
    for _ in range(4):
        p = sample_generic_point(M2, rng, coeff_range=9)
        z = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        rows = default_matrix.evaluate(p)
        expected = sum(
            rows[i][j] * z[i] * z[j] for i in range(3) for j in range(3)
        )
        assert F.eval(p + z) == expected


@pytest.mark.parametrize("perturb", [False, True])
def test_form_restricted_to_V_is_sigma_z2_squared(
    default_matrix, perturbed_matrix, perturb
):
    matrix = perturbed_matrix if perturb else default_matrix
    ring = conic_ring(M2)
    restricted = subs(quadratic_form(matrix), {"y1": 0, "y2": 0})
    assert restricted == ring.var("y0") ** 2 * ring.var("z2") ** 2


@pytest.mark.parametrize("perturb", [False, True])
def test_entry_evaluation_matches_term_oracle(
    default_matrix, perturbed_matrix, perturb
):
    matrix = perturbed_matrix if perturb else default_matrix
    rng = random.Random(5)
    points = [sample_v_point(M2, rng, coeff_range=30),
              sample_generic_point(M2, rng, coeff_range=30),
              (0,) * M2.n_x + (0, 1, 0)]
    point, direction = _sample_chart_line(M2, rng, 9)
    points += [tuple(p + t * d for p, d in zip(point, direction))
               for t in (0, 1, -1)]
    for name, poly in matrix.named_entries():
        for pt in points:
            assert poly.eval(pt) == eval_terms(poly, pt), name


# -- fibers -----------------------------------------------------------------


def test_fiber_over_V_is_double_line(default_matrix):
    rng = random.Random(3)
    for _ in range(5):
        p = sample_v_point(M2, rng, coeff_range=30)
        assert fiber_at(default_matrix, p) == (1, None)
        assert default_matrix.sigma.eval(p) != 0


def test_generic_fiber_is_smooth_conic(default_matrix):
    rng = random.Random(4)
    for _ in range(5):
        p = sample_generic_point(M2, rng, coeff_range=30)
        assert fiber_at(default_matrix, p) == (3, None)


def test_fiber_rejects_inadmissible_point(default_matrix):
    with pytest.raises(ValueError):
        fiber_at(default_matrix, (0,) * 7 + (1, 2, 3))


def test_fiber_rank_is_torus_invariant(default_matrix):
    rng = random.Random(5)
    for on_v in (False, True):
        sampler = sample_v_point if on_v else sample_generic_point
        p = sampler(M2, rng, coeff_range=20)
        x, (y0, y1, y2) = p[:M2.n_x], p[M2.n_x:]
        scaled = tuple(2 * c for c in x) + (3 * y0, Fraction(y1, 16), Fraction(y2, 16))
        assert fiber_at(default_matrix, p)[0] == fiber_at(default_matrix, scaled)[0]


def _rank_two_witness(matrix):
    # with y2 = 0 the middle row of S is (0, 0, lam2); writing
    # lam2(x, y0, y1, 0) = y0 y1 A(x) + y1^2 B(x), the point
    # y = (B(x0), -A(x0), 0) kills it exactly, leaving a rank-2 matrix
    x0 = (1, 2, -1, 3, 1, -2, 1)
    b_val = matrix.lam2.eval(x0 + (0, 1, 0))
    a_val = matrix.lam2.eval(x0 + (1, 1, 0)) - b_val
    assert a_val != 0 and b_val != 0
    return x0 + (b_val, -a_val, 0)


def test_deterministic_line_pair_witness(default_matrix):
    p = _rank_two_witness(default_matrix)
    rank, node = fiber_at(default_matrix, p)
    assert (rank, node) == (2, (0, 1, 0))
    assert check_smooth_at_node(default_matrix, p)
    assert chart_gradient(default_matrix, p, _chart_node(default_matrix, p, node)) \
        == (True, True)


def test_node_check_rejects_wrong_rank(default_matrix):
    rng = random.Random(6)
    p = sample_generic_point(M2, rng, coeff_range=20)
    assert fiber_at(default_matrix, p)[0] == 3
    with pytest.raises(ValueError, match="rank 2"):
        check_smooth_at_node(default_matrix, p)


def _node_gradient_nonzero(matrix, point, node):
    """Whether some Cox-coordinate partial of F = z^T S z is nonzero at
    (point, node), each partial by diff; the z-partials 2 S node vanish."""
    k0, k1, k2 = node
    weights = (k0 * k0, 2 * k0 * k1, k1 * k1, 2 * k0 * k2, 2 * k1 * k2, k2 * k2)
    grads = [eval_gradient_terms(poly, point) for _, poly in matrix.named_entries()]
    return any(sum(w * g[v] for w, g in zip(weights, grads))
               for v in range(len(point)))


def test_node_verdict_off_the_y0_chart(default_matrix):
    # at y0 = 0 the default shape leaves S = [[0, 0, l1], [0, 0, l2],
    # [l1, l2, 0]], a rank-2 fiber, and only dF/dy0 can be nonzero; the
    # hand-built matrices have S = diag(1, 1, 0) at the point, with sigma
    # vanishing to second order there or not
    ring = cox_ring(M2)
    x0, x1, y1, y2 = (ring.var(v) for v in ("x0", "x1", "y1", "y2"))
    z = ring.zero()
    s1, s3 = x0 ** 4 * y1 * y1, x0 ** 4 * y2 * y2
    cases = [
        (default_matrix, (1, 2, -1, 3, 1, -2, 1) + (0, 1, 2), True),
        (ConicMatrix(M2, s1, z, s3, z, z, z, sigma_prime=Y0),
         (1,) + (0,) * 6 + (0, 1, 1), False),
        (ConicMatrix(M2, s1, z, s3, z, z, x0 ** 7 * x1 * y1 * y1, sigma_prime=Y0),
         (1,) + (0,) * 6 + (0, 1, 1), True),
    ]
    for matrix, p, smooth in cases:
        rank, node = fiber_at(matrix, p)
        assert rank == 2
        assert check_smooth_at_node(matrix, p) is smooth \
            == _node_gradient_nonzero(matrix, p, node)


def test_node_check_refuses_non_integer_data(default_matrix):
    p = _rank_two_witness(default_matrix)
    with pytest.raises(ValueError, match="integers"):
        check_smooth_at_node(default_matrix, (Fraction(1),) + p[1:])
    halved = rebuilt_matrix(default_matrix, lam2=default_matrix.lam2 * Fraction(1, 2))
    with pytest.raises(ValueError, match="lam2 has a non-integer coefficient"):
        check_smooth_at_node(halved, p)


def test_singular_node_is_reported():
    # s1 = y0 y1, s3 = y0 y2, everything else zero: at y = (1, 1, 1) the
    # fiber is the line pair z0^2 + z1^2 with node (0, 0, 1), and the total
    # space is singular there because sigma is identically zero
    ring = cox_ring(M2)
    y0, y1, y2 = ring.var("y0"), ring.var("y1"), ring.var("y2")
    z = ring.zero()
    matrix = ConicMatrix(M2, y0 * y1, z, y0 * y2, z, z, z, sigma_prime=y0)
    p = (1, 0, 0, 0, 0, 0, 0) + (1, 1, 1)
    assert fiber_at(matrix, p) == (2, (0, 0, 1))
    assert check_smooth_at_node(matrix, p) is False
    assert chart_gradient(matrix, p, (0, 0, 1)) == (True, False)


def test_whole_plane_on_zero_matrix():
    matrix = ConicMatrix(M2, *_zero_entries(), sigma_prime=Y0)
    p = (1,) * 7 + (1, 2, 3)
    assert fiber_at(matrix, p) == (0, None)


# -- the boundary identity --------------------------------------------------


def test_boundary_identity_default(default_matrix):
    assert boundary_identity_verdict(default_matrix) == "PASS"


def test_boundary_identity_perturbed(perturbed_matrix):
    assert boundary_identity_verdict(perturbed_matrix) == "PASS"


def test_boundary_identity_fails_on_broken_shape():
    ring = cox_ring(M2)
    y0, y1 = ring.var("y0"), ring.var("y1")
    z = ring.zero()
    matrix = ConicMatrix(
        M2, y0 * y1, z, z, z, z, y0 * y0, sigma_prime=y0
    )
    assert boundary_identity_verdict(matrix) == "FAIL"


def _boundary_variants():
    # the grading already makes s1, s2, s3, lam1 and lam2 vanish on V and
    # leaves the y-partials of the s-block as multiples of y0 there, so what
    # can break the identity is a wrong multiple; each variant changes one
    # entry, or sigma', of the default shape
    ring = cox_ring(M2)
    x0, x1 = ring.var("x0"), ring.var("x1")
    y0, y1, y2 = ring.var("y0"), ring.var("y1"), ring.var("y2")
    z = ring.zero()
    good = dict(s1=y0 * y1, s2=y0 * y2, s3=y0 * y2, lam1=z, lam2=z,
                sigma=y0 * y0, sigma_prime=y0)
    x4 = x0 ** 4
    second_order = {"s1": x4 * y1 * y1, "s2": x4 * y1 * y2, "s3": x4 * y2 * y2}
    half = Fraction(1, 2)
    variants = {
        "default": {},
        "s1 has a dy2 term": {"s1": y0 * y1 + y0 * y2},
        "s2 has a dy1 term": {"s2": y0 * y2 - y0 * y1},
        "s3 scaled": {"s3": 2 * y0 * y2},
        "sigma prime scaled": {"sigma_prime": 3 * y0},
        "s block second order": {"s1": y0 * y1 + x4 * y1 * y1,
                                 "s3": y0 * y2 + x4 * y1 * y2},
        "lam block": {"lam1": x0 * x0 * y0 * y1, "lam2": x1 * x1 * y0 * y2},
        "sigma": {"sigma": 5 * y0 * y0 + x4 * x1 ** 4 * y1 * y2},
        "sigma prime has x0 y0": {"sigma_prime": y0 + x0 * y0},
        "sigma prime has a constant": {"sigma_prime": y0 + 1},
        "sigma prime has a y1 term": {"sigma_prime": y0 + x4 * y1},
        "sigma prime zero on V": dict(second_order, sigma_prime=x4 * y1),
        "sigma prime zero on V, s1 first order":
            dict(second_order, s1=y0 * y1, sigma_prime=x4 * y2),
        "rational coefficients": {"s1": half * y0 * y1, "s2": half * y0 * y2,
                                  "s3": half * y0 * y2, "sigma_prime": half * y0},
    }
    names = ("s1", "s2", "s3", "lam1", "lam2", "sigma")
    for label, change in variants.items():
        e = dict(good, **change)
        yield label, (*(e[n] for n in names), e["sigma_prime"])


BOUNDARY_VARIANTS = dict(_boundary_variants())

# variants whose sigma' is not of the class D, with the classes its terms
# have: ConicMatrix refuses them, so no verdict is ever read off them
REFUSED_VARIANTS = {"sigma prime has x0 y0": "1D+0H, 1D+1H",
                    "sigma prime has a constant": "0D+0H, 1D+0H"}


def _variant_matrix(label):
    *entries, sigma_prime = BOUNDARY_VARIANTS[label]
    return ConicMatrix(M2, *entries, sigma_prime=sigma_prime)


def _assert_variant_refused(label):
    with pytest.raises(ValueError,
                       match=re.escape(f"homogeneous: {REFUSED_VARIANTS[label]}")):
        _variant_matrix(label)


@pytest.mark.parametrize("label", list(BOUNDARY_VARIANTS))
def test_boundary_identity_matches_form_oracle(label):
    if label in REFUSED_VARIANTS:
        _assert_variant_refused(label)
        return
    matrix = _variant_matrix(label)
    verdict = boundary_identity_verdict(matrix)
    assert verdict == boundary_identity_by_form(matrix) \
        == boundary_identity_by_calculus(matrix)
    assert (verdict == "PASS") == (label in {
        "default", "s block second order", "lam block", "sigma",
        "sigma prime has a y1 term", "sigma prime zero on V", "rational coefficients"})


@pytest.mark.parametrize("seed", [5, 7, 42])
@pytest.mark.parametrize("perturb", [False, True])
def test_drawn_boundary_identity_matches_form_oracle(seed, perturb):
    matrix = instantiate_sections(M2, seed=seed, coeff_range=9, perturb=perturb)
    assert boundary_identity_verdict(matrix) == boundary_identity_by_form(matrix) \
        == boundary_identity_by_calculus(matrix) == "PASS"


# -- verdicts against the chart-gradient oracle -----------------------------


def _chart_node(matrix, point, node):
    # chart_gradient moves the point to x_{j*} = 1, y0 = 1, which turns S
    # into diag(nu, nu, 1) S diag(nu, nu, 1) up to a scalar, nu = x_{j*}^m,
    # so its kernel is diag(1, 1, nu) node up to a scalar
    nu = max(point[:matrix.params.n_x], key=abs) ** matrix.params.m
    return node[0], node[1], node[2] * nu


@pytest.fixture(scope="module")
def section_monomials():
    """The exponent tuples of each class the hand-built matrices use."""
    return {cls: enumerate_monomials(*cls, M2.twist, M2.n_x)
            for cls in ((2, -4), (2, -2), (2, 0), (1, -2), (1, 0))}


def _node_case(rng, monomials, singular):
    """A matrix whose S has the kernel (1, k1, k2) at a random point.

    Each entry is a few random terms, shifted by a multiple of a unit
    monomial (one that is 1 at the point) until S k = 0 there.  In the
    singular case k^T S k = q^2 + 2 k2 q r + k2^2 w^2 with q, r and w
    vanishing at the point, so F is singular at the node."""
    ring = cox_ring(M2)
    x0, y0, y1 = ring.var("x0"), ring.var("y0"), ring.var("y1")
    units = {(2, -4): y0 * y1, (2, -2): x0 ** 2 * y0 * y1, (2, 0): y0 * y0,
             (1, -2): x0 ** 2 * y1, (1, 0): y0}
    coords = (1,) + tuple(rng.randint(-3, 3) for _ in range(6)) \
        + (1, 1, rng.randint(-3, 3))

    def section(cls, at_point=None):
        poly = Poly(ring, {rng.choice(monomials[cls]): rng.choice((-3, -2, -1, 1, 2, 3))
                           for _ in range(3)})
        if at_point is None:
            return poly
        return poly + (at_point - poly.eval(coords)) * units[cls]

    k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
    s3, lam2 = section((2, -4)), section((2, -2))
    s2 = section((2, -4), -k1 * s3.eval(coords) - k2 * lam2.eval(coords))
    if singular:
        q, r, w = section((1, -2), 0), section((1, 0), 0), section((1, 0), 0)
        s1, lam1, sigma = q * q - 2 * k1 * s2 - k1 * k1 * s3, q * r - k1 * lam2, w * w
    else:
        sigma = section((2, 0))
        lam1 = section((2, -2), -k1 * lam2.eval(coords) - k2 * sigma.eval(coords))
        s1 = section((2, -4), -k1 * s2.eval(coords) - k2 * lam1.eval(coords))
    matrix = ConicMatrix(M2, s1, s2, s3, lam1, lam2, sigma, sigma_prime=Y0)
    return matrix, coords


def test_audit_matches_rescaling_oracle(section_monomials):
    # the node verdict from det S against chart_gradient at the node, on
    # hand-built matrices with smooth and with singular nodes
    rng = random.Random(13)
    verdicts = []
    for i in range(60):
        matrix, p = _node_case(rng, section_monomials, singular=i % 2)
        rank, node = fiber_at(matrix, p)
        if rank != 2:
            continue
        verdict = check_smooth_at_node(matrix, p)
        assert chart_gradient(matrix, p, _chart_node(matrix, p, node)) \
            == (True, verdict)
        assert not (i % 2 and verdict)
        verdicts.append(verdict)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


@pytest.mark.parametrize("label", ["default draw", "perturbed draw", "zero entries"]
                         + list(BOUNDARY_VARIANTS))
def test_v_verdicts_match_rescaling_oracle(label, default_matrix, perturbed_matrix,
                                           monkeypatch):
    # the V fibers and the z-grid are decided from _v_coefficients; redo
    # each at the reported V points, by ranks of term-by-term values and
    # by chart_gradient.  Line probes need integer entries and are tested
    # on their own, so they are stubbed here
    if label in REFUSED_VARIANTS:
        _assert_variant_refused(label)
        return
    if label in BOUNDARY_VARIANTS:
        matrix = _variant_matrix(label)
    else:
        matrix = {"default draw": default_matrix, "perturbed draw": perturbed_matrix,
                  "zero entries": ConicMatrix(M2, *_zero_entries(), sigma_prime=Y0)}[label]
    monkeypatch.setattr(verifier, "_draw_matrix", lambda *args: matrix)
    monkeypatch.setattr(verifier, "discriminant_on_line",
                        lambda *args: LineProbe(6, True))
    report = run_instance(M2, seed=17, n_samples=2, coeff_range=25)
    v = report["v_fibers"]
    failed = {(f["index"], tuple(f["z"])) for f in report["failures"]
              if f["check"] == "gradient_on_W"}
    assert all(z[2] == 0 for z in Z_GRID)
    for i, sample in enumerate(v["samples"]):
        p = (*sample["x"], sample["y0"], 0, 0)
        values = [eval_terms(poly, p) for _, poly in matrix.named_entries()]
        rank = rref_rank(_s_rows(*values))
        assert sample["fiber"] == ("DOUBLE_LINE" if rank == 1 else "WHOLE_PLANE")
        assert sample["sigma_nonzero"] == (values[-1] != 0)
        grid = [chart_gradient(matrix, p, z) for z in Z_GRID]
        assert all(on_x for on_x, _ in grid)
        assert [(i, z) not in failed for z in Z_GRID] == [ok for _, ok in grid]
        assert sample["grid_ok"] == all(ok for _, ok in grid)
    assert v["double_line"] == sum(s["fiber"] == "DOUBLE_LINE" for s in v["samples"])
    assert v["sigma_nonzero"] == sum(s["sigma_nonzero"] for s in v["samples"])
    assert v["grid_ok"] == sum(s["grid_ok"] for s in v["samples"])
    assert (v["grid_ok"] == 0) == (label in {
        "zero entries", "sigma prime zero on V", "sigma prime zero on V, s1 first order"})


def test_smoothness_over_V(default_matrix):
    # every point of the W grid over a V point lies on X, with a nonzero
    # gradient, by the verdict from the pairs and by chart_gradient
    _, pairs = _v_coefficients(default_matrix)
    rng = random.Random(9)
    for _ in range(3):
        p = sample_v_point(M2, rng, coeff_range=30)
        for z in Z_GRID:
            assert _w_gradient_nonzero(pairs, z)
            assert chart_gradient(default_matrix, p, z) == (True, True)


# -- line probes ------------------------------------------------------------


class _OneEntry:
    """A stand-in for ConicMatrix in _det_on_line whose det S is poly:
    s1 = poly, s3 = sigma = 1 and the other entries zero."""

    _entry_sizes = property(ConicMatrix._entry_sizes.func)

    def __init__(self, poly):
        zero, one = poly.ring.zero(), poly.ring.one()
        self.entries = (("s1", poly), ("s2", zero), ("s3", one),
                        ("lam1", zero), ("lam2", zero), ("sigma", one))
        self._line_bounds = {}

    def named_entries(self):
        return self.entries


def _restrict(poly, point, direction):
    return _det_on_line(_OneEntry(poly), point, direction)


RING4 = PolyRing(("a", "b", "c", "d"))
line_poly = st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * 4),
    st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12)),
    max_size=12,
).map(lambda terms: Poly(RING4, terms))
line_coords = st.tuples(*[st.one_of(st.just(0), st.integers(-6, 6))] * 4)


@settings(max_examples=300, deadline=None)
@given(line_poly, line_coords, line_coords)
# a zero polynomial, and a restriction t^3 with zero lower coefficients
@example(Poly(RING4, {}), (1, 2, 0, 0), (0, 1, 1, 0))
@example(Poly(RING4, {(3, 0, 0, 0): 5}), (0, 1, 1, 1), (2, 0, 0, 1))
# a^2 - b^2 on a = b: bound 2, restriction of degree 0
@example(Poly(RING4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 0, 0): 3}),
         (1, 1, 0, 0), (1, 1, 0, 0))
def test_entry_restriction_matches_binomial_oracle(poly, point, direction):
    if not any(direction):
        direction = (0, 0, 0, 1)
    assert _restrict(poly, point, direction) == restrict_line(poly, point, direction)


@settings(max_examples=200, deadline=None)
@given(line_poly)
# the total degree 3 in one term only
@example(Poly(RING4, {(0, 0, 0, 0): 1, (3, 0, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 1, 0): 1,
                      (0, 1, 0, 0): 1, (0, 0, 1, 1): 1, (0, 0, 0, 2): 1, (0, 0, 2, 0): 1}))
def test_entry_sizes_read_off_any_plan_match_the_terms(poly):
    # read off the plan of one group per term
    assert _OneEntry(poly)._entry_sizes["s1"] == \
        (sum(map(abs, poly.terms.values())), max(map(sum, poly.terms), default=0))


@pytest.mark.parametrize("sign", [1, -1])
def test_entry_restriction_at_the_coefficient_bound(sign):
    # a and b start at 0 and move by 1, c sits at 1, so M = 1 and the
    # restriction is 127 t^2: its top coefficient is B = ||f||_1 * M^3,
    # and B = 2^7 - 1 is the largest coefficient the chosen K = 8 admits
    poly = Poly(RING4, {(2, 0, 1, 0): 100 * sign, (1, 1, 1, 0): 27 * sign})
    point, direction = (0, 0, 1, 0), (1, 1, 0, 0)
    assert _OneEntry(poly)._entry_sizes["s1"] == (127, 3)
    assert _restrict(poly, point, direction) == [0, 0, 127 * sign] \
        == restrict_line(poly, point, direction)


def test_entry_restriction_rejects_a_low_bound():
    stand_in = _OneEntry(Poly(RING4, {(2, 0, 0, 0): 1}))
    stand_in._line_bounds[(0,)] = {"s1": 1, "s2": None, "s3": 0,
                                   "lam1": None, "lam2": None, "sigma": 0}
    with pytest.raises(AssertionError, match="line degree bound"):
        _det_on_line(stand_in, (1, 0, 0, 0), (1, 0, 0, 0))


def test_line_probe_low_bound_raises_under_optimized_mode():
    # python -O strips assert statements; the digit-count invariant is a
    # raise, so a too-small line bound on one entry still fails loudly
    code = """if True:
        import random
        from fanoconic.coxring import instantiate_sections
        from fanoconic.picard import ConstructionParams
        from fanoconic.verifier import _sample_chart_line, discriminant_on_line
        m2 = ConstructionParams(2)
        matrix = instantiate_sections(m2, seed=3, coeff_range=20)
        point, direction = _sample_chart_line(m2, random.Random(4), 9)
        discriminant_on_line(matrix, point, direction)
        support = tuple(i for i, d in enumerate(direction) if d)
        matrix._line_bounds[support]["lam1"] = 0
        try:
            discriminant_on_line(matrix, point, direction)
        except AssertionError as exc:
            print("raised:", exc)
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(fanoconic.__file__)))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: restriction exceeds its line degree bound\n"


def test_line_probe_refuses_non_integer_data(default_matrix, monkeypatch):
    evals = []
    eval_ = Poly.eval

    def counting_eval(poly, values):
        evals.append(1)
        return eval_(poly, values)

    monkeypatch.setattr(Poly, "eval", counting_eval)
    point, direction = _sample_chart_line(M2, random.Random(24), 9)
    half_point = (Fraction(1, 2),) + point[1:]
    whole_direction = direction[:-1] + (Fraction(direction[-1] or 1),)
    with pytest.raises(ValueError, match="integers"):
        discriminant_on_line(default_matrix, half_point, direction)
    with pytest.raises(ValueError, match="integers"):
        discriminant_on_line(default_matrix, point, whole_direction)
    halved = rebuilt_matrix(default_matrix, lam2=default_matrix.lam2 * Fraction(1, 2))
    with pytest.raises(ValueError, match="lam2 has a non-integer coefficient"):
        discriminant_on_line(halved, point, direction)
    assert not evals


def test_line_probe_validation(default_matrix):
    nx = M2.n_x
    good_point = (1,) * nx + (1, 0, 0)
    good_dir = (0,) * nx + (0, 1, 1)
    with pytest.raises(ValueError):
        discriminant_on_line(default_matrix, good_point[:-1], good_dir)
    with pytest.raises(ValueError):
        discriminant_on_line(
            default_matrix, (0,) * nx + (1, 2, 3), (0,) * nx + (0, 1, 1)
        )
    with pytest.raises(ValueError):
        discriminant_on_line(
            default_matrix, (1,) * nx + (0, 0, 0), (1,) * nx + (0, 0, 0)
        )
    # a zero direction is a point, not a line
    with pytest.raises(ValueError, match="zero line direction"):
        discriminant_on_line(default_matrix, good_point, (0,) * (nx + 3))


def test_line_inside_V_is_identically_zero(default_matrix):
    nx = M2.n_x
    point = (1,) + (0,) * (nx - 1) + (1, 0, 0)
    direction = (0, 1) + (0,) * (nx - 2) + (0, 0, 0)
    probe = discriminant_on_line(default_matrix, point, direction)
    assert probe.identically_zero
    assert probe.degree == -1
    assert probe.squarefree is None


@pytest.mark.parametrize("perturb", [False, True])
def test_chart_line_through_V_has_a_repeated_root(default_matrix, perturbed_matrix,
                                                  perturb):
    # adj S = 0 on V, so d(det S) = tr(adj S dS) vanishes there: Delta is
    # singular along V.  The y-part (1, 2 + 4t, -3 - 6t) of this chart line
    # meets V at t = -1/2, a root of det S on the line and of its derivative
    matrix = perturbed_matrix if perturb else default_matrix
    point = (1, 2, -1, 3, 1, -2, 1) + (1, 2, -3)
    direction = (0, 1, 2, -1, 1, 3, -2) + (0, 4, -6)
    det = direct_restriction(matrix, point, direction)
    t = Fraction(-1, 2)
    assert det and sum(c * t ** k for k, c in enumerate(det)) == 0
    assert sum(k * c * t ** (k - 1) for k, c in enumerate(det) if k) == 0
    assert discriminant_on_line(matrix, point, direction).squarefree is False


def _assert_probe_matches_oracle(matrix, point, direction):
    probe = discriminant_on_line(matrix, point, direction)
    direct = direct_restriction(matrix, point, direction)
    assert probe.degree == u_degree(direct)
    assert probe.identically_zero == (not direct)
    assert probe.squarefree == (u_is_squarefree(direct) if direct else None)


@pytest.mark.parametrize("perturb", [False, True])
def test_line_probe_matches_direct_restriction(
    default_matrix, perturbed_matrix, perturb
):
    matrix = perturbed_matrix if perturb else default_matrix
    rng = random.Random(21)
    nx = M2.n_x
    for _ in range(2):
        point = (1,) + tuple(rng.randint(-9, 9) for _ in range(nx - 1)) \
            + (1, rng.randint(-9, 9), rng.randint(-9, 9))
        direction = (0,) + tuple(rng.randint(-9, 9) for _ in range(nx - 1)) \
            + (0, rng.randint(-9, 9), rng.randint(-9, 9))
        _assert_probe_matches_oracle(matrix, point, direction)
        _assert_probe_matches_oracle(matrix, *_sample_fiber_line(M2, rng, 9))


def test_line_probe_matches_direct_restriction_with_zero_slots(default_matrix):
    zero = cox_ring(M2).zero()
    rng = random.Random(22)
    for slots in (("s2", "lam2"), ("s1", "s3"), ("lam1", "lam2"), _SLOT_NAMES):
        matrix = rebuilt_matrix(default_matrix, **{name: zero for name in slots})
        for _ in range(2):
            _assert_probe_matches_oracle(matrix, *_sample_chart_line(M2, rng, 9))
            _assert_probe_matches_oracle(matrix, *_sample_fiber_line(M2, rng, 9))


@pytest.mark.parametrize("sampler", [_sample_chart_line, _sample_fiber_line])
def test_line_probe_work(perturbed_matrix, monkeypatch, sampler):
    # one eval per nonzero entry, and no rank of a 3x3 matrix of numbers
    evals, ranks = [], []
    eval_ = Poly.eval
    rank_and_kernel = verifier.rank_and_kernel_3x3

    def counting_eval(poly, values):
        evals.append(1)
        return eval_(poly, values)

    def counting_rank_and_kernel(rows):
        ranks.append(1)
        return rank_and_kernel(rows)

    monkeypatch.setattr(Poly, "eval", counting_eval)
    monkeypatch.setattr(verifier, "rank_and_kernel_3x3", counting_rank_and_kernel)
    point, direction = sampler(M2, random.Random(23), 9)
    matrix = rebuilt_matrix(perturbed_matrix, s2=cox_ring(M2).zero())
    discriminant_on_line(matrix, point, direction)
    assert len(evals) == 5
    assert not ranks
    # the counter sits where the fiber diagnosis looks the function up
    fiber_at(matrix, point)
    assert ranks == [1]


def test_entries_share_one_table_per_point(perturbed_matrix, monkeypatch):
    # every entry of the perturbed shape leads with the x block, so the
    # six evaluations at a point, and the six at one line probe's point,
    # fill one table of x-monomials, each entry of it once: the s-block
    # asks for degree 4, lam for 6 and sigma for 8
    fills = []
    extend_table = polynomial._extend_table

    def recording_extend(table, head, done, top, op):
        if op is operator.mul:
            fills.append((id(table), done, top))
        extend_table(table, head, done, top, op)

    monkeypatch.setattr(polynomial, "_extend_table", recording_extend)
    monkeypatch.setattr(cox_ring(M2), "_table", None)
    point = sample_generic_point(M2, random.Random(31), coeff_range=20)
    perturbed_matrix.evaluate(point)
    assert len({table for table, _, _ in fills}) == 1
    assert [(done, top) for _, done, top in fills] == [(0, 4), (4, 6), (6, 8)]
    perturbed_matrix.evaluate(point)
    assert len(fills) == 3
    fills.clear()
    discriminant_on_line(perturbed_matrix, *_sample_chart_line(M2, random.Random(32), 9))
    assert len({table for table, _, _ in fills}) == 1
    assert [(done, top) for _, done, top in fills] == [(0, 4), (4, 6), (6, 8)]


def test_fiber_line_is_sextic(default_matrix):
    # y-pencil with invertible leading matrix: the t^6 coefficient is
    # det S at (x0, direction y), a generic fiber point, hence nonzero
    nx = M2.n_x
    point = (1, 2, -1, 3, 1, -2, 1) + (1, 2, -1)
    direction = (0,) * nx + (2, 1, 3)
    probe = discriminant_on_line(default_matrix, point, direction)
    assert probe.degree == 6
    assert not probe.identically_zero


def test_fiber_pencils_move_y0(default_matrix):
    # y0 divides det S on the default shape, so a pencil whose direction
    # has v_y0 = 0 loses the t^6 coefficient; at bound 1 a third of the raw
    # draws have v_y0 = 0, and each is redrawn
    nx = M2.n_x
    rng = random.Random(25)
    for _ in range(30):
        assert _sample_fiber_line(M2, rng, 1)[1][nx] != 0
    point, direction = _sample_fiber_line(M2, rng, 9)
    assert discriminant_on_line(default_matrix, point, direction).degree == 6
    flat = (0,) * nx + (0,) + direction[nx + 1:]
    assert discriminant_on_line(default_matrix, point, flat).degree == 5


def test_fiber_pencils_move_off_V(default_matrix):
    # a pencil direction on V (v_y1 = v_y2 = 0) meets V at t = infinity,
    # where Delta is singular, so det S loses at least two degrees; at
    # bound 1 two of the 27 raw directions have v_y0 != 0 and lie on V
    nx = M2.n_x
    rng = random.Random(27)
    for _ in range(30):
        assert any(_sample_fiber_line(M2, rng, 1)[1][nx + 1:])
    point, direction = _sample_fiber_line(M2, rng, 9)
    on_v = (0,) * nx + (direction[nx], 0, 0)
    assert discriminant_on_line(default_matrix, point, on_v).degree <= 4


def test_chart_lines_with_fixed_y_on_the_square_divisors(default_matrix):
    # on the default shape det S = -y0 y1 lam2^2 on {y2 = 0} and
    # -y0 y1 (lam1 - lam2)^2 on {y1 = y2}, so a chart line whose y-part
    # stays on either divisor restricts det S to a square times -y1
    x_point, x_direction = (1, 2, -1, 3, 1, -2, 1), (0, 1, 2, -1, 1, 3, -2)
    lam1, lam2 = default_matrix.lam1, default_matrix.lam2
    for ys, square in (((1, 3, 0), lam2), ((1, 2, 2), lam1 - lam2)):
        point, direction = x_point + ys, x_direction + (0, 0, 0)
        root = restrict_line(square, point, direction)
        assert direct_restriction(default_matrix, point, direction) == \
            u_mul([-ys[1]], u_mul(root, root))
        assert discriminant_on_line(default_matrix, point, direction).squarefree is False


@pytest.mark.parametrize("support", [(8,), (0,), (7, 8, 9), tuple(range(10))])
def test_line_degree_bound_is_the_largest_support_degree(perturbed_matrix, support):
    # drawn entries read the bound off their block plans, a rebuilt copy
    # off the plan _build_plan compiles
    for _, poly in perturbed_matrix.named_entries():
        largest = max(sum(exps[i] for i in support) for exps in poly.terms)
        assert _support_degree(poly, support) == largest
        assert _support_degree(Poly(poly.ring, poly.terms), support) == largest
        assert line_degree_bound(poly, support) == largest
    assert _support_degree(cox_ring(M2).zero(), support) is None
    assert line_degree_bound(cox_ring(M2).zero(), support) is None


def test_line_degree_bounds_are_memoized_per_support():
    matrix = instantiate_sections(M2, seed=3, coeff_range=20)
    nx = M2.n_x
    lines = [
        ((1, 2, -1, 3, 1, -2, 1, 1, 2, -1), (0,) * nx + (2, 1, 3)),
        ((1, 2, -1, 3, 1, -2, 1, 1, 2, -1), (0,) * nx + (0, 1, 0)),
        ((1,) * nx + (1, 2, 3), (0, 1, 2, 3, 4, 5, 6, 0, 1, 1)),
        ((2,) * nx + (1, 0, 3), (0, 6, 5, 4, 3, 2, 1, 0, 2, 1)),
    ]
    for point, direction in lines:
        discriminant_on_line(matrix, point, direction)
    supports = {(7, 8, 9), (8,), (1, 2, 3, 4, 5, 6, 8, 9)}
    assert set(matrix._line_bounds) == supports
    for support in supports:
        assert matrix._line_bounds[support] == {
            name: line_degree_bound(poly, support)
            for name, poly in matrix.named_entries()}


# -- samplers ---------------------------------------------------------------


def test_samplers():
    rng = random.Random(31)
    for _ in range(10):
        nx = M2.n_x
        p = sample_v_point(M2, rng, coeff_range=10)
        assert len(p) == nx + 3 and any(p[:nx]) and p[nx] != 0 and p[nx + 1:] == (0, 0)
        q = sample_generic_point(M2, rng, coeff_range=10)
        assert len(q) == nx + 3 and any(q[:nx]) and q[nx] != 0 and q[nx + 1:] != (0, 0)
    rng_a, rng_b = random.Random(5), random.Random(5)
    assert sample_v_point(M2, rng_a, 10) == sample_v_point(M2, rng_b, 10)


def _meets_V(point, direction):
    # does the y-part (1, p + t d) of a chart line reach y1 = y2 = 0?
    p, d = point[M2.n_x + 1:], direction[M2.n_x + 1:]
    if d == (0, 0):
        return p == (0, 0)
    t = next(Fraction(-a, b) for a, b in zip(p, d) if b)
    return all(a + t * b == 0 for a, b in zip(p, d))


def test_chart_lines_miss_V():
    # at bound 1 many raw draws meet V, some with p_y = 0 and d_y = 0 or
    # with p_y = 0 alone; each such line is redrawn whole
    rng = random.Random(26)
    for _ in range(300):
        point, direction = _sample_chart_line(M2, rng, 1)
        assert any(direction) and not _meets_V(point, direction)
        # the y-part moves, so the line is inside neither {y2 = 0} nor {y1 = y2}
        assert any(direction[M2.n_x + 1:])
    # the oracle itself sees each way a line can meet V
    lines = [((1,) * 8 + ys, (0,) * 8 + ds) for ys, ds in [
        ((2, -3), (4, -6)), ((0, 0), (1, 1)), ((0, 0), (0, 0)), ((1, 0), (-2, 0))]]
    assert [_meets_V(*line) for line in lines] == [True, True, True, True]
    assert not _meets_V((1,) * 8 + (1, 0), (0,) * 8 + (0, 1))


# -- full instance runs -----------------------------------------------------


def test_run_instance_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        run_instance(M2, seed=1, n_samples=0)


def test_run_instance_happy_path():
    report = run_instance(M2, seed=42, n_samples=5)
    assert report["passed"]
    assert report["failures"] == []
    assert report["boundary_identity"] == "PASS"
    assert report["v_fibers"]["double_line"] == 5
    assert report["v_fibers"]["sigma_nonzero"] == 5
    assert report["v_fibers"]["grid_ok"] == 5
    assert report["v_fibers"]["grid_points_per_sample"] == len(Z_GRID)
    assert report["generic_fibers"]["smooth_conic"] \
        + report["generic_fibers"]["line_pair"] == 5
    assert report["generic_fibers"]["line_pair_smooth"] \
        == report["generic_fibers"]["line_pair"]
    assert report["chart_lines"]["squarefree"] == 5
    assert report["fiber_lines"]["count"] == 1
    assert report["fiber_lines"]["degree_six"] == 1
    assert report["section_terms"]["s1"] == 1
    assert report["section_terms"]["lam1"] == 2828


def test_run_instance_deterministic():
    a = run_instance(M2, seed=11, n_samples=2, coeff_range=40)
    b = run_instance(M2, seed=11, n_samples=2, coeff_range=40)
    assert a == b


def test_run_instance_perturbed():
    report = run_instance(M2, seed=42, n_samples=2, perturb=True)
    assert report["passed"]
    assert report["perturb"]
    assert report["boundary_identity"] == "PASS"
    assert report["section_terms"]["s1"] > 1
    assert report["section_terms"]["sigma"] > 1


def test_run_instance_reports_honest_failures(monkeypatch):
    matrix = ConicMatrix(M2, *_zero_entries(), sigma_prime=Y0)
    monkeypatch.setattr(verifier, "_draw_matrix", lambda *args: matrix)
    report = run_instance(M2, seed=3, n_samples=2)
    assert not report["passed"]
    assert report["boundary_identity"] == "FAIL"
    assert report["v_fibers"]["double_line"] == 0
    assert report["generic_fibers"]["smooth_conic"] == 0
    checks = {f["check"] for f in report["failures"]}
    assert "v_fiber_double_line" in checks
    assert "sigma_nonzero_on_V" in checks
    assert "gradient_on_W" in checks
    assert "boundary_identity" in checks
    assert "generic_fiber_rank" in checks
    assert "chart_line_resample_exhausted" in checks
    assert "fiber_line_resample_exhausted" in checks
    assert report["chart_lines"]["resampled_zero"] == 2 * LINE_RESAMPLE_CAP
    # S = 0 everywhere: every fiber is the whole plane, and each rank
    # failure names it
    assert [s["fiber"] for s in report["v_fibers"]["samples"]] == ["WHOLE_PLANE"] * 2
    assert [s["fiber"] for s in report["generic_fibers"]["samples"]] == ["WHOLE_PLANE"] * 2
    assert [(f["check"], f["got"]) for f in report["failures"] if "got" in f] == [
        ("v_fiber_double_line", "WHOLE_PLANE"), ("v_fiber_double_line", "WHOLE_PLANE"),
        ("generic_fiber_rank", "WHOLE_PLANE"), ("generic_fiber_rank", "WHOLE_PLANE")]


def test_run_instance_reports_line_pairs_and_double_lines(monkeypatch):
    # the matrix of test_singular_node_is_reported: every generic fiber is
    # the line pair diag(y0 y1, y0 y2, 0) with node (0, 0, 1), singular on
    # X because det S vanishes identically; with s3 = 0 as well it is the
    # double line diag(y0 y1, 0, 0), a rank failure
    ring = cox_ring(M2)
    y0, y1, y2 = ring.var("y0"), ring.var("y1"), ring.var("y2")
    z = ring.zero()
    matrix = ConicMatrix(M2, y0 * y1, z, y0 * y2, z, z, z, sigma_prime=y0)
    monkeypatch.setattr(verifier, "_draw_matrix", lambda *args: matrix)
    report = run_instance(M2, seed=3, n_samples=2)
    generic = report["generic_fibers"]
    assert (generic["smooth_conic"], generic["line_pair"], generic["line_pair_smooth"]) \
        == (0, 2, 0)
    assert [(s["fiber"], s["node_smooth"]) for s in generic["samples"]] \
        == [("LINE_PAIR", False)] * 2
    nodes = [f for f in report["failures"] if f["check"] == "node_smoothness"]
    assert [(f["index"], f["y"], f["node"]) for f in nodes] == [
        (i, s["y"], [0, 0, 1]) for i, s in enumerate(generic["samples"])]
    assert "generic_fiber_rank" not in {f["check"] for f in report["failures"]}

    double = ConicMatrix(M2, y0 * y1, z, z, z, z, z, sigma_prime=y0)
    monkeypatch.setattr(verifier, "_draw_matrix", lambda *args: double)
    report = run_instance(M2, seed=3, n_samples=2)
    assert [s["fiber"] for s in report["generic_fibers"]["samples"]] == ["DOUBLE_LINE"] * 2
    assert [f["got"] for f in report["failures"]
            if f["check"] == "generic_fiber_rank"] == ["DOUBLE_LINE"] * 2


def test_report_round_trips_through_json():
    report = run_instance(M2, seed=2, n_samples=1, coeff_range=30)
    doc = json.loads(json.dumps(report))
    assert doc["passed"] is True
    assert doc["m"] == 2 and doc["seed"] == 2
    assert len(doc["v_fibers"]["samples"]) == 1
    assert len(doc["generic_fibers"]["samples"]) == 1
