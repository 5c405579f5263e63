"""Pointwise audits of instantiated conic bundles: fiber diagnosis, chart
gradients, the boundary identity, and line probes of the discriminant."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fanoconic
from fanoconic import coxring, verifier
from fanoconic.coxring import count_sections, cox_ring
from fanoconic.picard import ConstructionParams, DivisorClassY
from fanoconic.polynomial import Poly, PolyRing, u_degree, u_is_squarefree
from fanoconic.verifier import (
    LINE_RESAMPLE_CAP,
    MAX_SECTION_TERMS,
    Z_GRID,
    ConicMatrix,
    CoxPointY,
    FiberType,
    boundary_identity_verdict,
    check_smooth_at_node,
    diagnose_conic,
    discriminant_on_line,
    fiber_at,
    instantiate_sections,
    run_instance,
    sample_generic_point,
    sample_v_point,
    _audit_gradient,
    _entry_evals,
    _line_degree_bound,
    _restrict_entry,
    _SLOT_NAMES,
    _sample_chart_line,
    _sample_fiber_line,
    _s_rows,
    _section_draws,
)

from .oracles import (
    boundary_identity_by_calculus,
    boundary_identity_by_form,
    chart_gradient,
    conic_ring,
    diff,
    direct_restriction,
    eval_gradient_terms,
    eval_terms,
    quadratic_form,
    restrict_line,
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


# -- points and rings -------------------------------------------------------


def test_conic_ring_names():
    ring = conic_ring(M2)
    assert ring.names[:7] == ("x0", "x1", "x2", "x3", "x4", "x5", "x6")
    assert ring.names[7:] == ("y0", "y1", "y2", "z0", "z1", "z2")
    assert conic_ring(ConstructionParams(2)) is ring


def test_cox_point():
    p = CoxPointY((1, 0, 0, 0, 0, 0, 0), (2, 0, 0))
    assert p.coords == (1, 0, 0, 0, 0, 0, 0, 2, 0, 0)
    assert p.is_admissible()
    assert not CoxPointY((0,) * 7, (1, 0, 0)).is_admissible()
    assert not CoxPointY((1,) * 7, (0, 0, 0)).is_admissible()
    with pytest.raises(ValueError):
        CoxPointY((1,) * 7, (1, 0))


# -- conic diagnosis --------------------------------------------------------


def test_diagnose_ranks():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    d = diagnose_conic(eye)
    assert d.rank == 3 and d.fiber_type is FiberType.SMOOTH_CONIC
    assert d.node is None

    d = diagnose_conic([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert d.rank == 2 and d.fiber_type is FiberType.LINE_PAIR
    assert d.node == (0, 0, 1)

    d = diagnose_conic([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert d.rank == 1 and d.fiber_type is FiberType.DOUBLE_LINE
    assert d.node is None

    d = diagnose_conic([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert d.rank == 0 and d.fiber_type is FiberType.WHOLE_PLANE


def test_diagnose_accepts_fractions():
    d = diagnose_conic([
        [Fraction(1, 2), 0, 0],
        [0, Fraction(1, 3), 0],
        [0, 0, 0],
    ])
    assert d.fiber_type is FiberType.LINE_PAIR
    assert d.node == (0, 0, 1)


# -- the section matrix -----------------------------------------------------


def test_matrix_rejects_wrong_entry_degree():
    ring = cox_ring(M2)
    y0 = ring.var("y0")
    entries = list(_zero_entries())
    entries[0] = y0 * y0  # (2, 0) in an s-slot wanting (2, -4)
    with pytest.raises(ValueError):
        ConicMatrix(M2, *entries)


def test_matrix_rejects_mixed_degree_entry():
    ring = cox_ring(M2)
    entries = list(_zero_entries())
    entries[5] = ring.var("y0") ** 2 + ring.var("y0")
    with pytest.raises(ValueError):
        ConicMatrix(M2, *entries)


def test_matrix_rejects_entries_from_another_ring(default_matrix):
    m2_entries = [poly for _, poly in default_matrix.named_entries()]
    with pytest.raises(ValueError, match="entry s1 is not in the ring of m = 3"):
        ConicMatrix(ConstructionParams(3), *m2_entries)
    # y0^2 of the m = 3 ring has exponent tuples of another length, which
    # the degree check alone would misread
    y0_m3 = cox_ring(ConstructionParams(3)).var("y0")
    entries = list(_zero_entries())
    entries[5] = y0_m3 * y0_m3
    with pytest.raises(ValueError, match="entry sigma is not in the ring of m = 2"):
        ConicMatrix(M2, *entries)
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
    # lam1 and lam2 share a basis, and so do r1, r2 and r3 under perturb
    calls = []
    original = coxring.monomial_exponents

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(coxring, "monomial_exponents", counting)
    matrix = instantiate_sections(M2, seed=5, perturb=perturb)
    assert len(calls) == enumerations
    assert len(matrix.lam1) == len(matrix.lam2) == 2828
    assert all(a is b for a, b in zip(matrix.lam1.terms, matrix.lam2.terms))


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
        assert F.eval(p.coords + z) == expected


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
    points = [sample_v_point(M2, rng, coeff_range=30).coords,
              sample_generic_point(M2, rng, coeff_range=30).coords,
              (0,) * M2.n_x + (0, 1, 0)]
    point, direction = _sample_chart_line(M2, rng, 9)
    points += [tuple(p + t * d for p, d in zip(point, direction))
               for t in (0, 1, -1)]
    for name, poly in matrix.named_entries():
        partials = [diff(poly, i) for i in range(poly.ring.n)]
        for pt in points:
            value, grad = poly.eval_with_gradient(pt)
            assert poly.eval(pt) == value == eval_terms(poly, pt), name
            assert grad == [eval_terms(d, pt) for d in partials], name


# -- fibers -----------------------------------------------------------------


def test_fiber_over_V_is_double_line(default_matrix):
    rng = random.Random(3)
    for _ in range(5):
        p = sample_v_point(M2, rng, coeff_range=30)
        diag = fiber_at(default_matrix, p)
        assert diag.fiber_type is FiberType.DOUBLE_LINE
        assert default_matrix.sigma.eval(p.coords) != 0


def test_generic_fiber_is_smooth_conic(default_matrix):
    rng = random.Random(4)
    for _ in range(5):
        p = sample_generic_point(M2, rng, coeff_range=30)
        assert fiber_at(default_matrix, p).fiber_type is FiberType.SMOOTH_CONIC


def test_fiber_rejects_inadmissible_point(default_matrix):
    with pytest.raises(ValueError):
        fiber_at(default_matrix, CoxPointY((0,) * 7, (1, 2, 3)))


def test_fiber_rank_is_torus_invariant(default_matrix):
    rng = random.Random(5)
    for on_v in (False, True):
        sampler = sample_v_point if on_v else sample_generic_point
        p = sampler(M2, rng, coeff_range=20)
        scaled = CoxPointY(
            tuple(2 * c for c in p.x),
            (3 * p.y[0], Fraction(p.y[1], 16), Fraction(p.y[2], 16)),
        )
        assert fiber_at(default_matrix, p).rank == fiber_at(
            default_matrix, scaled
        ).rank


def _rank_two_witness(matrix):
    # with y2 = 0 the middle row of S is (0, 0, lam2); writing
    # lam2(x, y0, y1, 0) = y0 y1 A(x) + y1^2 B(x), the point
    # y = (B(x0), -A(x0), 0) kills it exactly, leaving a rank-2 matrix
    x0 = (1, 2, -1, 3, 1, -2, 1)
    b_val = matrix.lam2.eval(x0 + (0, 1, 0))
    a_val = matrix.lam2.eval(x0 + (1, 1, 0)) - b_val
    assert a_val != 0 and b_val != 0
    return CoxPointY(x0, (b_val, -a_val, 0))


def test_deterministic_line_pair_witness(default_matrix):
    p = _rank_two_witness(default_matrix)
    diag = fiber_at(default_matrix, p)
    assert diag.fiber_type is FiberType.LINE_PAIR
    assert diag.node == (0, 1, 0)
    assert check_smooth_at_node(default_matrix, p)


def test_node_check_rejects_wrong_rank(default_matrix):
    rng = random.Random(6)
    p = sample_generic_point(M2, rng, coeff_range=20)
    assert fiber_at(default_matrix, p).rank == 3
    with pytest.raises(ValueError, match="rank 2"):
        check_smooth_at_node(default_matrix, p)


def test_node_check_rejects_y0_zero(default_matrix):
    with pytest.raises(ValueError):
        check_smooth_at_node(default_matrix, CoxPointY((1,) * 7, (0, 1, 1)))


def test_singular_node_is_reported():
    # s1 = y0 y1, s3 = y0 y2, everything else zero: at y = (1, 1, 1) the
    # fiber is the line pair z0^2 + z1^2 with node (0, 0, 1), and the total
    # space is singular there because sigma is identically zero
    ring = cox_ring(M2)
    y0, y1, y2 = ring.var("y0"), ring.var("y1"), ring.var("y2")
    z = ring.zero()
    matrix = ConicMatrix(M2, y0 * y1, z, y0 * y2, z, z, z)
    p = CoxPointY((1, 0, 0, 0, 0, 0, 0), (1, 1, 1))
    diag = fiber_at(matrix, p)
    assert diag.fiber_type is FiberType.LINE_PAIR
    assert diag.node == (0, 0, 1)
    assert check_smooth_at_node(matrix, p) is False


def test_whole_plane_on_zero_matrix():
    matrix = ConicMatrix(M2, *_zero_entries())
    p = CoxPointY((1,) * 7, (1, 2, 3))
    assert fiber_at(matrix, p).fiber_type is FiberType.WHOLE_PLANE


# -- gradient audits --------------------------------------------------------


def test_smoothness_over_V(default_matrix):
    # every point of the W grid lies on X, with a nonzero gradient
    rng = random.Random(9)
    for _ in range(3):
        p = sample_v_point(M2, rng, coeff_range=30)
        evals = _entry_evals(default_matrix, p)
        for z in Z_GRID:
            assert _audit_gradient(default_matrix, p, z, evals) == (True, True)


def test_v_point_audit_validation(default_matrix):
    on_v = CoxPointY((1,) * 7, (1, 0, 0))
    evals = _entry_evals(default_matrix, on_v)
    with pytest.raises(ValueError, match="zero fiber direction"):
        _audit_gradient(default_matrix, on_v, (0, 0, 0), evals)


def test_audit_matches_rescaling_oracle(default_matrix, perturbed_matrix):
    rng = random.Random(12)
    cases = []
    for matrix, n_v, n_g in ((default_matrix, 3, 2), (perturbed_matrix, 2, 1)):
        for _ in range(n_v):
            p = sample_v_point(M2, rng, coeff_range=25)
            cases.extend((matrix, p, z) for z in Z_GRID)
        for _ in range(n_g):
            p = sample_generic_point(M2, rng, coeff_range=25)
            cases.append((matrix, p, (1, 1, 1)))
            cases.append((matrix, p, (2, -1, 3)))
    for matrix, p, z in cases:
        evals = _entry_evals(matrix, p)
        assert _audit_gradient(matrix, p, z, evals) == chart_gradient(matrix, p, z)


def test_audit_counts_the_fiber_direction_gradient():
    # s2 = y0 y2 is the only nonzero entry: at z = (1, 0, 0) the form and
    # all its Cox-ring partials vanish, and only dF/dz1 = 2 s2 z0 is nonzero
    ring = cox_ring(M2)
    z = ring.zero()
    matrix = ConicMatrix(M2, z, ring.var("y0") * ring.var("y2"), z, z, z, z)
    p = CoxPointY((1,) * 7, (1, 1, 1))
    assert _audit_gradient(matrix, p, (1, 0, 0), _entry_evals(matrix, p)) == \
        chart_gradient(matrix, p, (1, 0, 0)) == (True, True)


def _fresh_entries(matrix):
    """The matrix with its entries copied, so no evaluation plan is built."""
    return dataclasses.replace(matrix, **{
        name: Poly(poly.ring, poly.terms) for name, poly in matrix.named_entries()})


def test_lazy_gradients_on_the_perturbed_entries(perturbed_matrix):
    # a V point first builds only the partials of the patterns free of y1
    # and y2; the generic point after it builds the rest
    rng = random.Random(41)
    points = (sample_v_point(M2, rng, coeff_range=25),
              sample_generic_point(M2, rng, coeff_range=25))
    matrix = _fresh_entries(perturbed_matrix)
    for p in points:
        for name, (value, grad) in _entry_evals(matrix, p).items():
            poly = getattr(matrix, name)
            assert value == eval_terms(poly, p.coords)
            assert grad == eval_gradient_terms(poly, p.coords)


def test_v_point_builds_no_partials_for_vanishing_tails(perturbed_matrix):
    matrix = _fresh_entries(perturbed_matrix)
    p = sample_v_point(M2, random.Random(43), coeff_range=25)
    _entry_evals(matrix, p)
    built = skipped = 0
    for _, poly in matrix.named_entries():
        for group in poly._plan.groups:
            if any(p.coords[i] == 0 for i, _ in group.tail):
                assert group.partials is None
                skipped += len(group.coeffs)
            else:
                assert group.partials is not None
                built += len(group.coeffs)
    # most terms of the perturbed entries carry a y1 or y2
    assert skipped > built > 0


# -- the boundary identity --------------------------------------------------


def test_boundary_identity_default(default_matrix):
    assert boundary_identity_verdict(default_matrix) == "PASS"


def test_boundary_identity_perturbed(perturbed_matrix):
    assert boundary_identity_verdict(perturbed_matrix) == "PASS"


def test_boundary_identity_skipped_without_sigma_prime():
    matrix = ConicMatrix(M2, *_zero_entries())
    assert boundary_identity_verdict(matrix) == "SKIPPED"


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
    # entry, or sigma', of the default shape.  sigma' carries no degree
    # check, so its restriction to V must be read in full
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
        yield label, ConicMatrix(M2, *(e[n] for n in names),
                                 sigma_prime=e["sigma_prime"])


@pytest.mark.parametrize("label", [label for label, _ in _boundary_variants()])
def test_boundary_identity_matches_form_oracle(label):
    matrix = dict(_boundary_variants())[label]
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


# -- line probes ------------------------------------------------------------


def _entry_size(poly):
    return (sum(abs(c) for c in poly.terms.values()),
            max((sum(e) for e in poly.terms), default=0))


def _restrict(poly, point, direction):
    support = tuple(i for i, d in enumerate(direction) if d)
    bound = _line_degree_bound(poly, support)
    return _restrict_entry(poly, _entry_size(poly), 0 if bound is None else bound,
                           point, direction)


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


@pytest.mark.parametrize("sign", [1, -1])
def test_entry_restriction_at_the_coefficient_bound(sign):
    # a and b start at 0 and move by 1, c sits at 1, so M = 1 and the
    # restriction is 127 t^2: its top coefficient is B = ||f||_1 * M^3,
    # and B = 2^7 - 1 is the largest coefficient the chosen K = 8 admits
    poly = Poly(RING4, {(2, 0, 1, 0): 100 * sign, (1, 1, 1, 0): 27 * sign})
    point, direction = (0, 0, 1, 0), (1, 1, 0, 0)
    assert _entry_size(poly) == (127, 3)
    assert _restrict(poly, point, direction) == [0, 0, 127 * sign] \
        == restrict_line(poly, point, direction)


def test_entry_restriction_rejects_a_low_bound():
    poly = Poly(RING4, {(2, 0, 0, 0): 1})
    with pytest.raises(AssertionError, match="line degree bound"):
        _restrict_entry(poly, (1, 2), 1, (1, 0, 0, 0), (1, 0, 0, 0))


def test_line_probe_low_bound_raises_under_optimized_mode():
    # python -O strips assert statements; the digit-count invariant is a
    # raise, so a too-small line bound on one entry still fails loudly
    code = """if True:
        import random
        from fanoconic.picard import ConstructionParams
        from fanoconic.verifier import (
            _sample_chart_line, discriminant_on_line, instantiate_sections)
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
    halved = dataclasses.replace(default_matrix, lam2=default_matrix.lam2 * Fraction(1, 2))
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
        matrix = dataclasses.replace(default_matrix, **{name: zero for name in slots})
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
    matrix = dataclasses.replace(perturbed_matrix, s2=cox_ring(M2).zero())
    discriminant_on_line(matrix, point, direction)
    assert len(evals) == 5
    assert not ranks
    # the counter sits where the fiber diagnosis looks the function up
    fiber_at(matrix, CoxPointY(point[:M2.n_x], point[M2.n_x:]))
    assert ranks == [1]


def test_fiber_line_is_sextic(default_matrix):
    # y-pencil with invertible leading matrix: the t^6 coefficient is
    # det S at (x0, direction y), a generic fiber point, hence nonzero
    nx = M2.n_x
    point = (1, 2, -1, 3, 1, -2, 1) + (1, 2, -1)
    direction = (0,) * nx + (2, 1, 3)
    probe = discriminant_on_line(default_matrix, point, direction)
    assert probe.degree == 6
    assert not probe.identically_zero


@pytest.mark.parametrize("support", [(8,), (0,), (7, 8, 9), tuple(range(10))])
def test_line_degree_bound_is_the_largest_support_degree(perturbed_matrix, support):
    for _, poly in perturbed_matrix.named_entries():
        assert _line_degree_bound(poly, support) == \
            max(sum(exps[i] for i in support) for exps in poly.terms)
    assert _line_degree_bound(cox_ring(M2).zero(), support) is None


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
            name: _line_degree_bound(poly, support)
            for name, poly in matrix.named_entries()}


# -- samplers ---------------------------------------------------------------


def test_samplers():
    rng = random.Random(31)
    for _ in range(10):
        p = sample_v_point(M2, rng, coeff_range=10)
        assert p.y[1:] == (0, 0) and p.is_admissible() and p.y[0] != 0
        q = sample_generic_point(M2, rng, coeff_range=10)
        assert q.y[1:] != (0, 0) and q.is_admissible() and q.y[0] != 0
    rng_a, rng_b = random.Random(5), random.Random(5)
    assert sample_v_point(M2, rng_a, 10) == sample_v_point(M2, rng_b, 10)


# -- full instance runs -----------------------------------------------------


def test_run_instance_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        run_instance(M2, seed=1, n_samples=0)


def test_run_instance_happy_path():
    report = run_instance(M2, seed=42, n_samples=5)
    assert report.passed
    assert report.failures == ()
    assert report.boundary_identity == "PASS"
    assert report.v_fibers["double_line"] == 5
    assert report.v_fibers["sigma_nonzero"] == 5
    assert report.v_fibers["grid_ok"] == 5
    assert report.v_fibers["grid_points_per_sample"] == len(Z_GRID)
    assert report.generic_fibers["smooth_conic"] \
        + report.generic_fibers["line_pair"] == 5
    assert report.generic_fibers["line_pair_smooth"] \
        == report.generic_fibers["line_pair"]
    assert report.chart_lines["squarefree"] == 5
    assert report.fiber_lines["count"] == 1
    assert report.fiber_lines["degree_six"] == 1
    assert report.section_terms["s1"] == 1
    assert report.section_terms["lam1"] == 2828


def test_run_instance_deterministic():
    a = run_instance(M2, seed=11, n_samples=2, coeff_range=40)
    b = run_instance(M2, seed=11, n_samples=2, coeff_range=40)
    assert a.as_dict() == b.as_dict()


def test_run_instance_perturbed():
    report = run_instance(M2, seed=42, n_samples=2, perturb=True)
    assert report.passed
    assert report.perturb
    assert report.boundary_identity == "PASS"
    assert report.section_terms["s1"] > 1
    assert report.section_terms["sigma"] > 1


def test_run_instance_reports_honest_failures():
    matrix = ConicMatrix(M2, *_zero_entries())
    report = run_instance(M2, seed=3, n_samples=2, sections=matrix)
    assert not report.passed
    assert report.boundary_identity == "SKIPPED"
    assert report.v_fibers["double_line"] == 0
    assert report.generic_fibers["smooth_conic"] == 0
    checks = {f["check"] for f in report.failures}
    assert "v_fiber_double_line" in checks
    assert "sigma_nonzero_on_V" in checks
    assert "gradient_on_W" in checks
    assert "generic_fiber_rank" in checks
    assert "chart_line_resample_exhausted" in checks
    assert "fiber_line_resample_exhausted" in checks
    assert report.chart_lines["resampled_zero"] == 2 * LINE_RESAMPLE_CAP


def test_report_round_trips_through_json():
    report = run_instance(M2, seed=2, n_samples=1, coeff_range=30)
    doc = json.loads(json.dumps(report.as_dict()))
    assert doc["passed"] is True
    assert doc["m"] == 2 and doc["seed"] == 2
    assert len(doc["v_fibers"]["samples"]) == 1
    assert len(doc["generic_fibers"]["samples"]) == 1
