"""Closed-form intersection numbers checked against independent
symmetric-function recursions, the curve pairing and section counts."""

import time
from math import comb

import pytest

from fanoconic.chow import bundle_of_G, bundle_of_Y, intersection_number
from fanoconic.coxring import count_sections
from fanoconic.picard import ConstructionParams, DivisorClassY

from .oracles import ELL_F, ELL_V, complete_homogeneous, elementary_symmetric, pair

D = DivisorClassY(1, 0)
H = DivisorClassY(0, 1)
M2 = ConstructionParams(2)


def pairing_classes(m):
    return [DivisorClassY(a, b) for a, b in [(1, 0), (0, 1), (3, 1 - m), (2, -2 * m), (-5, 7)]]


def monomial_degree(params, bundle, i, j):
    """deg(H^i D^j) on P(bundle) over P^{3m}."""
    return intersection_number(params.n_base, bundle, {H: i, D: j})


def times(cls_, cycle):
    return {**cycle, cls_: cycle.get(cls_, 0) + 1}


def test_bundle_rejects_empty():
    with pytest.raises(ValueError, match="at least one summand"):
        intersection_number(0, (), {})


def test_degree_rejects_wrong_dimension():
    bundle = bundle_of_Y(M2)
    with pytest.raises(ValueError):
        intersection_number(6, bundle, {H: 1})
    with pytest.raises(ValueError):
        intersection_number(6, bundle, {H: 6, D: 3})
    # the right total, but not from a product of divisors
    with pytest.raises(ValueError):
        intersection_number(6, bundle, {H: 10, D: -2})


def test_degree_of_zero():
    assert intersection_number(6, bundle_of_Y(M2), {DivisorClassY(0, 0): 1, D: 7}) == 0
    # a zero class to the power 0 is the unit: D^8 = h_6(0, 4, 4) = 7 * 4^6
    assert intersection_number(6, bundle_of_Y(M2), {DivisorClassY(0, 0): 0, D: 8}) == 28672


def test_normalization():
    for bundle in (bundle_of_Y(M2), bundle_of_G(M2)):
        assert monomial_degree(M2, bundle, M2.n_base, len(bundle) - 1) == 1


def test_base_hyperplane_truncates():
    n = M2.n_base
    bundle = bundle_of_Y(M2)
    assert monomial_degree(M2, bundle, n + 1, 1) == 0
    assert monomial_degree(M2, bundle, n + 2, 0) == 0
    assert intersection_number(n, bundle, {H: n + 1, DivisorClassY(7, 3): 1}) == 0


def test_grothendieck_relation_m2():
    # twists (0, 4, 4): e_1 = 8, e_2 = 16, e_3 = 0, so D^3 = 8HD^2 - 16H^2D
    # against every complementary monomial.
    bundle = bundle_of_Y(M2)
    for j in range(M2.n_base):
        i = M2.n_base - 1 - j
        assert monomial_degree(M2, bundle, i, 3 + j) == (
            8 * monomial_degree(M2, bundle, i + 1, 2 + j)
            - 16 * monomial_degree(M2, bundle, i + 2, 1 + j))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_relation_annihilates_chern_alternating_sum(m):
    # D^3 = e_1 H D^2 - e_2 H^2 D + e_3 H^3 with e_k from the oracle, at every
    # degree: on Y it is the tautological relation, on G (e_3 = 0) it is D
    # times the rank-2 one.
    params = ConstructionParams(m)
    for bundle in (bundle_of_Y(params), bundle_of_G(params)):
        e = [elementary_symmetric(k, bundle) for k in range(4)]
        top = params.n_base + len(bundle) - 1
        for j in range(top - 2):
            i = top - 3 - j

            def deg(h, d):
                return monomial_degree(params, bundle, i + h, j + d)

            assert deg(0, 3) == e[1] * deg(1, 2) - e[2] * deg(2, 1) + e[3] * deg(3, 0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_segre_degrees_match_complete_homogeneous(m):
    params = ConstructionParams(m)
    n = params.n_base
    bundle = bundle_of_Y(params)
    for k in range(n + 1):
        value = monomial_degree(params, bundle, n - k, 2 + k)
        assert value == complete_homogeneous(k, bundle)
        assert value == (k + 1) * params.twist**k


def test_segre_degrees_m2_spot_values():
    bundle = bundle_of_Y(M2)
    assert monomial_degree(M2, bundle, 5, 3) == 8
    assert monomial_degree(M2, bundle, 4, 4) == 48
    assert monomial_degree(M2, bundle, 3, 5) == 256
    assert intersection_number(6, bundle, {DivisorClassY(1, 1): 8}) == 131836


@pytest.mark.parametrize("m", [2, 3, 4])
def test_segre_degrees_on_divisor_bundle(m):
    params = ConstructionParams(m)
    n = params.n_base
    bundle = bundle_of_G(params)
    for k in range(n + 1):
        value = monomial_degree(params, bundle, n - k, 1 + k)
        assert value == complete_homogeneous(k, bundle)
        assert value == params.twist**k


@pytest.mark.parametrize("m", [2, 3])
def test_fiber_line_pairing_matches_curve_pairing(m):
    # A line in a fiber is H^n * D; intersecting with aD + bH picks out a.
    params = ConstructionParams(m)
    fiber_line = {D: 1, H: params.n_base}
    for cls_ in pairing_classes(m):
        value = intersection_number(params.n_base, bundle_of_Y(params),
                                    times(cls_, fiber_line))
        assert value == pair(cls_, ELL_F) == cls_.a


@pytest.mark.parametrize("m", [2, 3])
def test_section_line_pairing_matches_curve_pairing(m):
    # The section V is cut by the two twisted coordinates, so its class is
    # (D - 2mH)^2 and a line inside it is (D - 2mH)^2 * H^{n-1}.
    params = ConstructionParams(m)
    v_line = {DivisorClassY(1, -params.twist): 2, H: params.n_base - 1}
    for cls_ in pairing_classes(m):
        value = intersection_number(params.n_base, bundle_of_Y(params),
                                    times(cls_, v_line))
        assert value == pair(cls_, ELL_V) == cls_.b


def test_anticanonical_against_section_line():
    # -K = 3D - H at m = 2 meets a line of V in 1 - m = -1 points.
    v_line = {DivisorClassY(1, -4): 2, H: 5, DivisorClassY(3, -1): 1}
    assert intersection_number(6, bundle_of_Y(M2), v_line) == -1


def test_cost_does_not_grow_with_the_power_of_H():
    params = ConstructionParams(100_000)
    n, bundle = params.n_base, bundle_of_Y(params)
    cls_ = DivisorClassY(3, 1 - params.m)
    start = time.perf_counter()
    on_f = intersection_number(n, bundle, times(cls_, {D: 1, H: n}))
    on_v = intersection_number(n, bundle, times(cls_, {DivisorClassY(1, -params.twist): 2,
                                                      H: n - 1}))
    assert time.perf_counter() - start < 0.5
    assert (on_f, on_v) == (3, 1 - params.m)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (1, 1), (2, 1)])
def test_top_power_matches_section_count_differences(m, a, b):
    # For nef L on the toric Y, Demazure vanishing makes k -> h^0(kL) equal
    # to chi(kL), a polynomial of degree <= N = 3m + 2 with leading
    # coefficient L^N / N!, so its N-th finite difference is L^N.
    params = ConstructionParams(m)
    top = params.dim_Y
    difference = sum(
        (-1) ** (top - k) * comb(top, k) * count_sections(DivisorClassY(k * a, k * b), params)
        for k in range(top + 1))
    cls_ = DivisorClassY(a, b)
    assert intersection_number(params.n_base, bundle_of_Y(params), {cls_: top}) == difference
