"""Cone membership, positivity flags, and the two-chamber decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoconic.cones import (
    FLIP_LABEL,
    NEF_LABEL,
    Cone2D,
    chamber_decomposition,
    classify,
    cross,
    effective_cone,
    nef_cone,
    primitive_ray,
)
from fanoconic.coxring import generator_degrees, is_effective
from fanoconic.picard import ConstructionParams, DivisorClassY, anticanonical_class

from .oracles import nef_by_duality

M2 = ConstructionParams(2)


# -- primitives -------------------------------------------------------------


def test_primitive_ray():
    assert primitive_ray((2, -8)) == (1, -4)
    assert primitive_ray((-2, -4)) == (-1, -2)
    assert primitive_ray((0, 7)) == (0, 1)
    with pytest.raises(ValueError):
        primitive_ray((0, 0))


def test_cone_span_orients_counterclockwise():
    cone = Cone2D.span((0, 1), (1, 0))
    assert cone.rays() == ((1, 0), (0, 1))
    assert cone == Cone2D.span((1, 0), (0, 1))


def test_cone_rejects_parallel_rays():
    with pytest.raises(ValueError):
        Cone2D.span((1, 0), (3, 0))
    with pytest.raises(ValueError):
        Cone2D.span((1, -2), (-2, 4))


def test_cone_constructor_rejects_clockwise():
    with pytest.raises(ValueError):
        Cone2D((0, 1), (1, 0))


def test_cone_membership():
    cone = Cone2D.span((1, 0), (0, 1))
    assert cone.contains((1, 1))
    assert cone.contains((1, 0)) and cone.contains((0, 3))
    assert not cone.contains((-1, 1))
    assert not cone.contains((1, -1))
    assert cone.contains_interior((2, 5))
    assert not cone.contains_interior((1, 0))


# -- the cones of the family ------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 5])
def test_cone_rays(m):
    params = ConstructionParams(m)
    assert nef_cone(params).rays() == ((1, 0), (0, 1))
    assert effective_cone(params).rays() == ((1, -2 * m), (0, 1))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_effective_cone_matches_section_counts(m):
    params = ConstructionParams(m)
    eff = effective_cone(params)
    for a in range(-3, 4):
        for b in range(-3 * params.twist, 2 * params.twist):
            assert eff.contains((a, b)) == is_effective(DivisorClassY(a, b), params)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_anticanonical_is_big_but_not_nef(m):
    params = ConstructionParams(m)
    report = classify(anticanonical_class(params), params)
    assert report.big
    assert report.effective
    assert not report.nef
    assert not report.ample


def test_D_is_nef_big_not_ample():
    report = classify(DivisorClassY(1, 0), M2)
    assert report.nef
    assert report.big
    assert report.movable
    assert not report.ample


def test_H_is_nef_not_big():
    report = classify(DivisorClassY(0, 1), M2)
    assert report.nef
    assert not report.big
    assert not report.ample


def test_classify_as_dict():
    doc = classify(DivisorClassY(3, -1), M2).as_dict()
    assert doc == {
        "class": "3D-1H",
        "effective": True,
        "big": True,
        "movable": True,
        "nef": False,
        "ample": False,
    }


@pytest.mark.parametrize("m", [2, 3, 4])
def test_nef_matches_duality_on_grid(m):
    params = ConstructionParams(m)
    for a in range(-10, 11):
        for b in range(-10, 11):
            cls_ = DivisorClassY(a, b)
            assert classify(cls_, params).nef == nef_by_duality(cls_, params), (a, b)


@settings(max_examples=80, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 9))
def test_classification_is_scale_invariant(a, b, k):
    cls_ = DivisorClassY(a, b)
    base = classify(cls_, M2)
    scaled = classify(cls_ * k, M2)
    for flag in ("effective", "big", "movable", "nef", "ample"):
        assert getattr(scaled, flag) == getattr(base, flag)


# -- chamber decomposition --------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_two_chambers_from_generator_degrees(m):
    params = ConstructionParams(m)
    dec = chamber_decomposition(generator_degrees(params), params)
    assert dec.walls == ((0, 1), (1, 0), (1, -params.twist))
    assert dec.labels == (NEF_LABEL, FLIP_LABEL)
    assert dec.chambers[0] == nef_cone(params)
    assert dec.chambers[1] == Cone2D.span((1, 0), (1, -params.twist))
    assert dec.interior_walls() == ((1, 0),)


def test_chambers_cover_movable_cone():
    dec = chamber_decomposition(generator_degrees(M2), M2)
    mov = effective_cone(M2)  # Mov(Y) = Eff(Y)
    for a in range(0, 8):
        for b in range(-4 * 8, 9):
            if not mov.contains((a, b)):
                continue
            assert any(c.contains((a, b)) for c in dec.chambers), (a, b)
    # and the chambers only overlap along the wall
    interior_both = [
        (a, b)
        for a in range(0, 8)
        for b in range(-32, 9)
        if all(c.contains_interior((a, b)) for c in dec.chambers)
    ]
    assert interior_both == []


def test_decomposition_as_dict():
    doc = chamber_decomposition(generator_degrees(M2), M2).as_dict()
    assert doc == {
        "walls": [[0, 1], [1, 0], [1, -4]],
        "chambers": [
            {"rays": [[1, 0], [0, 1]], "label": NEF_LABEL},
            {"rays": [[1, -4], [1, 0]], "label": FLIP_LABEL},
        ],
    }


def test_decomposition_accepts_raw_tuples():
    dec = chamber_decomposition([(0, 2), (3, 0), (2, -8)], M2)
    assert dec.walls == ((0, 1), (1, 0), (1, -4))


def test_decomposition_rejects_left_half_plane():
    with pytest.raises(ValueError):
        chamber_decomposition([DivisorClassY(-1, 2), DivisorClassY(0, 1)], M2)


def test_decomposition_rejects_single_ray():
    with pytest.raises(ValueError):
        chamber_decomposition([DivisorClassY(0, 1), DivisorClassY(0, 3)], M2)
    with pytest.raises(ValueError):
        chamber_decomposition([], M2)


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20))
def test_cross_antisymmetry(a, b):
    u, v = (a, b), (b - 3, a + 1)
    assert cross(u, v) == -cross(v, u)
