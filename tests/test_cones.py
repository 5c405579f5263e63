"""Cone membership, positivity flags, and the two-chamber decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoconic.cones import (
    FLIP_LABEL,
    NEF_LABEL,
    chamber_decomposition,
    classify,
    cross,
    effective_cone,
    nef_cone,
)
from fanoconic.coxring import is_effective
from fanoconic.picard import ConstructionParams, DivisorClassY, anticanonical_class

from .oracles import nef_by_duality

M2 = ConstructionParams(2)


# -- primitives -------------------------------------------------------------


def _margin(rays, vec) -> int:
    # >= 0 on the closed cone <r1, r2>, > 0 on its interior
    r1, r2 = rays
    return min(cross(r1, vec), cross(vec, r2))


def test_cone_span_orients_counterclockwise():
    # every cone, the chambers too, is its pair of rays counterclockwise
    for m in (2, 3, 5):
        params = ConstructionParams(m)
        cones = [nef_cone(params), effective_cone(params)]
        cones += [c["rays"] for c in chamber_decomposition(params)["chambers"]]
        assert all(cross(r1, r2) > 0 for r1, r2 in cones)


def test_cone_membership():
    # Nef(Y) = <D, H>: nef is the closed cone, ample its interior
    def flags(a, b):
        doc = classify(DivisorClassY(a, b), M2)
        return doc["nef"], doc["ample"]

    assert flags(1, 1) == (True, True)
    assert flags(1, 0)[0] and flags(0, 3)[0]
    assert not flags(-1, 1)[0]
    assert not flags(1, -1)[0]
    assert flags(2, 5)[1]
    assert not flags(1, 0)[1]


# -- the cones of the family ------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 5])
def test_cone_rays(m):
    params = ConstructionParams(m)
    assert nef_cone(params) == ((1, 0), (0, 1))
    assert effective_cone(params) == ((1, -2 * m), (0, 1))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_effective_cone_matches_section_counts(m):
    params = ConstructionParams(m)
    for a in range(-3, 4):
        for b in range(-3 * params.twist, 2 * params.twist):
            cls_ = DivisorClassY(a, b)
            assert classify(cls_, params)["effective"] == is_effective(cls_, params)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_anticanonical_is_big_but_not_nef(m):
    params = ConstructionParams(m)
    report = classify(anticanonical_class(params), params)
    assert report["big"]
    assert report["effective"]
    assert not report["nef"]
    assert not report["ample"]


def test_D_is_nef_big_not_ample():
    report = classify(DivisorClassY(1, 0), M2)
    assert report["nef"]
    assert report["big"]
    assert report["movable"]
    assert not report["ample"]


def test_H_is_nef_not_big():
    report = classify(DivisorClassY(0, 1), M2)
    assert report["nef"]
    assert not report["big"]
    assert not report["ample"]


def test_classify_as_dict():
    doc = classify(DivisorClassY(3, -1), M2)
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
            assert classify(cls_, params)["nef"] == nef_by_duality(cls_, params), (a, b)


@settings(max_examples=80, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 9))
def test_classification_is_scale_invariant(a, b, k):
    cls_ = DivisorClassY(a, b)
    base = classify(cls_, M2)
    scaled = classify(cls_ * k, M2)
    for flag in ("effective", "big", "movable", "nef", "ample"):
        assert scaled[flag] == base[flag]


# -- chamber decomposition --------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4])
def test_two_chambers_from_generator_degrees(m):
    params = ConstructionParams(m)
    dec = chamber_decomposition(params)
    assert dec["walls"] == [[0, 1], [1, 0], [1, -params.twist]]
    assert [c["label"] for c in dec["chambers"]] == [NEF_LABEL, FLIP_LABEL]
    cones = [tuple(map(tuple, c["rays"])) for c in dec["chambers"]]
    assert cones[0] == nef_cone(params)
    assert cones[1] == ((1, -params.twist), (1, 0))
    assert dec["walls"][1:-1] == [[1, 0]]


def test_chambers_cover_movable_cone():
    chambers = [c["rays"] for c in chamber_decomposition(M2)["chambers"]]
    mov = effective_cone(M2)  # Mov(Y) = Eff(Y)
    for a in range(0, 8):
        for b in range(-4 * 8, 9):
            if _margin(mov, (a, b)) < 0:
                continue
            assert any(_margin(c, (a, b)) >= 0 for c in chambers), (a, b)
    # and the chambers only overlap along the wall
    interior_both = [
        (a, b)
        for a in range(0, 8)
        for b in range(-32, 9)
        if all(_margin(c, (a, b)) > 0 for c in chambers)
    ]
    assert interior_both == []


def test_decomposition_as_dict():
    doc = chamber_decomposition(M2)
    assert doc == {
        "walls": [[0, 1], [1, 0], [1, -4]],
        "chambers": [
            {"rays": [[1, 0], [0, 1]], "label": NEF_LABEL},
            {"rays": [[1, -4], [1, 0]], "label": FLIP_LABEL},
        ],
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20))
def test_cross_antisymmetry(a, b):
    u, v = (a, b), (b - 3, a + 1)
    assert cross(u, v) == -cross(v, u)
