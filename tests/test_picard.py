import pytest
from hypothesis import given, strategies as st

from fanoconic.picard import (
    ConstructionParams,
    DivisorClassY,
    anticanonical_class,
    parse_divisor_class,
    standard_classes,
)

from .oracles import ELL_F, ELL_V, CurveClassY, pair


def test_params_reject_small_m():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            ConstructionParams(bad)


def test_params_reject_non_integers():
    with pytest.raises(ValueError):
        ConstructionParams(2.0)
    with pytest.raises(ValueError):
        ConstructionParams(True)


def test_params_derived_quantities():
    p = ConstructionParams(3)
    assert p.n_base == 9
    assert p.dim_Y == 11
    assert p.twist == 6
    assert p.n_x == 10


def test_divisor_arithmetic():
    a = DivisorClassY(2, -3)
    b = DivisorClassY(1, 5)
    assert a + b == DivisorClassY(3, 2)
    assert a - b == DivisorClassY(1, -8)
    assert -a == DivisorClassY(-2, 3)
    assert 3 * a == DivisorClassY(6, -9)
    assert a * 3 == 3 * a


def test_divisor_rejects_non_integer_scaling():
    with pytest.raises(TypeError):
        DivisorClassY(1, 0) * 1.5
    with pytest.raises(TypeError):
        True * DivisorClassY(1, 0)


def test_divisor_str_round_trips():
    for cls_ in (DivisorClassY(3, -1), DivisorClassY(0, 4), DivisorClassY(-2, 0)):
        assert parse_divisor_class(str(cls_)) == cls_


def test_pairing_against_extremal_curves():
    d = DivisorClassY(5, 7)
    assert pair(d, ELL_F) == 5
    assert pair(d, ELL_V) == 7
    assert pair(d, CurveClassY(2, 3)) == 5 * 2 + 7 * 3


@pytest.mark.parametrize("m,expected_b", [(2, -1), (3, -2), (5, -4)])
def test_anticanonical_class(m, expected_b):
    cls_ = anticanonical_class(ConstructionParams(m))
    assert cls_ == DivisorClassY(3, expected_b)
    assert pair(cls_, ELL_V) == 1 - m < 0
    assert pair(cls_, ELL_F) == 3


def test_standard_classes_relations():
    p = ConstructionParams(2)
    classes = standard_classes(p)
    assert classes["D"] == DivisorClassY(1, 0)
    assert classes["H"] == DivisorClassY(0, 1)
    assert classes["G"] == classes["D"] - p.twist * classes["H"]
    assert classes["Delta"] == 6 * classes["D"] - 2 * p.twist * classes["H"]
    assert classes["M"] == DivisorClassY(0, -p.twist)


def test_parse_accepts_loose_forms():
    assert parse_divisor_class("2D-4H") == DivisorClassY(2, -4)
    assert parse_divisor_class("D") == DivisorClassY(1, 0)
    assert parse_divisor_class("-H") == DivisorClassY(0, -1)
    assert parse_divisor_class(" 3 D + 2 H ") == DivisorClassY(3, 2)
    assert parse_divisor_class("H+D") == DivisorClassY(1, 1)
    assert parse_divisor_class("D+D-H") == DivisorClassY(2, -1)
    assert parse_divisor_class("2D−4H") == DivisorClassY(2, -4)


def test_parse_rejects_garbage():
    for bad in ("", "2X", "Dfoo", "2D--4H", "12", "D+"):
        with pytest.raises(ValueError):
            parse_divisor_class(bad)


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_pairing_is_bilinear(a, b, c, d):
    u = DivisorClassY(a, b)
    v = DivisorClassY(c, d)
    curve = CurveClassY(3, -2)
    assert pair(u + v, curve) == pair(u, curve) + pair(v, curve)
    assert pair(2 * u, curve) == 2 * pair(u, curve)


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_str_parse_round_trip(a, b):
    cls_ = DivisorClassY(a, b)
    assert parse_divisor_class(str(cls_)) == cls_
