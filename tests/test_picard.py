import pytest
from hypothesis import given, settings, strategies as st

from fanoconic.chow import bundle_of_Y, intersection_number
from fanoconic.picard import (
    ConstructionParams,
    DivisorClassY,
    anticanonical_class,
    parse_divisor_class,
    standard_classes,
)

from .oracles import ELL_F, ELL_V, CurveClassY, pair

M2 = ConstructionParams(2)


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


def dot(cls_, curve, params):
    """cls_ times a curve, by the package's intersection numbers on Y: the
    fiber line ell_f is D H^{3m} and the line ell_V of V is G^2 H^{3m-1}."""
    classes = standard_classes(params)
    d, h, g = classes["D"], classes["H"], classes["G"]
    n = params.n_base
    cycle = {d: 1, h: n} if curve == "ell_f" else {g: 2, h: n - 1}
    factors = {**cycle, cls_: cycle.get(cls_, 0) + 1}
    return intersection_number(n, bundle_of_Y(params), factors)


def test_pairing_against_extremal_curves():
    d = DivisorClassY(5, 7)
    for params in (M2, ConstructionParams(3)):
        assert dot(d, "ell_f", params) == pair(d, ELL_F) == 5
        assert dot(d, "ell_V", params) == pair(d, ELL_V) == 7
        assert 2 * dot(d, "ell_f", params) + 3 * dot(d, "ell_V", params) \
            == pair(d, CurveClassY(2, 3)) == 5 * 2 + 7 * 3


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
    assert parse_divisor_class(" 12 D - 3 H ") == DivisorClassY(12, -3)
    assert parse_divisor_class("- 1D + 2 H") == DivisorClassY(-1, 2)


def test_parse_rejects_garbage():
    # a space between two digits would join two numbers into one, and
    # int() reads any Unicode digit, so both are refused
    for bad in ("", "2X", "Dfoo", "2D--4H", "12", "D+",
                "1 2D", "D+1 2H", "- 1 0 H", "١٢D", "D+٣H", "１D"):
        with pytest.raises(ValueError):
            parse_divisor_class(bad)


def test_parse_requires_a_sign_between_terms():
    # each term after the first starts with its sign; a bare juxtaposition
    # was once read as a sum
    for bad in ("2D3H", "DD", "HD", "D H", "D 2H", "3H2D", "D-H2D"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_divisor_class(bad)
    assert parse_divisor_class("+D") == DivisorClassY(1, 0)
    assert parse_divisor_class("D+D-H") == DivisorClassY(2, -1)
    assert parse_divisor_class("-2D-3H") == DivisorClassY(-2, -3)


@settings(deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_pairing_is_bilinear(a, b, c, d):
    # the curve 3 ell_f - 2 ell_V, paired through intersection_number
    def on_curve(cls_):
        return 3 * dot(cls_, "ell_f", M2) - 2 * dot(cls_, "ell_V", M2)

    u = DivisorClassY(a, b)
    v = DivisorClassY(c, d)
    assert on_curve(u + v) == on_curve(u) + on_curve(v)
    assert on_curve(2 * u) == 2 * on_curve(u)
    assert on_curve(u) == pair(u, CurveClassY(3, -2))


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_str_parse_round_trip(a, b):
    cls_ = DivisorClassY(a, b)
    assert parse_divisor_class(str(cls_)) == cls_
