"""Divisor-level certificate of the conic bundle construction."""

import dataclasses
import json

import pytest

from fanoconic import conicbundle
from fanoconic.chow import bundle_of_Y
from fanoconic.conicbundle import (
    DivisorClassZ,
    adjunction_solve_G,
    ampleness_via_summands,
    antiK_Z,
    antiK_of_projectivization,
    antiK_of_projectivization_over_base,
    build_certificate,
    conic_defining_twist,
    discriminant_class,
    pullback,
    section_twist,
    standard_bundle,
    sym2_decomposition,
    x_class_on_Z,
)
from fanoconic.coxring import Stratum
from fanoconic.picard import ConstructionParams, DivisorClassY, anticanonical_class

M2 = ConstructionParams(2)


# -- bundles and classes on Z -----------------------------------------------


def _twist(bundle, cls_):
    return tuple(s + cls_ for s in bundle)


def test_empty_bundle_rejected():
    with pytest.raises(ValueError, match="at least one summand"):
        antiK_of_projectivization(anticanonical_class(M2), ())


def test_standard_bundle_shape():
    e = standard_bundle(M2)
    assert e == (
        DivisorClassY(1, 0),
        DivisorClassY(1, 0),
        DivisorClassY(1, 2),
    )
    assert conicbundle._det(e) == DivisorClassY(3, 2)


def test_bundle_twist():
    assert _twist(standard_bundle(M2), DivisorClassY(0, 1)) == (
        DivisorClassY(1, 1),
        DivisorClassY(1, 1),
        DivisorClassY(1, 3),
    )


def test_divisor_class_z_arithmetic():
    u = DivisorClassZ(2, 0, -4)
    v = DivisorClassZ(1, 0, 1)
    assert u + v == DivisorClassZ(3, 0, -3)
    assert u - v == DivisorClassZ(1, 0, -5)


def test_divisor_class_z_str():
    assert str(DivisorClassZ(2, 0, -4)) == "2ξ+0D-4H"
    assert str(DivisorClassZ(1, 0, 1)) == "1ξ+0D+1H"


def test_pullback():
    assert pullback(DivisorClassY(3, -1)) == DivisorClassZ(0, 3, -1)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_twists(m):
    params = ConstructionParams(m)
    assert section_twist(params) == DivisorClassY(0, -m)
    assert conic_defining_twist(params) == DivisorClassY(0, -2 * m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_classes_on_Z(m):
    params = ConstructionParams(m)
    assert antiK_Z(params) == DivisorClassZ(3, 0, 1 - 2 * m)
    assert x_class_on_Z(params) == DivisorClassZ(2, 0, -2 * m)
    assert antiK_Z(params) - x_class_on_Z(params) == DivisorClassZ(1, 0, 1)


def test_antiK_of_projectivization_formula():
    e = standard_bundle(M2)
    out = antiK_of_projectivization(anticanonical_class(M2), e)
    assert out == DivisorClassZ(3, 0, -3)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_antiK_Y_two_routes_agree(m):
    params = ConstructionParams(m)
    via_bundle = antiK_of_projectivization_over_base(params, bundle_of_Y(params))
    assert via_bundle == anticanonical_class(params)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_adjunction_recovers_G(m):
    params = ConstructionParams(m)
    assert adjunction_solve_G(params) == DivisorClassY(1, -2 * m)


# -- Sym^2 and the discriminant ---------------------------------------------


def test_sym2_multiset_m2():
    sym2 = sym2_decomposition(standard_bundle(M2), section_twist(M2))
    assert [str(c) for c in sym2] == [
        "2D-4H",
        "2D-4H",
        "2D-4H",
        "2D-2H",
        "2D-2H",
        "2D+0H",
    ]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sym2_det_identity(m):
    params = ConstructionParams(m)
    e = standard_bundle(params)
    sym2 = sym2_decomposition(e, section_twist(params))
    assert len(sym2) == 6
    assert conicbundle._det(sym2) == 4 * conicbundle._det(_twist(e, section_twist(params)))


def test_ampleness_via_summands():
    e = standard_bundle(M2)
    assert not ampleness_via_summands(e, M2)
    assert ampleness_via_summands(_twist(e, DivisorClassY(0, 1)), M2)
    assert not ampleness_via_summands(_twist(e, DivisorClassY(0, -1)), M2)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_discriminant_class(m):
    params = ConstructionParams(m)
    delta = discriminant_class(standard_bundle(params), params)
    assert delta == DivisorClassY(6, -4 * m)
    assert delta == 2 * DivisorClassY(3, -2 * m)


def test_discriminant_invariant_under_retwist():
    e = standard_bundle(M2)
    m_cls = conic_defining_twist(M2)
    reference = 2 * conicbundle._det(e) + 3 * m_cls
    for ell in (DivisorClassY(0, 1), DivisorClassY(1, -2), DivisorClassY(-1, 5)):
        retwisted = 2 * conicbundle._det(_twist(e, ell)) + 3 * (m_cls - 2 * ell)
        assert retwisted == reference


# -- the certificate --------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_certificate_is_valid(m):
    cert = build_certificate(ConstructionParams(m))
    assert cert.valid
    assert len(cert.checks) == 29
    assert all(c.passed for c in cert.checks)


def test_certificate_has_no_repeated_or_constant_checks():
    # each of these repeated another check or compared a value with itself
    names = {c.name for c in build_certificate(M2).checks}
    assert not names & {
        "G_shift_vanishes", "discriminant_equals_twice_3D_minus_2mH",
        "base_not_fano_forces_degenerate_fibers", "adjunction_additivity_on_Z",
        "sym2_count", "movable_equals_effective", "picard_rank_jump"}
    assert {"adjunction_G", "discriminant_class", "antiK_Y_positivity_flags",
            "sym2_multiset", "dims_consistent"} <= names


def test_certificate_check_names_unique():
    cert = build_certificate(M2)
    names = [c.name for c in cert.checks]
    assert len(names) == len(set(names))


def test_certificate_deterministic():
    assert build_certificate(M2).as_dict() == build_certificate(
        ConstructionParams(2)
    ).as_dict()


def test_certificate_spot_values_m2():
    doc = build_certificate(M2).as_dict()
    assert doc["m"] == 2
    assert doc["dims"] == {"dim_Y": 8, "dim_Z": 10, "dim_X": 9}
    assert doc["picard"] == {
        "rho_Y": 2,
        "rho_X": 3,
        "delta_rho": 1,
        "elementary": True,
    }
    assert doc["classes"]["antiK_Y"] == "3D-1H"
    assert doc["classes"]["G"] == "1D-4H"
    assert doc["classes"]["Delta"] == "6D-8H"
    assert doc["classes_on_Z"] == {
        "xi": "1ξ+0D+0H",
        "antiK_Z": "3ξ+0D-3H",
        "X": "2ξ+0D-4H",
        "antiK_Z_minus_X": "1ξ+0D+1H",
    }
    assert doc["sym2_summands"].count("2D-4H") == 3
    assert doc["cones"]["nef"] == [[1, 0], [0, 1]]
    assert doc["cones"]["effective"] == [[1, -4], [0, 1]]
    assert doc["cones"]["walls"] == [[0, 1], [1, 0], [1, -4]]


@pytest.mark.parametrize("m", [2, 3])
def test_curve_pairings_come_from_intersection_numbers(m, monkeypatch):
    real = conicbundle.intersection_number
    monkeypatch.setattr(conicbundle, "intersection_number",
                        lambda *args: real(*args) + 1)
    cert = build_certificate(ConstructionParams(m))
    failed = {c.name for c in cert.checks if not c.passed}
    assert failed == {"antiK_Y_dot_ell_f", "antiK_Y_dot_ell_V",
                      "discriminant_dot_ell_f", "discriminant_dot_ell_V"}
    assert not cert.valid


@pytest.mark.parametrize("m", [2, 3])
def test_movable_equals_effective_reads_the_base_loci(m, monkeypatch):
    # Mov = Eff fails as soon as a ray of Eff(Y) has the divisor {y0 = 0}
    # in its base locus; here D - 2mH is made to report one
    params = ConstructionParams(m)
    assert build_certificate(params).cones["movable_equals_effective"] is True
    real = conicbundle.base_locus
    ray = DivisorClassY(1, -params.twist)

    def divisorial(cls_, params):
        result = real(cls_, params)
        if cls_ != ray:
            return result
        return dataclasses.replace(result, strata=frozenset({Stratum.Y0_DIVISOR}))

    monkeypatch.setattr(conicbundle, "base_locus", divisorial)
    assert build_certificate(params).cones["movable_equals_effective"] is False


@pytest.mark.parametrize("m", [2, 5])
def test_certificate_dim_X_scales(m):
    doc = build_certificate(ConstructionParams(m)).as_dict()
    assert doc["dims"]["dim_X"] == 3 * (m + 1)


def test_certificate_prose_claims():
    cert = build_certificate(M2)
    names = [p["name"] for p in cert.prose_claims]
    assert names == [
        "conic_bundle_in_p2_bundle",
        "pushforward_normalization",
        "picard_rank_jump",
        "degenerate_fibers_over_V",
        "flip_side_chamber",
        "genericity_by_sampling",
    ]
    for claim in cert.prose_claims:
        assert claim["statement"]


def test_certificate_checks_record_both_sides():
    cert = build_certificate(M2)
    for check in cert.checks:
        doc = check.as_dict()
        assert set(doc) == {"name", "expected", "computed", "pass"}
        assert doc["pass"] is True
        assert doc["expected"] == doc["computed"]


def test_certificate_json_serializable():
    text = json.dumps(build_certificate(M2).as_dict())
    assert json.loads(text)["valid"] is True
