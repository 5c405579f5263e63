"""End-to-end acceptance gate.

Seven criteria, each reported as one ACCEPTANCE line written to the real
stdout so the verdict survives pytest's capture.  Every criterion collects
all of its violations before failing, so a red run still shows the whole
picture at once.
"""

import json
import random
import time

import pytest

from fanoconic.cli import main
from fanoconic.conicbundle import build_certificate
from fanoconic.cones import chamber_decomposition, classify, effective_cone
from fanoconic.coxring import (
    base_locus,
    count_sections,
    is_effective,
)
from fanoconic.picard import (
    ConstructionParams,
    DivisorClassY,
    anticanonical_class,
)
from fanoconic.verifier import run_instance

from .oracles import ELL_F, ELL_V, count_monomials, enumerate_monomials, pair

TESTED_M = (2, 3, 4, 5)


@pytest.fixture
def announce(capsys):
    """Write one ACCEPTANCE line per criterion past pytest's capture."""

    def _announce(index: int, name: str, ok: bool) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {index} {name}: {verdict}", flush=True)

    return _announce


@pytest.fixture(scope="module")
def seeded_reports():
    """The two full m=2 verification runs, shared by criteria 5 and 6."""
    params = ConstructionParams(2)
    start = time.perf_counter()
    default = run_instance(params, seed=42, n_samples=100)
    perturbed = run_instance(params, seed=42, n_samples=100, perturb=True)
    elapsed = time.perf_counter() - start
    return default, perturbed, elapsed


# -- 1: the certificate ----------------------------------------------------


def test_certificate_identities_are_exact_and_fast(announce):
    failures = []
    try:
        for m in TESTED_M:
            params = ConstructionParams(m)
            t = 2 * m
            start = time.perf_counter()
            cert = build_certificate(params)
            elapsed = time.perf_counter() - start
            if elapsed >= 1.0:
                failures.append(f"m={m}: certificate took {elapsed:.3f}s")
            if not cert["valid"]:
                bad = [c["name"] for c in cert["checks"] if not c["pass"]]
                failures.append(f"m={m}: failing checks {bad}")

            antiK = anticanonical_class(params)
            if antiK != DivisorClassY(3, 1 - m):
                failures.append(f"m={m}: -K_Y computed as {antiK}")
            if not (pair(antiK, ELL_V) == 1 - m < 0):
                failures.append(
                    f"m={m}: -K_Y . ell_V = {pair(antiK, ELL_V)}")

            by_name = {c["name"]: c for c in cert["checks"]}
            for name in (
                "antiK_Y_from_projbundle_formula",
                "adjunction_G",
                "antiK_Z",
                "antiK_Z_minus_X",
                "antiK_Z_minus_X_ample_via_summands",
                "sym2_multiset",
                "defining_twist_M",
                "discriminant_class",
                "discriminant_dot_ell_V",
                "dims_consistent",
            ):
                if name not in by_name:
                    failures.append(f"m={m}: missing check {name}")
                elif not by_name[name]["pass"]:
                    failures.append(f"m={m}: check {name} did not pass")

            if cert["classes_on_Z"]["antiK_Z"] != f"3ξ+0D{1 - t:+d}H":
                failures.append(
                    f"m={m}: -K_Z is {cert['classes_on_Z']['antiK_Z']}")
            if cert["classes_on_Z"]["antiK_Z_minus_X"] != "1ξ+0D+1H":
                failures.append(
                    f"m={m}: -K_Z - X is "
                    f"{cert['classes_on_Z']['antiK_Z_minus_X']}")
            want_sym2 = sorted(
                [f"2D-{t}H"] * 3 + [f"2D-{m}H"] * 2 + ["2D+0H"])
            if sorted(cert["sym2_summands"]) != want_sym2:
                failures.append(f"m={m}: Sym^2 pattern {cert['sym2_summands']}")
            if by_name["discriminant_dot_ell_V"]["computed"] != -2 * t:
                failures.append(
                    f"m={m}: Delta . ell_V = "
                    f"{by_name['discriminant_dot_ell_V']['computed']}")
            if cert["dims"]["dim_X"] != 3 * (m + 1):
                failures.append(f"m={m}: dim_X = {cert['dims']['dim_X']}")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    announce(1, "certificate_identities", not failures)
    assert not failures, "\n".join(failures)


# -- 2: base loci ----------------------------------------------------------


def test_base_loci_collapse_to_V(announce):
    failures = []
    try:
        for m in TESTED_M:
            params = ConstructionParams(m)
            t = 2 * m
            exactly_v = (
                DivisorClassY(2, -t),
                DivisorClassY(1, -m),
                DivisorClassY(2, -m),
                DivisorClassY(1, -t),
            )
            for cls_ in exactly_v:
                start = time.perf_counter()
                result = base_locus(cls_, params)
                elapsed = time.perf_counter() - start
                if elapsed >= 1.0:
                    failures.append(f"m={m} {cls_}: took {elapsed:.3f}s")
                if result["strata"] != ["V"]:
                    failures.append(
                        f"m={m} {cls_}: strata {result['strata']}")
            start = time.perf_counter()
            contained = base_locus(DivisorClassY(3, -t), params)
            elapsed = time.perf_counter() - start
            if elapsed >= 1.0:
                failures.append(f"m={m} 3D-{t}H: took {elapsed:.3f}s")
            if not set(contained["strata"]) <= {"V"}:
                failures.append(
                    f"m={m} 3D-{t}H: strata {contained['strata']} "
                    "escape V")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    announce(2, "base_loci_collapse_to_V", not failures)
    assert not failures, "\n".join(failures)


# -- 3: the cone picture ---------------------------------------------------


def test_two_chamber_mori_picture(announce):
    failures = []
    try:
        for m in TESTED_M:
            params = ConstructionParams(m)
            t = 2 * m
            dec = chamber_decomposition(params)
            if dec["walls"] != [[0, 1], [1, 0], [1, -t]]:
                failures.append(f"m={m}: walls {dec['walls']}")
            ray_sets = [frozenset(map(tuple, c["rays"])) for c in dec["chambers"]]
            if ray_sets != [frozenset({(1, 0), (0, 1)}),
                            frozenset({(1, 0), (1, -t)})]:
                failures.append(f"m={m}: chamber rays {ray_sets}")
            eff = effective_cone(params)
            if not build_certificate(params)["cones"]["movable_equals_effective"]:
                failures.append(f"m={m}: movable cone differs from effective")
            if (dec["walls"][0], dec["walls"][-1]) != (list(eff[1]), list(eff[0])):
                failures.append(f"m={m}: chambers do not fill the cone")

            antiK_flags = classify(anticanonical_class(params), params)
            if not (antiK_flags["big"] and not antiK_flags["nef"]):
                failures.append(f"m={m}: -K_Y flags {antiK_flags}")
            d_flags = classify(DivisorClassY(1, 0), params)
            if not (d_flags["nef"] and d_flags["big"] and not d_flags["ample"]):
                failures.append(f"m={m}: D flags {d_flags}")

            for a in range(-10, 11):
                for b in range(-10, 11):
                    cls_ = DivisorClassY(a, b)
                    dual = pair(cls_, ELL_F) >= 0 and pair(cls_, ELL_V) >= 0
                    if classify(cls_, params)["nef"] != dual:
                        failures.append(f"m={m}: duality fails at {cls_}")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    announce(3, "two_chamber_mori_picture", not failures)
    assert not failures, "\n".join(failures)


# -- 4: counting and base loci against independent oracles ------------------


def _vanishes_at(exps, point) -> bool:
    for c, e in zip(reversed(point), reversed(exps)):
        if e and c == 0:
            return True
    return False


def _value_at(exps, point) -> int:
    value = 1
    for c, e in zip(point, exps):
        if e:
            value *= c ** e
    return value


def test_counting_and_base_loci_match_oracles(announce):
    failures = []
    start = time.perf_counter()
    try:
        for m in (2, 3):
            params = ConstructionParams(m)
            t = 2 * m
            n_x = 3 * m + 1
            for a in range(-4, 5):
                for b in range(-4 * m, 4 * m + 1):
                    cls_ = DivisorClassY(a, b)
                    counted = count_sections(cls_, params)
                    oracle = count_monomials(a, b, t, n_x)
                    if counted != oracle:
                        failures.append(
                            f"m={m} {cls_}: count {counted} != {oracle}")
                    in_cone = classify(cls_, params)["effective"]
                    if is_effective(cls_, params) != in_cone:
                        failures.append(
                            f"m={m} {cls_}: effectivity disagrees with cone")
                    if 0 < counted <= 2000:
                        listed = len(enumerate_monomials(a, b, t, n_x))
                        if listed != counted:
                            failures.append(
                                f"m={m} {cls_}: enumerated {listed}, "
                                f"counted {counted}")

        params = ConstructionParams(2)
        rng = random.Random(20260822)
        nonzero = [c for c in range(-9, 10) if c != 0]
        for a, b in ((2, -4), (1, -2), (2, -2), (1, -4), (3, -4),
                     (1, 0), (0, 1), (0, 0), (2, 1)):
            cls_ = DivisorClassY(a, b)
            monos = enumerate_monomials(a, b, 4, 7)
            v_in_locus = "V" in base_locus(cls_, params)["strata"]
            all_vanish = True
            for _ in range(100):
                point = tuple(rng.choice(nonzero) for _ in range(8)) + (0, 0)
                if not all(_vanishes_at(e, point) for e in monos):
                    all_vanish = False
                    break
            if v_in_locus != all_vanish:
                failures.append(
                    f"{cls_}: V-sampling says vanish={all_vanish}, "
                    f"base locus says {v_in_locus}")
            if monos:
                witness = monos[0]
                for _ in range(100):
                    point = tuple(rng.choice(nonzero) for _ in range(10))
                    if _value_at(witness, point) == 0:
                        failures.append(f"{cls_}: witness vanished off V")
                        break
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"oracle comparison took {elapsed:.1f}s")
    announce(4, "section_counting_oracles", not failures)
    assert not failures, "\n".join(failures)


# -- 5: the seeded instance run --------------------------------------------


def test_seeded_instance_verification(announce, seeded_reports):
    default, perturbed, elapsed = seeded_reports
    failures = []
    if elapsed >= 300.0:
        failures.append(f"both runs took {elapsed:.1f}s")
    for tag, report in (("default", default), ("perturb", perturbed)):
        v = report["v_fibers"]
        if (v["double_line"], v["sigma_nonzero"], v["grid_ok"]) != (100,) * 3:
            failures.append(
                f"{tag}: V fibers {v['double_line']}/{v['sigma_nonzero']}"
                f"/{v['grid_ok']} of {v['count']}")
        g = report["generic_fibers"]
        if g["smooth_conic"] != 100:
            failures.append(
                f"{tag}: {g['smooth_conic']}/100 generic smooth conics")
        if report["boundary_identity"] != "PASS":
            failures.append(
                f"{tag}: boundary identity {report['boundary_identity']}")
        c = report["chart_lines"]
        if c["squarefree"] != 100:
            failures.append(
                f"{tag}: {c['squarefree']}/100 squarefree chart lines")
        f = report["fiber_lines"]
        if (f["count"], f["degree_six"]) != (20, 20):
            failures.append(
                f"{tag}: {f['degree_six']}/{f['count']} sextic fiber lines")
        if report["failures"]:
            failures.append(f"{tag}: reported {report['failures']}")
        if not report["passed"]:
            failures.append(f"{tag}: run not passed")
    announce(5, "seeded_instance_verification", not failures)
    assert not failures, "\n".join(failures)


# -- 6: the headline consequence -------------------------------------------


def test_fano_bundle_onto_non_weak_fano_base(announce, seeded_reports):
    default, _, _ = seeded_reports
    failures = []
    try:
        for m in TESTED_M:
            if not build_certificate(ConstructionParams(m))["valid"]:
                failures.append(f"m={m}: certificate invalid")
        params = ConstructionParams(2)
        flags = classify(anticanonical_class(params), params)
        if not (flags["effective"] and flags["big"]):
            failures.append(f"-K_Y not big: {flags}")
        if flags["nef"]:
            failures.append("-K_Y certified nef; the base would be weak Fano")
        v = default["v_fibers"]
        if not (v["count"] == 100 and v["double_line"] == v["count"]):
            failures.append(
                f"non-reduced fibers over V not observed: "
                f"{v['double_line']}/{v['count']}")
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    announce(6, "fano_bundle_onto_non_weak_fano_base", not failures)
    assert not failures, "\n".join(failures)


# -- 7: determinism --------------------------------------------------------


def test_cli_output_is_byte_identical(announce, capsys):
    failures = []
    commands = (
        ["certificate", "--m", "2"],
        ["certificate", "--m", "2", "--format", "json"],
        ["verify", "--m", "2", "--samples", "3", "--seed", "42"],
        ["verify", "--m", "2", "--samples", "3", "--seed", "42",
         "--format", "json"],
    )
    try:
        for argv in commands:
            first_code = main(list(argv))
            first = capsys.readouterr().out
            second_code = main(list(argv))
            second = capsys.readouterr().out
            label = " ".join(argv)
            if first_code != 0 or second_code != 0:
                failures.append(
                    f"{label}: exit codes {first_code}, {second_code}")
            if not first:
                failures.append(f"{label}: empty output")
            if first != second:
                failures.append(f"{label}: outputs differ between runs")
            if argv[-1] == "json":
                json.loads(first)
    except Exception as exc:
        failures.append(f"unexpected error: {exc!r}")
    announce(7, "byte_identical_reruns", not failures)
    assert not failures, "\n".join(failures)
