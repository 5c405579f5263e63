"""The public API: every exported name is package code, the helpers that
only the tests use live in tests/oracles.py, not in the package, the value
types behave as frozen dataclasses, and importing the package loads a
module only when one of its names is used."""

import inspect
import json
import os
import subprocess
import sys

import pytest

import fanoconic
from fanoconic import chow, cones, conicbundle, coxring, linalg, picard, polynomial, verifier

PACKAGE_DIR = os.path.dirname(os.path.abspath(fanoconic.__file__))

# (owner, attribute) of each helper that moved to tests/oracles.py
MOVED = [
    (polynomial.Poly, "restrict_line"),
    (polynomial.Poly, "lift"),
    (polynomial.Poly, "to_pairs"),
    (polynomial.PolyRing, "from_pairs"),
    (polynomial.PolyRing, "gens"),
    (polynomial.PolyRing, "_vars"),
    (polynomial, "_linear_power"),
    (cones, "nef_by_duality"),
    (picard, "CurveClassY"),
    (picard, "ELL_F"),
    (picard, "ELL_V"),
    (picard, "pair"),
    (verifier, "conic_ring"),
    (verifier, "_conic_ring"),
    (coxring.ConicMatrix, "quadratic_form"),
    (coxring.ConicMatrix, "rows"),
    (polynomial.Poly, "diff"),
    (polynomial.Poly, "subs"),
    (coxring, "section_bases"),
    (coxring, "draw_on_basis"),
    (coxring, "_compositions"),
    (coxring, "_square_sigma_prime"),
    (coxring, "_times_var"),
    (verifier, "_line_degree_bound"),
]

# (owner, attribute) of each name that was deleted outright
REMOVED = [
    (chow, "ChowRing"),
    (chow, "ChowElement"),
    (chow, "SplitBundleOnP"),
    (linalg, "bareiss_rank"),
    (linalg, "det3"),
    (linalg, "kernel_vector_3x3"),
    (coxring.ConicMatrix, "seed"),
    (coxring.ConicMatrix, "perturb"),
    (coxring.ConicMatrix, "coeff_range"),
    (cones, "movable_cone"),
    (coxring, "random_section"),
    (coxring, "CoxGrading"),
    (conicbundle, "SplitBundleOnY"),
    (verifier, "check_smooth_at_V_point"),
    (verifier, "_audit_gradient"),
    (verifier, "_entry_evals"),
    (verifier, "_chart_frame"),
    (verifier, "_chart_values"),
    (polynomial.Poly, "eval_with_gradient"),
    (picard.DivisorClassY, "parse"),
    (verifier.LineProbe, "as_dict"),
    (conicbundle.DivisorClassZ, "__neg__"),
    (conicbundle.DivisorClassZ, "__mul__"),
    (conicbundle.DivisorClassZ, "__rmul__"),
    (polynomial.Poly, "is_zero"),
    (coxring, "monomial_exponents"),
    (coxring, "section_basis"),
    (coxring, "Stratum"),
    (coxring, "BaseLocusResult"),
    (cones, "PositivityReport"),
    (conicbundle, "ExampleCertificate"),
    (verifier, "InstanceReport"),
    (verifier, "FiberType"),
    (verifier, "FiberDiagnosis"),
    (verifier, "diagnose_conic"),
    (cones, "ChamberDecomposition"),
    (verifier, "CoxPointY"),
    (cones, "Cone2D"),
    (cones, "primitive_ray"),
    (polynomial, "_trailing_split"),
]


def test_all_names_are_unique():
    assert len(set(fanoconic.__all__)) == len(fanoconic.__all__)


@pytest.mark.parametrize("name", fanoconic.__all__)
def test_exported_name_is_defined_in_the_package(name):
    obj = getattr(fanoconic, name)
    if not (inspect.isclass(obj) or inspect.isfunction(obj)):
        obj = type(obj)
    source = os.path.abspath(inspect.getsourcefile(obj))
    assert os.path.dirname(source) == PACKAGE_DIR, (name, source)


GONE = MOVED + REMOVED


@pytest.mark.parametrize("owner, attr", GONE,
                         ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in GONE])
def test_moved_helper_is_gone(owner, attr):
    assert not hasattr(owner, attr)
    assert attr not in fanoconic.__all__


M2 = picard.ConstructionParams(2)
_DRAWN = [coxring.instantiate_sections(M2, seed) for seed in (1, 2)]

# (type, field names, field values, other field values) of each value type
VALUES = [
    (picard.ConstructionParams, ("m",), (2,), (3,)),
    (picard.DivisorClassY, ("a", "b"), (1, -4), (1, 4)),
    (coxring.ConicMatrix, ("params",) + coxring._SLOT_NAMES + ("sigma_prime",), *[
        (M2, *(p for _, p in m.named_entries()), m.sigma_prime) for m in _DRAWN]),
    (verifier.LineProbe, ("degree", "squarefree"), (6, True), (-1, None)),
    (conicbundle.DivisorClassZ, ("xi", "a", "b"), (2, 0, -4), (2, 0, -6)),
]


@pytest.mark.parametrize("cls, fields, values, other", VALUES,
                         ids=[v[0].__name__ for v in VALUES])
def test_value_types_behave_as_frozen_dataclasses(cls, fields, values, other):
    given = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert given == by_keyword and hash(given) == hash(by_keyword)
    assert [getattr(given, name) for name in fields] == list(values)
    assert given != cls(*other)
    # equal only to the same type: not to the tuple of its fields, and
    # not to a subclass with the same fields
    assert given != tuple(values) and tuple(values) != given
    assert given != type("Sub", (cls,), {})(*values)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(given, name, values[0])
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(given, name)
    assert given == by_keyword
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(given) == f"{cls.__name__}({shown})"
    # a missing, extra, repeated or unknown field is refused
    for args, kwargs in ((values[:-1], {}), (values + values[:1], {}),
                         (values, {fields[0]: values[0]}),
                         (values[:-1], {"unknown": values[-1]})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def _message(make) -> str:
    with pytest.raises(ValueError) as exc:
        make()
    return str(exc.value)


def test_value_types_keep_their_arithmetic_and_messages():
    D, H = picard.DivisorClassY(1, 0), picard.DivisorClassY(0, 1)
    assert (D + H, D - H, -D, 3 * D, D * -2) == (
        picard.DivisorClassY(1, 1), picard.DivisorClassY(1, -1), picard.DivisorClassY(-1, 0),
        picard.DivisorClassY(3, 0), picard.DivisorClassY(-2, 0))
    assert str(3 * D - 4 * H) == "3D-4H"
    for k in (True, 1.5):
        with pytest.raises(TypeError):
            D * k
    Z = conicbundle.DivisorClassZ
    assert Z(2, 0, -4) + Z(-1, 1, 5) == Z(1, 1, 1)
    assert Z(2, 0, -4) - Z(-1, 1, 5) == Z(3, -1, -9)
    assert str(Z(2, 0, -4)) == "2ξ+0D-4H"

    entries = dict(_DRAWN[0].named_entries(), sigma_prime=_DRAWN[0].sigma_prime)
    y0 = coxring.cox_ring(M2).var("y0")
    m3_y0 = coxring.cox_ring(picard.ConstructionParams(3)).var("y0")
    assert [_message(make) for make in (
        lambda: picard.ConstructionParams("2"),
        lambda: picard.ConstructionParams(True),
        lambda: picard.ConstructionParams(1),
        lambda: coxring.ConicMatrix(M2, **dict(entries, lam1=y0 * y0)),
        lambda: coxring.ConicMatrix(M2, **dict(entries, sigma=m3_y0 * m3_y0)),
    )] == [
        "m must be an integer, got '2'",
        "m must be an integer, got True",
        "m must be at least 2, got 1",
        "entry lam1 has degree 2D+0H, expected 2D-2H",
        "entry sigma is not in the ring of m = 2",
    ]


# Run in a fresh interpreter: which package modules are loaded after each
# step, what a star import binds, and what an unknown name raises.
FOOTPRINT = """
import json, sys

def loaded():
    return sorted(k for k in sys.modules if k.startswith("fanoconic."))

import fanoconic
steps = {"import": loaded()}
before = set(sys.modules)
fanoconic.instantiate_sections(fanoconic.ConstructionParams(2), 1)
steps["instantiate_sections"] = loaded()
steps["instantiate_sections_new"] = sorted(set(sys.modules) - before)
before = set(sys.modules)
import fanoconic.cli
steps["cli"] = loaded()
steps["cli_new"] = sorted(set(sys.modules) - before)
names = {}
exec("from fanoconic import *", names)
steps["star"] = sorted(set(names) - {"__builtins__"})
steps["all"] = fanoconic.__all__
try:
    fanoconic.monomial_exponents
except AttributeError as exc:
    steps["unknown"] = str(exc)
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def footprint():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True,
                         text=True, env=env, timeout=60, check=True).stdout
    return json.loads(out)


def test_importing_the_package_loads_no_module(footprint):
    assert footprint["import"] == []


def test_drawing_sections_skips_the_certificate_modules(footprint):
    # a member is drawn in coxring; the audit and the certificate stay unloaded
    loaded = footprint["instantiate_sections"]
    assert "fanoconic.coxring" in loaded
    for name in ("verifier", "linalg", "conicbundle", "cones", "chow"):
        assert f"fanoconic.{name}" not in loaded


def test_the_cli_loads_every_module(footprint):
    # the benchmark tracer reads every module from sys.modules after
    # importing fanoconic.cli alone
    modules = {f"fanoconic.{name[:-3]}" for name in os.listdir(PACKAGE_DIR)
               if name.endswith(".py") and name != "__init__.py"}
    assert len(modules) == 9
    assert set(footprint["cli"]) == modules


@pytest.mark.parametrize("step, module", [("instantiate_sections", "fanoconic.coxring"),
                                          ("cli", "fanoconic.cli")])
def test_step_loads_no_heavy_standard_module(footprint, step, module):
    # dataclasses loads inspect (with ast, dis and tokenize), and fractions
    # loads decimal: together most of what a fresh draw used to cost
    new = footprint[f"{step}_new"]
    assert module in new
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(new)


def test_star_import_binds_exactly_all(footprint):
    assert footprint["star"] == sorted(footprint["all"])
    assert len(footprint["all"]) == 30
    assert set(fanoconic.__all__) <= set(dir(fanoconic))


def test_unknown_name_raises_attribute_error(footprint):
    assert footprint["unknown"] == "module 'fanoconic' has no attribute 'monomial_exponents'"


def test_conic_matrix_checks_hold_under_optimized_mode():
    # python -O strips assert statements; the degree and ring checks of
    # ConicMatrix, the admissibility check of the audit and the rank check
    # of the node verdict are raises, so a bad entry, a point inside
    # {x = 0} and a rank-3 point are still refused
    code = """if True:
        from fanoconic import (ConicMatrix, ConstructionParams, check_smooth_at_node,
                               cox_ring, fiber_at, instantiate_sections)
        m2, m3 = ConstructionParams(2), ConstructionParams(3)
        drawn = instantiate_sections(m2, 1)
        entries = dict(drawn.named_entries(), sigma_prime=drawn.sigma_prime)
        bad = {"degree": dict(entries, lam1=entries["lam1"] + cox_ring(m2).var("y0")),
               "ring": dict(entries, sigma=cox_ring(m3).var("y0") ** 2)}
        for name, given in bad.items():
            try:
                ConicMatrix(m2, **given)
            except ValueError as exc:
                print(name, "refused:", exc)
        try:
            fiber_at(drawn, (0,) * 7 + (1, 2, 3))
        except ValueError as exc:
            print("point refused:", exc)
        try:
            check_smooth_at_node(drawn, (1,) * 7 + (1, 2, 3))
        except ValueError as exc:
            print("node refused:", exc)
    """
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR)),
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "degree refused: polynomial is not bigraded homogeneous: 1D+0H, 2D-2H",
        "ring refused: entry sigma is not in the ring of m = 2",
        "point refused: Cox data lies inside the locus x = 0",
        "node refused: fiber does not have rank 2 at this point",
    ]
