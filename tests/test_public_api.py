"""The public API: every exported name is package code, the helpers that
only the tests use live in tests/oracles.py, not in the package, and
importing the package loads a module only when one of its names is used."""

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
    (verifier.ConicMatrix, "quadratic_form"),
    (verifier.ConicMatrix, "rows"),
    (polynomial.Poly, "diff"),
    (polynomial.Poly, "subs"),
]

# (owner, attribute) of each name that was deleted outright
REMOVED = [
    (chow, "ChowRing"),
    (chow, "ChowElement"),
    (chow, "SplitBundleOnP"),
    (linalg, "bareiss_rank"),
    (linalg, "det3"),
    (linalg, "kernel_vector_3x3"),
    (verifier.ConicMatrix, "seed"),
    (verifier.ConicMatrix, "perturb"),
    (verifier.ConicMatrix, "coeff_range"),
    (cones, "movable_cone"),
    (coxring, "random_section"),
    (coxring, "CoxGrading"),
    (conicbundle, "SplitBundleOnY"),
    (verifier, "check_smooth_at_V_point"),
    (verifier.CoxPointY, "on_V"),
    (picard.DivisorClassY, "parse"),
    (verifier.FiberDiagnosis, "as_dict"),
    (verifier.LineProbe, "as_dict"),
    (conicbundle.DivisorClassZ, "__neg__"),
    (conicbundle.DivisorClassZ, "__mul__"),
    (conicbundle.DivisorClassZ, "__rmul__"),
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


# Run in a fresh interpreter: which package modules are loaded after each
# step, what a star import binds, and what an unknown name raises.
FOOTPRINT = """
import json, sys

def loaded():
    return sorted(k for k in sys.modules if k.startswith("fanoconic."))

import fanoconic
steps = {"import": loaded()}
fanoconic.instantiate_sections(fanoconic.ConstructionParams(2), 1)
steps["instantiate_sections"] = loaded()
import fanoconic.cli
steps["cli"] = loaded()
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
    loaded = footprint["instantiate_sections"]
    assert "fanoconic.verifier" in loaded
    for name in ("conicbundle", "cones", "chow"):
        assert f"fanoconic.{name}" not in loaded


def test_the_cli_loads_every_module(footprint):
    # the benchmark tracer reads every module from sys.modules after
    # importing fanoconic.cli alone
    modules = {f"fanoconic.{name[:-3]}" for name in os.listdir(PACKAGE_DIR)
               if name.endswith(".py") and name != "__init__.py"}
    assert len(modules) == 9
    assert set(footprint["cli"]) == modules


def test_star_import_binds_exactly_all(footprint):
    assert footprint["star"] == sorted(footprint["all"])
    assert len(footprint["all"]) == 41
    assert set(fanoconic.__all__) <= set(dir(fanoconic))


def test_unknown_name_raises_attribute_error(footprint):
    assert footprint["unknown"] == "module 'fanoconic' has no attribute 'monomial_exponents'"
