"""The public API: every exported name is package code, and the helpers
that only the tests use live in tests/oracles.py, not in the package."""

import inspect
import os

import pytest

import fanoconic
from fanoconic import chow, cones, linalg, picard, polynomial, verifier

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
