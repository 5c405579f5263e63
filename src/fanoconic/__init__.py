"""Exact verification toolkit for a family of Fano conic bundles.

For each integer m >= 2 the family lives over Y = P(O + O(2m) + O(2m))
on P^{3m}: divisor classes and intersection numbers on Y, its Cox ring
with section counts and base loci, the two-chamber Mori picture, the
ambient P^2-bundle Z with the conic divisor X inside it, and a seeded
pointwise audit of one random member (fiber degenerations over the
section V, chart smoothness, discriminant probes along lines).

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so a caller
that only draws sections never loads the certificate and cone modules.
"""

from importlib import import_module

# the public names, by the module that defines them
_EXPORTS = {
    "picard": ("ConstructionParams", "DivisorClassY", "anticanonical_class",
               "parse_divisor_class", "standard_classes"),
    "chow": ("bundle_of_G", "bundle_of_Y"),
    "coxring": ("BaseLocusResult", "Stratum", "base_locus", "count_sections",
                "cox_ring", "generator_degrees", "is_effective"),
    "cones": ("ChamberDecomposition", "Cone2D", "PositivityReport",
              "chamber_decomposition", "classify", "effective_cone", "nef_cone"),
    "conicbundle": ("DivisorClassZ", "ExampleCertificate", "antiK_Z",
                    "build_certificate", "discriminant_class",
                    "standard_bundle", "sym2_decomposition"),
    "verifier": ("ConicMatrix", "CoxPointY", "FiberDiagnosis", "FiberType",
                 "InstanceReport", "LineProbe", "boundary_identity_verdict",
                 "check_smooth_at_node", "diagnose_conic",
                 "discriminant_on_line", "fiber_at", "instantiate_sections",
                 "run_instance"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "1.0.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
