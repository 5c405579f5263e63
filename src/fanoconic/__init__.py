"""Exact verification toolkit for a family of Fano conic divisors.

For each integer m >= 2 the family lives over Y = P(O + O(2m) + O(2m))
on P^{3m}: divisor classes and intersection numbers on Y, its Cox ring
with section counts, base loci and the seeded draw of one member, the
two-chamber Mori picture, the ambient P^2-bundle Z with the conic
divisor X inside it, and a seeded pointwise audit of the drawn member
(fiber degenerations over the section V, chart smoothness, discriminant
probes along lines).

Not verified: X -> Y as built is not flat (it has P^2 fibers off V), and
the default-shape member is singular over {y0 = 0}, where no sample goes.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so a caller
that only draws a member (instantiate_sections, in coxring) loads
neither the audit modules nor the certificate and cone modules.  Loading
a module imports neither dataclasses nor fractions, which cost more than
a draw, and a draw loads neither numbers, fractions nor dataclasses.
fanoconic.cli imports every module, for the benchmark tracer.
"""

from importlib import import_module

# the public names, by the module that defines them
_EXPORTS = {
    "picard": ("ConstructionParams", "DivisorClassY", "anticanonical_class",
               "parse_divisor_class", "standard_classes"),
    "chow": ("bundle_of_G", "bundle_of_Y"),
    "coxring": ("ConicMatrix", "base_locus", "count_sections", "cox_ring",
                "generator_degrees", "instantiate_sections", "is_effective"),
    "cones": ("chamber_decomposition", "classify", "effective_cone", "nef_cone"),
    "conicbundle": ("DivisorClassZ", "antiK_Z", "build_certificate",
                    "discriminant_class", "standard_bundle",
                    "sym2_decomposition"),
    "verifier": ("LineProbe", "boundary_identity_verdict", "check_smooth_at_node",
                 "discriminant_on_line", "fiber_at", "run_instance"),
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
