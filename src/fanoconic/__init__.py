"""Exact verification toolkit for a family of Fano conic bundles.

For each integer m >= 2 the family lives over Y = P(O + O(2m) + O(2m))
on P^{3m}: divisor classes and intersection numbers on Y, its Cox ring
with section counts and base loci, the two-chamber Mori picture, the
ambient P^2-bundle Z with the conic divisor X inside it, and a seeded
pointwise audit of one random member (fiber degenerations over the
section V, chart smoothness, discriminant probes along lines).
"""

from .picard import (
    ConstructionParams,
    DivisorClassY,
    anticanonical_class,
    parse_divisor_class,
    standard_classes,
)
from .chow import bundle_of_G, bundle_of_Y
from .coxring import (
    BaseLocusResult,
    CoxGrading,
    Stratum,
    base_locus,
    count_sections,
    cox_ring,
    generator_degrees,
    is_effective,
    random_section,
)
from .cones import (
    ChamberDecomposition,
    Cone2D,
    PositivityReport,
    chamber_decomposition,
    classify,
    effective_cone,
    movable_cone,
    nef_cone,
)
from .conicbundle import (
    DivisorClassZ,
    ExampleCertificate,
    SplitBundleOnY,
    antiK_Z,
    build_certificate,
    discriminant_class,
    standard_bundle,
    sym2_decomposition,
)
from .verifier import (
    ConicMatrix,
    CoxPointY,
    FiberDiagnosis,
    FiberType,
    InstanceReport,
    LineProbe,
    boundary_identity_verdict,
    check_smooth_at_V_point,
    check_smooth_at_node,
    diagnose_conic,
    discriminant_on_line,
    fiber_at,
    instantiate_sections,
    run_instance,
)

__all__ = [
    "BaseLocusResult",
    "ChamberDecomposition",
    "Cone2D",
    "ConicMatrix",
    "ConstructionParams",
    "CoxGrading",
    "CoxPointY",
    "DivisorClassY",
    "DivisorClassZ",
    "ExampleCertificate",
    "FiberDiagnosis",
    "FiberType",
    "InstanceReport",
    "LineProbe",
    "PositivityReport",
    "SplitBundleOnY",
    "Stratum",
    "antiK_Z",
    "anticanonical_class",
    "base_locus",
    "boundary_identity_verdict",
    "build_certificate",
    "bundle_of_G",
    "bundle_of_Y",
    "chamber_decomposition",
    "check_smooth_at_V_point",
    "check_smooth_at_node",
    "classify",
    "count_sections",
    "cox_ring",
    "diagnose_conic",
    "discriminant_class",
    "discriminant_on_line",
    "effective_cone",
    "fiber_at",
    "generator_degrees",
    "instantiate_sections",
    "is_effective",
    "movable_cone",
    "nef_cone",
    "parse_divisor_class",
    "random_section",
    "run_instance",
    "standard_bundle",
    "standard_classes",
    "sym2_decomposition",
]

__version__ = "1.0.0"
