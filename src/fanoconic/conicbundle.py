"""The conic bundle over Y_m and its divisor-level certificate.

The total space is the P^2-bundle Z = P(E) over Y with
E = O(D) + O(D) + O(D+mH); divisor classes on Z live in the rank-3 lattice
spanned by the tautological class xi and the pullbacks of D and H.  The
conic divisor X is cut by a symmetric matrix of sections of Sym^2 of the
twisted bundle E(-mH), so X sits in |2 xi - 2m p*H|, and the relative
anticanonical identity -K_Z - X = xi + p*H makes -K_X the restriction of
an ample class: each example in the family is a Fano conic bundle over a
base whose own anticanonical class is not nef.

build_certificate assembles every divisor-level identity of one example
into an auditable list of named checks; nothing in here touches sections
or points (that is the verifier's job).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chow import bundle_of_G, bundle_of_Y, intersection_number
from .cones import chamber_decomposition, classify, effective_cone, nef_cone
from .coxring import Stratum, base_locus, generator_degrees, is_effective
from .picard import ConstructionParams, DivisorClassY, anticanonical_class, standard_classes


def standard_bundle(params: ConstructionParams) -> tuple:
    """E = O(D) + O(D) + O(D + mH), ordered to match the fiber coordinates
    (z_0, z_1, z_2); the third summand carries the extra twist."""
    d = DivisorClassY(1, 0)
    return (d, d, DivisorClassY(1, params.m))


def _det(classes) -> DivisorClassY:
    """The sum of the classes: det of a split bundle, from its summands."""
    return sum(classes, DivisorClassY(0, 0))


@dataclass(frozen=True)
class DivisorClassZ:
    """xi_coeff * xi + a * p*D + b * p*H on Z = P(E)."""

    xi: int
    a: int
    b: int

    def __add__(self, other):
        return DivisorClassZ(self.xi + other.xi, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return DivisorClassZ(self.xi - other.xi, self.a - other.a, self.b - other.b)

    def __str__(self):
        return f"{self.xi}ξ{self.a:+d}D{self.b:+d}H"


def pullback(cls_: DivisorClassY) -> DivisorClassZ:
    return DivisorClassZ(0, cls_.a, cls_.b)


def section_twist(params: ConstructionParams) -> DivisorClassY:
    """The half twist T = -mH: the conic divisor lives in |2(xi + p*T)|."""
    return DivisorClassY(0, -params.m)


def conic_defining_twist(params: ConstructionParams) -> DivisorClassY:
    """M = 2T = -2mH, the pullback part of the defining linear system.

    This is the twist actually carried by the construction (X in
    |2 xi + p*M|), not the normalized-pushforward convention; the
    discriminant formula below is stated for this pairing of (E, M).
    """
    return 2 * section_twist(params)


def x_class_on_Z(params: ConstructionParams) -> DivisorClassZ:
    m_cls = conic_defining_twist(params)
    return DivisorClassZ(2, 0, 0) + pullback(m_cls)


def antiK_of_projectivization(base_antiK: DivisorClassY,
                              bundle: tuple) -> DivisorClassZ:
    """-K of P(bundle) by the relative Euler sequence:
    rank * xi + p*(base_antiK - det bundle)."""
    if not bundle:
        raise ValueError("bundle needs at least one summand")
    return DivisorClassZ(len(bundle), 0, 0) + pullback(base_antiK - _det(bundle))


def antiK_of_projectivization_over_base(params: ConstructionParams,
                                        twists: tuple) -> DivisorClassY:
    """Same formula one floor down, for the split bundle on P^{3m} with the
    given twists.

    The tautological class of the defining bundle of Y is D itself, so the
    result lands in the (D, H) lattice: rank * D + (3m + 1 - sum twists) H.
    """
    return DivisorClassY(len(twists), params.n_x - sum(twists))


def antiK_Z(params: ConstructionParams) -> DivisorClassZ:
    """-K_Z = 3 xi + (1 - 2m) p*H."""
    return antiK_of_projectivization(anticanonical_class(params), standard_bundle(params))


def adjunction_solve_G(params: ConstructionParams) -> DivisorClassY:
    """Solve K_{G_i} = (K_Y + G_i)|_{G_i} for the class of G_i.

    Restriction to G_i identifies the two divisor lattices, so the adjoint
    equation is solved coordinatewise: G = K_G - K_Y with K_G taken from
    the rank-2 projectivization formula.  Comes out as D - 2mH.
    """
    k_g = -antiK_of_projectivization_over_base(params, bundle_of_G(params))
    k_y = -anticanonical_class(params)
    return k_g - k_y


def sym2_decomposition(bundle: tuple,
                       twist_cls: DivisorClassY) -> tuple:
    """Summand classes of Sym^2(bundle + twist), with multiplicity.

    Pairwise sums with repetition of the twisted summands, sorted, so the
    multiset is canonical: rank r gives r(r+1)/2 entries.
    """
    tw = [s + twist_cls for s in bundle]
    out = []
    for i in range(len(tw)):
        for j in range(i, len(tw)):
            out.append(tw[i] + tw[j])
    return tuple(sorted(out, key=lambda c: (c.a, c.b)))


def ampleness_via_summands(bundle: tuple,
                           params: ConstructionParams) -> bool:
    """A split bundle is ample iff every summand is; exact for direct sums."""
    return all(classify(s, params).ample for s in bundle)


def discriminant_class(bundle: tuple,
                       params: ConstructionParams) -> DivisorClassY:
    """Discriminant of the conic fibration: 2 det(bundle) + 3M.

    M is the defining twist of the symmetric matrix (see
    conic_defining_twist); the combination 2 det E + 3M is invariant under
    retwisting (E, M) -> (E + L, M - 2L), so this matches any convention
    once (E, M) are paired consistently.  For the standard bundle:
    2(3D + mH) + 3(-2mH) = 6D - 4mH.
    """
    return 2 * _det(bundle) + 3 * conic_defining_twist(params)


# -- the certificate -------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    name: str
    expected: object
    computed: object
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ExampleCertificate:
    m: int
    dims: dict
    picard_numbers: dict
    classes: dict
    classes_on_Z: dict
    sym2_summands: tuple
    cones: dict
    checks: tuple
    prose_claims: tuple
    valid: bool

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "dims": dict(self.dims),
            "picard": dict(self.picard_numbers),
            "classes": dict(self.classes),
            "classes_on_Z": dict(self.classes_on_Z),
            "sym2_summands": list(self.sym2_summands),
            "cones": dict(self.cones),
            "checks": [c.as_dict() for c in self.checks],
            "prose_claims": [dict(p) for p in self.prose_claims],
            "valid": self.valid,
        }


_PROSE_CLAIMS = (
    {
        "name": "conic_bundle_in_p2_bundle",
        "statement": "A conic bundle over a smooth base embeds in a P^2-bundle "
                     "P(E) for a rank-3 bundle E and is cut fiberwise by a "
                     "symmetric 3x3 matrix of sections (Ando's description).",
    },
    {
        "name": "pushforward_normalization",
        "statement": "The normalized convention f_* O_X(-K_X) equals E twisted "
                     "by O(H); the certificate tracks the concrete E and the "
                     "defining twist M = -2mH instead, and 2 det E + 3M is "
                     "invariant under matched retwists.  Not recomputed here.",
    },
    {
        "name": "picard_rank_jump",
        "statement": "The conic divisor X has Picard rank rho_Y + 1, so the "
                     "fibration X -> Y is an elementary contraction.  Recorded, "
                     "not recomputed.",
    },
    {
        "name": "degenerate_fibers_over_V",
        "statement": "Over the section V every fiber degenerates to the double "
                     "line sigma z_2^2 = 0; the instance verifier samples this "
                     "pointwise rather than reproving it.",
    },
    {
        "name": "flip_side_chamber",
        "statement": "The second Mori chamber of Mov(Y) belongs to the small "
                     "modification contracting the surface dual to the wall at "
                     "D; not examined by this package.",
    },
    {
        "name": "genericity_by_sampling",
        "statement": "Statements about a general member of a linear system are "
                     "realized by seeded random sections; a failing sample is "
                     "reported with its witness, never patched.",
    },
)


def build_certificate(params: ConstructionParams) -> ExampleCertificate:
    """Run every divisor-level check of one example and bundle the results.

    Deterministic: two calls with the same m produce identical certificates.
    """
    m = params.m
    t = params.twist
    named = standard_classes(params)
    e_bundle = standard_bundle(params)
    antiK_Y = anticanonical_class(params)
    g_cls = named["G"]
    delta = named["Delta"]
    m_cls = named["M"]
    h_cls = named["H"]
    d_cls = named["D"]

    checks: list[CheckRecord] = []

    # a line in a fiber is D H^{3m}; a line in V = G_1 G_2 is G^2 H^{3m-1}
    ell_f = {d_cls: 1, h_cls: params.n_base}
    ell_v = {g_cls: 2, h_cls: params.n_base - 1}

    def dot(cls_, cycle):
        factors = {**cycle, cls_: cycle.get(cls_, 0) + 1}
        return intersection_number(params.n_base, bundle_of_Y(params), factors)

    def chk(name, expected, computed):
        checks.append(CheckRecord(name, expected, computed, expected == computed))

    # anticanonical class of Y, two independent routes
    chk(
        "antiK_Y_from_projbundle_formula",
        str(antiK_Y),
        str(antiK_of_projectivization_over_base(params, bundle_of_Y(params))),
    )
    chk("antiK_Y_dot_ell_V", 1 - m, dot(antiK_Y, ell_v))
    chk("antiK_Y_dot_ell_f", 3, dot(antiK_Y, ell_f))
    flags = classify(antiK_Y, params).as_dict()
    flags.pop("class")
    chk(
        "antiK_Y_positivity_flags",
        {"effective": True, "big": True, "movable": True, "nef": False, "ample": False},
        flags,
    )

    # the divisors G_i by adjunction
    chk("adjunction_G", str(g_cls), str(adjunction_solve_G(params)))

    # base loci of the small systems and of the discriminant bound
    for cls_ in (
        DivisorClassY(2, -t),
        DivisorClassY(1, -m),
        DivisorClassY(2, -m),
        DivisorClassY(1, -t),
        DivisorClassY(3, -t),
        delta,
    ):
        chk(f"base_locus_{cls_}", ["V"], base_locus(cls_, params).strata_names())

    # cone picture
    nef = nef_cone(params)
    eff = effective_cone(params)
    dec = chamber_decomposition(generator_degrees(params), params)
    chk("nef_cone_rays", [[1, 0], [0, 1]], [list(r) for r in nef.rays()])
    chk("effective_cone_rays", [[1, -t], [0, 1]], [list(r) for r in eff.rays()])
    chk("chamber_count", 2, len(dec.chambers))
    chk("chamber_labels", ["NEF_Y", "FLIP_CHAMBER"], list(dec.labels))
    chk("interior_walls", ["1D+0H"],
        [str(DivisorClassY(*w)) for w in dec.interior_walls()])
    chk(
        "chambers_cover_movable_cone",
        True,
        dec.walls[0] == eff.ray2 and dec.walls[-1] == eff.ray1,
    )

    # classes on Z and the adjunction bookkeeping
    z_antiK = antiK_Z(params)
    x_cls = x_class_on_Z(params)
    restriction = z_antiK - x_cls
    chk("antiK_Z", str(DivisorClassZ(3, 0, 1 - t)), str(z_antiK))
    chk("X_class_on_Z", str(DivisorClassZ(2, 0, -t)), str(x_cls))
    chk("antiK_Z_minus_X", str(DivisorClassZ(1, 0, 1)), str(restriction))
    chk(
        "antiK_Z_minus_X_ample_via_summands",
        True,
        ampleness_via_summands([s + h_cls for s in e_bundle], params),
    )

    # the symmetric-matrix package
    sym2 = sym2_decomposition(e_bundle, section_twist(params))
    expected_sym2 = [str(DivisorClassY(2, -t))] * 3 + [str(DivisorClassY(2, -m))] * 2 \
        + [str(DivisorClassY(2, 0))]
    chk("sym2_multiset", expected_sym2, [str(c) for c in sym2])
    twisted = [s + section_twist(params) for s in e_bundle]
    chk(
        "sym2_det_identity",
        str((len(e_bundle) + 1) * _det(twisted)),
        str(_det(sym2)),
    )

    # discriminant
    chk("defining_twist_M", str(conic_defining_twist(params)), str(m_cls))
    delta_computed = discriminant_class(e_bundle, params)
    chk("discriminant_class", str(delta), str(delta_computed))
    chk("discriminant_dot_ell_V", -2 * t, dot(delta_computed, ell_v))
    chk("discriminant_dot_ell_f", 6, dot(delta_computed, ell_f))
    chk(
        "discriminant_effective_both_tests",
        True,
        classify(delta_computed, params).effective
        and is_effective(delta_computed, params),
    )

    # dimensions and Picard bookkeeping
    dims = {"dim_Y": params.dim_Y, "dim_Z": params.dim_Y + 2, "dim_X": params.dim_Y + 1}
    chk("dims_consistent", True,
        dims["dim_X"] == 3 * (m + 1) and dims["dim_Z"] == dims["dim_X"] + 1)
    picard_numbers = {"rho_Y": 2, "rho_X": 3, "delta_rho": 1, "elementary": True}

    classes = {name: str(c) for name, c in named.items()}
    classes["antiK_Y"] = str(antiK_Y)
    classes_on_z = {
        "xi": str(DivisorClassZ(1, 0, 0)),
        "antiK_Z": str(z_antiK),
        "X": str(x_cls),
        "antiK_Z_minus_X": str(restriction),
    }
    cones_summary = {
        "nef": [list(ray) for ray in nef.rays()],
        "effective": [list(ray) for ray in eff.rays()],
        # a class whose base locus has codimension >= 2 is movable, so
        # Mov(Y) = Eff(Y) once neither ray of Eff(Y) has a divisorial one
        "movable_equals_effective": not any(
            Stratum.Y0_DIVISOR in base_locus(DivisorClassY(*ray), params).strata
            for ray in eff.rays()),
        **dec.as_dict(),
    }

    return ExampleCertificate(
        m=m,
        dims=dims,
        picard_numbers=picard_numbers,
        classes=classes,
        classes_on_Z=classes_on_z,
        sym2_summands=tuple(str(c) for c in sym2),
        cones=cones_summary,
        checks=tuple(checks),
        prose_claims=_PROSE_CLAIMS,
        valid=all(c.passed for c in checks),
    )
