"""The bigraded coordinate ring of the base family and its linear systems.

Y_m is the quotient of (A^{3m+1} \\ 0) x (A^3 \\ 0) by the torus (C*)^2
acting through the Z^2-grading

    x_0 .. x_{3m}   degree (0, 1)
    y_0             degree (1, 0)
    y_1, y_2        degree (1, -2m)

so a monomial y_0^{k_0} y_1^{k_1} y_2^{k_2} x^alpha has degree
(k_0+k_1+k_2, |alpha| - 2m(k_1+k_2)), matching the (D, H) basis of divisor
classes.  The two irrelevant loci are {all x = 0} and {all y = 0}; V is the
distinguished codimension-2 section {y_1 = y_2 = 0}.

Section counts of a class (a, b) have the closed form

    h^0 = sum_{s=0}^{a} (s+1) * C(b + 2ms + 3m, 3m)        (terms with
                                                            b + 2ms < 0 drop)

because a monomial basis is enumerated by the split k_1 + k_2 = s (with
s+1 choices) times the x-monomials of degree b + 2ms.  From its first
nonzero term on, the sum is a polynomial of degree 3m + 2 in a, so
count_sections adds up 3m + 2 terms at most and extrapolates the rest by
forward differences.  Base loci are the minimal primes of the monomial
ideal of the class, the minimal hitting sets of its monomial supports; the
x-variables enter only through the collapsed question "does the monomial
use any x at all", since x-monomials of a fixed positive degree realize
every single-variable support.  On this grading the only prime that can
survive is (y1, y2), so a base locus is empty, V, or all of Y.

The member the audit checks is drawn here too (instantiate_sections),
so drawing one loads only picard, polynomial and this module.  Each
basis is enumerated once per draw, sharing the x-monomials of each
x-degree, and each entry of the conic matrix is built as one term dict:
the products by y1 and y2 are exponent shifts, and sigma'^2 is one pass
over pairs of x-monomials that gives its y1^2, y1 y2 and y2^2 parts
together.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from itertools import combinations, groupby, repeat
from math import comb
from operator import itemgetter

from .picard import ConstructionParams, DivisorClassY, _Record
from .polynomial import Poly, PolyRing


@lru_cache(maxsize=None)
def _cox_ring(n_x: int) -> PolyRing:
    return PolyRing([f"x{i}" for i in range(n_x)] + ["y0", "y1", "y2"])


def cox_ring(params: ConstructionParams) -> PolyRing:
    """The polynomial ring in x_0..x_{3m}, y_0, y_1, y_2 (in that order)."""
    return _cox_ring(params.n_x)


def y_indices(params: ConstructionParams) -> tuple[int, int, int]:
    base = params.n_x
    return (base, base + 1, base + 2)


def poly_degree(poly: Poly, params: ConstructionParams) -> DivisorClassY | None:
    """The common degree of all terms, None for zero, ValueError if mixed."""
    # the distinct (total degree n, k0, k1, k2) of the terms, read at C speed;
    # each has a = k0 + k1 + k2 and b = n - a - 2m(k1 + k2)
    terms = poly.terms
    i0, i1, i2 = y_indices(params)
    kinds = set(zip(map(sum, terms), map(itemgetter(i0), terms),
                    map(itemgetter(i1), terms), map(itemgetter(i2), terms)))
    t = params.twist
    degrees = {(k0 + k1 + k2, n - k0 - (t + 1) * (k1 + k2)) for n, k0, k1, k2 in kinds}
    if not degrees:
        return None
    if len(degrees) > 1:
        shown = sorted(str(DivisorClassY(*d)) for d in degrees)
        raise ValueError(f"polynomial is not bigraded homogeneous: {', '.join(shown)}")
    return DivisorClassY(*degrees.pop())


def generator_degrees(params: ConstructionParams) -> dict[DivisorClassY, int]:
    """The distinct degrees of the coordinate variables, each with the number
    of variables of that degree: H for x_0..x_{3m}, D for y_0 and D - 2mH for
    y_1, y_2.  Three entries for every m."""
    return {DivisorClassY(0, 1): params.n_x, DivisorClassY(1, 0): 1,
            DivisorClassY(1, -params.twist): 2}


def is_effective(cls_: DivisorClassY, params: ConstructionParams) -> bool:
    """(a, b) has sections iff a >= 0 and b + 2ma >= 0."""
    return cls_.a >= 0 and cls_.b + params.twist * cls_.a >= 0


def count_sections(cls_: DivisorClassY, params: ConstructionParams,
                   limit: int | None = None) -> int:
    """h^0 of the class, from at most n + 2 binomial terms whatever a is.
    With a limit, a result above the limit is only a lower bound: the
    largest binomial, capped, when it alone passes it."""
    a, b = cls_.a, cls_.b
    if a < 0:
        return 0
    n = params.n_base
    if limit is not None and b + params.twist * a >= 0:
        # C(d + n, n) grows with d = b + 2ms, so s = a has the largest one
        top = _capped_comb(b + params.twist * a + n, n, limit)
        if top > limit:
            return top
    # the terms start at s_lo, the first s with b + 2ms >= 0; from there the
    # sum up to a is a polynomial of degree n + 2 in a, and 0 at s_lo - 1
    t = params.twist
    s_lo = max(0, -(b // t))
    sums = [0]
    for s in range(s_lo, min(a, s_lo + n + 1) + 1):
        sums.append(sums[-1] + (s + 1) * comb(b + t * s + n, n))
    if a <= s_lo + n + 1:
        return sums[-1]
    # Newton's forward formula on the n + 3 values at s_lo - 1, s_lo, ...
    total = 0
    for k in range(n + 3):
        total += comb(a - s_lo + 1, k) * sums[0]
        sums = [y - x for x, y in zip(sums, sums[1:])]
    return total


def _capped_comb(n: int, k: int, cap: int) -> int:
    """C(n, k) if it is at most cap, else some integer above cap, within
    log2(cap) + 1 steps: the value after i steps is C(n - k + i, i) >= 2^i."""
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c > cap:
            break
    return c


def y_patterns(cls_: DivisorClassY, params: ConstructionParams, min_y_order: int = 0):
    """Iterate (k0, k1, k2, x_degree) over the admissible y-splits of a class.

    Each pattern stands for all monomials y_0^{k0} y_1^{k1} y_2^{k2} x^alpha
    with |alpha| equal to the reported x-degree.  min_y_order keeps only
    patterns with k1 + k2 at least that large (vanishing on V to that order).
    """
    a, b = cls_.a, cls_.b
    if a < 0:
        return
    for s in range(a + 1):
        d = b + params.twist * s
        if d < 0 or s < min_y_order:
            continue
        k0 = a - s
        for k1 in range(s + 1):
            yield (k0, k1, s - k1, d)


def _compositions(total: int, parts: int):
    # weak compositions by stars and bars
    if parts == 1:
        yield (total,)
        return
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for bar in bars:
            out.append(bar - prev - 1)
            prev = bar
        out.append(total + parts - 1 - prev - 1)
        yield tuple(out)


def base_locus(cls_: DivisorClassY, params: ConstructionParams) -> dict:
    """Base locus of |aD + bH|: {"class": str(cls_), "strata": [...],
    "raw_primes": [...]}.

    The minimal primes of a monomial ideal are the minimal hitting sets of
    its monomial supports.  Supports are collapsed to the pattern level: an
    "X" marker stands for the whole x-block, because a pattern with positive
    x-degree contains the monomial on any single x-variable.  Primes holding
    all x or all y cut the irrelevant loci, so only sets of one or two y's
    count, and on this grading only {y1, y2} can hit: for a >= 1 the split
    s = a has a support without y0, one without y1 and one without y2, and
    for a = 0 no y occurs.  So the answer is FULL off the effective cone, V
    when {y1, y2} meets every support, and EMPTY otherwise, the unit ideal
    (an empty support) included.
    """
    label = str(cls_)
    if not is_effective(cls_, params):
        return {"class": label, "strata": ["FULL"], "raw_primes": []}

    supports = set()
    for k0, k1, k2, d in y_patterns(cls_, params):
        sup = frozenset(
            name for name, k in (("y0", k0), ("y1", k1), ("y2", k2), ("X", d)) if k
        )
        if not sup:
            return {"class": label, "strata": ["EMPTY"], "raw_primes": []}
        supports.add(sup)

    if all(sup.intersection(("y1", "y2")) for sup in supports):
        return {"class": label, "strata": ["V"], "raw_primes": [["y1", "y2"]]}
    return {"class": label, "strata": ["EMPTY"], "raw_primes": []}


def _nonzero_draws(rng: random.Random, bound: int, count: int) -> list:
    """count independent draws, each uniform on [-bound, -1] union [1, bound].

    Each is randint(1, 2 * bound) shifted past 0, drawn the way CPython's
    randint draws it, by rejection on getrandbits, so the generator is left
    where count randint calls would leave it.
    """
    if bound < 1:
        raise ValueError("coeff_range must be positive")
    n = 2 * bound
    k = n.bit_length()
    getrandbits = rng.getrandbits
    draws = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        draws.append(r - bound if r < bound else r - bound + 1)
    return draws


def section_bases(keys, params: ConstructionParams) -> dict:
    """{(class, min_y_order): the sorted exponent tuples of its monomial
    basis} for each key, in the order draw_on_basis gives them their
    coefficients.  Each x-degree's monomials are enumerated once, for every
    pattern and basis that has it, and a repeated key shares its basis.

    Order matches the ring variables: x exponents first, then y_0, y_1, y_2.
    Beware of sizes: counts grow like binomials in 3m, check count_sections
    before materializing.
    """
    nx = params.n_x
    x_monomials = {}
    bases = {}
    for cls_, order in keys:
        if (cls_, order) in bases:
            continue
        basis = []
        # the patterns of one x-degree come together, sorted by their tails
        for d, patterns in groupby(y_patterns(cls_, params, order), itemgetter(3)):
            alphas = x_monomials.get(d)
            if alphas is None:
                alphas = x_monomials[d] = list(_compositions(d, nx))
            tails = [pattern[:3] for pattern in patterns]
            basis += [alpha + tail for alpha in alphas for tail in tails]
        basis.sort()
        bases[cls_, order] = basis
    return bases


def draw_on_basis(basis: list, params: ConstructionParams, rng: random.Random,
                  coeff_range: int) -> Poly:
    """One coefficient from rng per basis monomial, in order, uniform on
    [-coeff_range, coeff_range] without 0; an empty basis gives zero."""
    coeffs = _nonzero_draws(rng, coeff_range, len(basis))
    return Poly(cox_ring(params), dict(zip(basis, coeffs)))


# -- the drawn member --------------------------------------------------------
#
# The symmetric matrix S of sections that cuts one member (see verifier), with
# the special shape s1 = sigma' y1, s2 = s3 = sigma' y2, sigma = sigma'^2 and
# sigma' = y0, plus the random corrections of perturb mode.

# Sections are drawn dense, one coefficient per basis monomial.  A draw whose
# bases add up to more monomials than this is refused before anything is
# drawn: at m = 4 each lam entry alone would have 8.1 million terms.  Each
# count stops at the limit, so the refusal is immediate for every m.
MAX_SECTION_TERMS = 1_000_000

_SLOT_NAMES = ("s1", "s2", "s3", "lam1", "lam2", "sigma")


def _s_rows(s1, s2, s3, lam1, lam2, sigma):
    """The rows of S from its six entries, given in _SLOT_NAMES order."""
    return [[s1, s2, lam1], [s2, s3, lam2], [lam1, lam2, sigma]]


def _slot_degrees(params: ConstructionParams) -> dict:
    t, m = params.twist, params.m
    return {
        "s1": DivisorClassY(2, -t), "s2": DivisorClassY(2, -t),
        "s3": DivisorClassY(2, -t),
        "lam1": DivisorClassY(2, -m), "lam2": DivisorClassY(2, -m),
        "sigma": DivisorClassY(2, 0),
    }


class ConicMatrix(_Record):
    """The six section entries of S, plus sigma'.

    sigma_prime is required: the boundary identity is stated through it,
    for the default and the perturbed family alike.  Entries and sigma'
    must lie in cox_ring(params), and the entries are degree-validated at
    construction, every term of every entry (the zero polynomial is
    allowed in any slot).
    """

    params: ConstructionParams
    s1: Poly
    s2: Poly
    s3: Poly
    lam1: Poly
    lam2: Poly
    sigma: Poly
    sigma_prime: Poly

    def __post_init__(self):
        ring, wants = cox_ring(self.params), _slot_degrees(self.params)
        for name in _SLOT_NAMES + ("sigma_prime",):
            poly = getattr(self, name)
            if poly.ring != ring:
                raise ValueError(f"entry {name} is not in the ring of m = {self.params.m}")
            deg = poly_degree(poly, self.params) if name in wants else None
            if deg is not None and deg != wants[name]:
                raise ValueError(f"entry {name} has degree {deg}, expected {wants[name]}")
        # per-slot line degree bounds of the audit's line probes, memoized by
        # the direction support
        self.__dict__["_line_bounds"] = {}

    def named_entries(self):
        return tuple((name, getattr(self, name)) for name in _SLOT_NAMES)

    def evaluate(self, point):
        """The rows of S at a point given by its Cox coordinates, x first."""
        return _s_rows(*(poly.eval(point) for _, poly in self.named_entries()))

    @cached_property
    def _entry_sizes(self) -> dict:
        """Per-slot (l1 norm, total degree) for the audit's line probes;
        ValueError if a coefficient is not an int."""
        sizes = {}
        for name, poly in self.named_entries():
            coeffs = poly.terms.values()
            if not all(map(isinstance, coeffs, repeat(int))):
                raise ValueError(f"entry {name} has a non-integer coefficient")
            sizes[name] = (sum(map(abs, coeffs)), max(map(sum, poly.terms), default=0))
        return sizes


def instantiate_sections(params: ConstructionParams, seed: int,
                         coeff_range: int = 100, perturb: bool = False) -> ConicMatrix:
    """Draw the section matrix for one instance, deterministically.

    Default mode is the special shape with lam1, lam2 the only random
    entries; perturb additionally mixes random higher-order terms into the
    s-block, sigma' and sigma.  The lam draws come first so both modes
    share them at equal seeds.
    """
    return _draw_matrix(params, random.Random(seed), coeff_range, perturb)


def _section_draws(params, perturb):
    """(class, min_y_order) of each random section an instance draws, in
    draw order: lam1, lam2, then in perturb mode the corrections to sigma',
    s1, s2, sigma and s3."""
    t, m = params.twist, params.m
    draws = [(DivisorClassY(2, -m), 0)] * 2
    if perturb:
        draws += [(DivisorClassY(1, 0), 1), (DivisorClassY(2, -t), 2),
                  (DivisorClassY(2, -t), 2), (DivisorClassY(2, 0), 1),
                  (DivisorClassY(2, -t), 2)]
    return draws


def _draw_matrix(params, rng, coeff_range, perturb) -> ConicMatrix:
    """Draw the section matrix from rng.

    With sigma' = y0 plus its correction, the entries are s1 = sigma' y1 + r1,
    s2 = sigma' y2 + r2, s3 = sigma' y2 + r3 and sigma = sigma'^2 + w: the
    products by y1 and y2 are exponent shifts, and sigma'^2 is one pass over
    pairs of x-monomials (_square_sigma_prime).
    """
    draws = _section_draws(params, perturb)
    size = sum(count_sections(cls_, params, limit=MAX_SECTION_TERMS) for cls_, _ in draws)
    if size > MAX_SECTION_TERMS:
        raise ValueError(
            f"the {'perturbed ' if perturb else ''}sections at m = {params.m} "
            f"span above the limit of {MAX_SECTION_TERMS} monomials")
    bases = section_bases(draws, params)
    lam1, lam2, *extra = [draw_on_basis(bases[key], params, rng, coeff_range)
                          for key in draws]

    ring = cox_ring(params)
    nx = params.n_x
    sigma_prime = ring.var(nx)
    r1 = r2 = r3 = w = ring.zero()
    if perturb:
        sigma_extra, r1, r2, w, r3 = extra
        sigma_prime = sigma_prime + sigma_extra
    sigma_prime_y1, sigma_prime_y2 = (Poly(ring, _times_var(sigma_prime.terms, i))
                                      for i in (nx + 1, nx + 2))
    # w is merged into the dict of sigma'^2, so the largest entry is built once
    sigma = _square_sigma_prime(sigma_prime.terms, nx)
    get = sigma.get
    for e, c in w.terms.items():
        sigma[e] = get(e, 0) + c
    return ConicMatrix(params, sigma_prime_y1 + r1, sigma_prime_y2 + r2,
                       sigma_prime_y2 + r3, lam1, lam2, Poly(ring, sigma),
                       sigma_prime=sigma_prime)


def _times_var(terms: dict, i: int) -> dict:
    """The term dict times the variable of index i."""
    return {e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in terms.items()}


def _square_sigma_prime(terms: dict, nx: int) -> dict:
    """The term dict of sigma'^2, zero coefficients kept, for the terms of
    sigma' = c y0 + y1 A + y2 B with A and B polynomials in the x alone and
    int coefficients; ValueError on any other term.

    Each x-monomial alpha of A or B is packed into one int, a byte per
    exponent (each at most 127, so a sum of two cannot carry), and its
    coefficients (a, b) into a + b U with U = 2^k.  The product of two of
    these is a a' + (a b' + a' b) U + b b' U^2, so one pass over the pairs
    alpha <= alpha' gives the coefficients of A^2, 2AB and B^2 together.
    With N the l1 norm of A and B, each of the three is at most N^2 in
    absolute value, so k = bit length of N^2, plus 1, keeps them apart as
    balanced base-U digits.
    """
    y0 = (0,) * nx + (1, 0, 0)
    c = terms.get(y0, 0)
    out = {(0,) * nx + (2, 0, 0): c * c} if c else {}
    forms = {}
    for e, coeff in terms.items():
        if e == y0:
            continue
        if e[nx:] not in ((0, 1, 0), (0, 0, 1)):
            raise ValueError(f"sigma' has a term {e} outside c y0 + y1 A + y2 B")
        if c:
            out[e[:nx] + (1,) + e[nx + 1:]] = 2 * c * coeff
        # a, the coefficient of y1 x^alpha, goes first; b, of y2 x^alpha, second
        forms.setdefault(e[:nx], [0, 0])[e[nx + 2]] = coeff
    if max(map(max, forms), default=0) > 127:
        raise ValueError("sigma' has an x exponent above 127")

    norm = sum(abs(a) + abs(b) for a, b in forms.values())
    k = (norm * norm).bit_length() + 1
    packed = [(int.from_bytes(bytes(alpha), "little"), a + (b << k))
              for alpha, (a, b) in forms.items()]
    sums = {}
    get = sums.get
    for i, (key1, v1) in enumerate(packed):
        key = key1 + key1
        sums[key] = get(key, 0) + v1 * v1
        v1 += v1  # the pair (i, j) stands for (j, i) too
        for key2, v2 in packed[i + 1:]:
            key = key1 + key2
            sums[key] = get(key, 0) + v1 * v2
    half, mask = 1 << (k - 1), (1 << k) - 1
    for key, v in sums.items():
        alpha = tuple(key.to_bytes(nx, "little"))
        aa = ((v + half) & mask) - half
        v = (v - aa) >> k
        ab = ((v + half) & mask) - half
        out[alpha + (0, 2, 0)] = aa
        out[alpha + (0, 1, 1)] = ab
        out[alpha + (0, 0, 2)] = (v - ab) >> k
    return out
