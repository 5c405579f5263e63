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
forward differences.  Base loci are
computed as minimal primes of the monomial ideal of the class, which for
monomial ideals are minimal hitting sets of the monomial supports; the
x-variables enter only through the collapsed question "does the monomial
use any x at all", since x-monomials of a fixed positive degree realize
every single-variable support.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from math import comb

from .picard import ConstructionParams, DivisorClassY
from .polynomial import Poly, PolyRing


@lru_cache(maxsize=None)
def _cox_ring(m: int) -> PolyRing:
    names = [f"x{i}" for i in range(3 * m + 1)] + ["y0", "y1", "y2"]
    return PolyRing(names)


def cox_ring(params: ConstructionParams) -> PolyRing:
    """The polynomial ring in x_0..x_{3m}, y_0, y_1, y_2 (in that order)."""
    return _cox_ring(params.m)


def y_indices(params: ConstructionParams) -> tuple[int, int, int]:
    base = params.n_x
    return (base, base + 1, base + 2)


def poly_degree(poly: Poly, params: ConstructionParams) -> DivisorClassY | None:
    """The common degree of all terms, None for zero, ValueError if mixed."""
    # the (a, b) pairs as plain ints, one DivisorClassY at the end
    i0, i1, i2 = y_indices(params)
    t = params.twist
    degrees = {(e[i0] + e[i1] + e[i2], sum(e[:i0]) - t * (e[i1] + e[i2]))
               for e in poly.terms}
    if not degrees:
        return None
    if len(degrees) > 1:
        shown = sorted(str(DivisorClassY(*d)) for d in degrees)
        raise ValueError(f"polynomial is not bigraded homogeneous: {', '.join(shown)}")
    return DivisorClassY(*degrees.pop())


def generator_degrees(params: ConstructionParams) -> list[DivisorClassY]:
    """Degrees of the coordinate variables, with multiplicity."""
    t = params.twist
    return [DivisorClassY(0, 1)] * params.n_x \
        + [DivisorClassY(1, 0), DivisorClassY(1, -t), DivisorClassY(1, -t)]


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


def monomial_exponents(cls_: DivisorClassY, params: ConstructionParams,
                       min_y_order: int = 0):
    """Iterate the exponent tuples of a full monomial basis of the class.

    Order matches the ring variables: x exponents first, then y_0, y_1, y_2.
    Beware of sizes: counts grow like binomials in 3m, check count_sections
    before materializing.
    """
    nx = params.n_x
    for k0, k1, k2, d in y_patterns(cls_, params, min_y_order=min_y_order):
        tail = (k0, k1, k2)
        for alpha in _compositions(d, nx):
            yield alpha + tail


class Stratum(str, Enum):
    EMPTY = "EMPTY"
    V = "V"
    Y0_DIVISOR = "Y0_DIVISOR"
    FULL = "FULL"


@dataclass(frozen=True)
class BaseLocusResult:
    cls_: DivisorClassY
    strata: frozenset
    raw_primes: tuple

    def strata_names(self) -> list[str]:
        return sorted(s.value for s in self.strata)

    def as_dict(self) -> dict:
        return {
            "class": str(self.cls_),
            "strata": self.strata_names(),
            "raw_primes": [list(p) for p in self.raw_primes],
        }


_ALPHABET = ("y0", "y1", "y2", "X")


def base_locus(cls_: DivisorClassY, params: ConstructionParams) -> BaseLocusResult:
    """Base locus of |aD + bH| as minimal primes of its monomial ideal.

    Supports are collapsed to the pattern level before the hitting-set
    computation: an "X" marker stands for the whole x-block, because a
    pattern with positive x-degree contains the monomial concentrated on any
    single x-variable, so a prime avoiding the pattern's y-variables must
    contain every x.  Primes containing all x or all y cut the irrelevant
    loci and are dropped; what survives is mapped to named strata.
    """
    if not is_effective(cls_, params):
        return BaseLocusResult(cls_, frozenset({Stratum.FULL}), ())

    supports = set()
    unit_ideal = False
    for k0, k1, k2, d in y_patterns(cls_, params):
        sup = frozenset(
            name for name, k in (("y0", k0), ("y1", k1), ("y2", k2), ("X", d)) if k
        )
        if not sup:
            unit_ideal = True
            break
        supports.add(sup)
    if unit_ideal:
        return BaseLocusResult(cls_, frozenset({Stratum.EMPTY}), ())

    hitting = []
    for r in range(1, len(_ALPHABET) + 1):
        for cand in combinations(_ALPHABET, r):
            cs = frozenset(cand)
            if all(cs & sup for sup in supports):
                hitting.append(cs)
    minimal = [h for h in hitting if not any(other < h for other in hitting)]

    survivors = []
    for h in minimal:
        if "X" in h:
            continue
        if h >= {"y0", "y1", "y2"}:
            continue
        survivors.append(h)

    strata = set()
    for h in survivors:
        if h == {"y1", "y2"}:
            strata.add(Stratum.V)
        elif h == {"y0"}:
            strata.add(Stratum.Y0_DIVISOR)
        else:
            raise ValueError(f"unclassified base-locus component {sorted(h)}")
    if not strata:
        strata.add(Stratum.EMPTY)

    raw = tuple(sorted(tuple(sorted(h)) for h in survivors))
    return BaseLocusResult(cls_, frozenset(strata), raw)


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


def section_basis(cls_: DivisorClassY, params: ConstructionParams,
                  min_y_order: int = 0) -> list:
    """The sorted exponent tuples of a monomial basis, in the order
    draw_on_basis gives them their coefficients."""
    return sorted(monomial_exponents(cls_, params, min_y_order=min_y_order))


def draw_on_basis(basis: list, params: ConstructionParams, rng: random.Random,
                  coeff_range: int) -> Poly:
    """One coefficient from rng per basis monomial, in order, uniform on
    [-coeff_range, coeff_range] without 0; an empty basis gives zero."""
    coeffs = _nonzero_draws(rng, coeff_range, len(basis))
    return Poly(cox_ring(params), dict(zip(basis, coeffs)))

