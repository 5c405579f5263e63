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
s+1 choices) times the x-monomials of degree b + 2ms; count_sections adds
up at most 3m + 2 of its terms and extrapolates the rest.  A base locus
(base_locus) is empty, V, or all of Y.

The member the audit checks is drawn here too (instantiate_sections),
so drawing one loads only picard, polynomial and this module.  An entry
is a block of coefficients per y-pattern over a slice of the ring's key
table of x-monomials, taken once per x-degree and draw; sums add blocks,
products by y1 and y2 shift them, sigma'^2 is one pass over pairs of
x-monomials, and each entry keeps only the evaluation plan read off its
blocks, which gives its class and sizes; its terms are built when read.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from itertools import count, repeat
from math import comb
from operator import add

from .picard import ConstructionParams, DivisorClassY, _Record
from .polynomial import Poly, PolyRing, _group_degrees, _key_slice, _poly_from_blocks


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
    # one class per plan group, from its tail and the degree of its leading
    # monomials, which are x-monomials (a plan leads with the x-block or
    # with no variable)
    i0, i1, i2 = y_indices(params)
    t, degrees = params.twist, set()
    for tail, _, d in _group_degrees(poly):
        k = dict(tail)
        k0, k12 = k.get(i0, 0), k.get(i1, 0) + k.get(i2, 0)
        degrees.add((k0 + k12, d + sum(e for i, e in tail if i < i0) - t * k12))
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


def base_locus(cls_: DivisorClassY, params: ConstructionParams) -> dict:
    """Base locus of |aD + bH|: {"class": str(cls_), "strata": [...],
    "raw_primes": [...]}.

    The minimal primes of a monomial ideal are the minimal hitting sets of
    its monomial supports, here one per pattern, "X" standing for the
    x-block (a positive x-degree has a monomial on any one x).  Primes
    holding all x or all y cut the irrelevant loci, and for a >= 1 the
    split s = a has supports without y0, without y1 and without y2, so only
    {y1, y2} can hit.  The answer is FULL off the effective cone, V when
    {y1, y2} meets every support, and EMPTY otherwise (also for a = 0).
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


# -- the drawn member --------------------------------------------------------
#
# The symmetric matrix S of sections that cuts one member (see verifier).

# Sections are drawn dense, one coefficient per basis monomial.  A draw whose
# bases add up to more monomials than this is refused before anything is
# drawn (at m = 4 each lam entry alone has 8.1 million terms); each count
# stops at the limit, so the refusal is immediate for every m.
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
        "sigma": DivisorClassY(2, 0), "sigma_prime": DivisorClassY(1, 0),
    }


class ConicMatrix(_Record):
    """The six section entries of S, plus sigma'.

    sigma_prime is required: the boundary identity is stated through it.
    Entries and sigma' must lie in cox_ring(params), and every term of
    each of the seven is degree-validated at construction (zero passes).
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
        ring = cox_ring(self.params)
        for name, want in _slot_degrees(self.params).items():
            poly = getattr(self, name)
            if poly.ring != ring:
                raise ValueError(f"entry {name} is not in the ring of m = {self.params.m}")
            deg = poly_degree(poly, self.params)
            if deg is not None and deg != want:
                raise ValueError(f"entry {name} has degree {deg}, expected {want}")
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
        """Per-slot (l1 norm, total degree) for the audit's line probes,
        read group by group off the plans; ValueError if a coefficient is
        not an int."""
        sizes = {}
        for name, poly in self.named_entries():
            norm = degree = 0
            for tail, coeffs, d in _group_degrees(poly):
                if not all(map(isinstance, coeffs, repeat(int))):
                    raise ValueError(f"entry {name} has a non-integer coefficient")
                norm += sum(map(abs, coeffs))
                degree = max(degree, d + sum(e for _, e in tail))
            sizes[name] = (norm, degree)
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
    """Draw the section matrix from rng, a section as blocks {(k0, k1,
    k2): coefficients over the x-monomials in key table order} drawn in
    sorted basis order (_basis_layout).  With sigma' = y0 + y1 A + y2 B (A,
    B drawn in perturb mode), s1 = sigma' y1 + r1, s2 = sigma' y2 + r2,
    s3 = sigma' y2 + r3 and sigma = sigma'^2 + w.
    """
    draws = _section_draws(params, perturb)
    size = sum(count_sections(cls_, params, limit=MAX_SECTION_TERMS) for cls_, _ in draws)
    if size > MAX_SECTION_TERMS:
        raise ValueError(
            f"the {'perturbed ' if perturb else ''}sections at m = {params.m} "
            f"span above the limit of {MAX_SECTION_TERMS} monomials")
    ring, nx, t = cox_ring(params), params.n_x, params.twist
    slices, layouts, sections = {}, {}, []

    def keys(d):  # the x-monomials of degree d, sliced once per draw
        if d not in slices:
            slices[d] = _key_slice(ring, nx, d)
        return slices[d]

    for key in draws:
        if key not in layouts:
            layouts[key] = _basis_layout(*key, params, keys)
        n, layout = layouts[key]
        coeffs = _nonzero_draws(rng, coeff_range, n)
        sections.append({tail: list(map(coeffs.__getitem__, ranks)) for tail, ranks in layout})
    lam1, lam2, *extra = sections
    sigma_prime = {(1, 0, 0): [1]}
    r1 = r2 = r3 = w = {}
    if perturb:
        correction, r1, r2, w, r3 = extra
        sigma_prime.update(correction)

    def poly(b, blocks, *more):
        # the entry of class (2, b), or sigma', from the sum of the blocks,
        # kept as its plan: no exponent tuple is made until its terms are read
        for other in more:
            blocks = dict(blocks)
            for tail, c in other.items():
                blocks[tail] = list(map(add, blocks[tail], c)) if tail in blocks else c
        return _poly_from_blocks(ring, nx, [(tail, b + t * (tail[1] + tail[2]), c)
                                            for tail, c in blocks.items()])

    y1, y2 = ({(k0, k1 + j, k2 + 1 - j): c for (k0, k1, k2), c in sigma_prime.items()}
              for j in (1, 0))
    return ConicMatrix(params, poly(-t, y1, r1), poly(-t, y2, r2), poly(-t, y2, r3),
                       poly(-params.m, lam1), poly(-params.m, lam2),
                       poly(0, _square_blocks(sigma_prime, keys, t), w),
                       sigma_prime=poly(0, sigma_prime))


def _basis_layout(cls_, min_y_order, params, keys) -> tuple:
    """(size, [(tail, ranks)]), a pair per y-pattern: ranks places each
    x-monomial, in key table order, in the sorted basis.  Keys sort the
    x-monomials of a degree, and the patterns of an x-degree come in the
    order of their tails, so key * n + index sorts the basis of n patterns."""
    patterns = list(y_patterns(cls_, params, min_y_order))
    n, flat = len(patterns), []
    for p, (*_, d) in enumerate(patterns):
        flat += [k * n + p for k in keys(d)]
    ranks = list(map(dict(zip(sorted(flat), count())).__getitem__, flat))
    layout, lo = [], 0
    for k0, k1, k2, d in patterns:
        layout.append(((k0, k1, k2), ranks[lo:lo + len(keys(d))]))
        lo += len(keys(d))
    return len(flat), layout


def _square_blocks(sigma_prime: dict, keys, t: int) -> dict:
    """The blocks of sigma'^2 = y0^2 + 2 y0 (y1 A + y2 B) + y1^2 A^2 +
    2 y1 y2 AB + y2^2 B^2 for sigma' = y0 + y1 A + y2 B, or y0.

    An x-monomial's coefficients (a, b) in A and B pack into a + b U,
    U = 2^k; a product of two is a a' + (a b' + a' b) U + b b' U^2, added
    at the place of the sum of their keys, so one pass over the pairs
    gives A^2, 2AB and B^2.  Each is at most N^2 in absolute value, N the
    l1 norm of A and B, so k = bit length of N^2, plus 1, keeps them apart.
    """
    out = {(2, 0, 0): [1]}
    if (0, 1, 0) not in sigma_prime:
        return out
    a, b = sigma_prime[0, 1, 0], sigma_prime[0, 0, 1]
    out[1, 1, 0], out[1, 0, 1] = [c + c for c in a], [c + c for c in b]
    k = ((sum(map(abs, a)) + sum(map(abs, b))) ** 2).bit_length() + 1
    packed = list(zip(keys(t), [x + (y << k) for x, y in zip(a, b)]))
    place = dict(zip(keys(2 * t), count()))
    sums = [0] * len(place)
    for i, (key1, v1) in enumerate(packed):
        sums[place[key1 + key1]] += v1 * v1
        v1 += v1  # the pair (i, j) stands for (j, i) too
        for key2, v2 in packed[i + 1:]:
            sums[place[key1 + key2]] += v1 * v2
    half, mask = 1 << (k - 1), (1 << k) - 1
    aa, ab, bb = out[0, 2, 0], out[0, 1, 1], out[0, 0, 2] = [], [], []
    for v in sums:
        x = ((v + half) & mask) - half
        v = (v - x) >> k
        y = ((v + half) & mask) - half
        aa.append(x)
        ab.append(y)
        bb.append((v - y) >> k)
    return out
