"""Sparse multivariate arithmetic and the univariate helper layer."""

import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoconic import polynomial
from fanoconic.coxring import cox_ring
from fanoconic.picard import ConstructionParams
from fanoconic.polynomial import (
    SQUAREFREE_PRIME,
    Poly,
    PolyRing,
    u_add,
    u_degree,
    u_diff,
    u_gcd,
    u_is_squarefree,
    u_mul,
    u_trim,
    _coefficient,
    _poly_from_blocks,
)

from .oracles import (
    diff,
    eval_terms,
    from_pairs,
    gens,
    lift,
    mul_terms,
    restrict_line,
    squarefree_by_gcd,
    subs,
    to_pairs,
)

R3 = PolyRing(["x", "y", "z"])
X, Y, Z = gens(R3)


# -- ring construction ------------------------------------------------------


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        PolyRing(["x", "x"])


def test_var_by_name_and_index():
    assert R3.var("y") == R3.var(1) == Y


def test_monomial_validation():
    assert R3.monomial((1, 2, 0), 5) == 5 * X * Y**2
    assert not R3.monomial((0, 0, 0), 0)
    with pytest.raises(ValueError):
        R3.monomial((1, 2), 1)
    with pytest.raises(ValueError):
        R3.monomial((1, -1, 0), 1)


# -- arithmetic -------------------------------------------------------------


def test_binomial_square():
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2


def test_scalar_mixing():
    p = 2 * X + 3
    assert p - 3 == 2 * X
    assert 3 - p == -(2 * X)
    assert 0 * p == R3.zero()
    assert p * Fraction(1, 2) == X + Fraction(3, 2)


def test_equality_with_scalars():
    assert R3.constant(7) == 7
    assert R3.zero() == 0
    assert X != 1


def test_ring_mismatch_rejected():
    other = PolyRing(["a", "b"])
    with pytest.raises(ValueError):
        X + other.var("a")


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        X**-1


def test_cancellation_drops_terms():
    p = X * Y - X * Y
    assert not p and len(p) == 0


mul_poly = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    st.one_of(st.integers(-2, 2),
              st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    max_size=6,
).map(lambda d: Poly(R3, d))


@settings(max_examples=200, deadline=None)
@given(mul_poly, mul_poly)
def test_mul_matches_term_oracle(f, g):
    # f * f multiplies one object by itself
    for a, b in ((f, g), (f, f)):
        product = a * b
        expected = mul_terms(a, b)
        assert product == expected
        # same insertion order as the term-by-term loop
        assert list(product.terms) == list(expected.terms)


@pytest.mark.parametrize("k", range(2, 8))
def test_mul_at_a_packing_field_boundary(k):
    # product degrees at 2^k - 1 and 2^k, where an encoding of exponents
    # in k-bit fields would overflow
    for total in (2**k - 1, 2**k):
        a = total // 2
        f = X**a - 3 * Y**a + Z
        g = X**(total - a) + Fraction(1, 2) * X**(total - a - 1) * Y
        assert f * g == mul_terms(f, g)
        assert (f * g).terms[(total, 0, 0)] == 1
    # a square has each cross term twice, at even degrees 2^k - 2 and 2^k
    for d in (2**(k - 1) - 1, 2**(k - 1)):
        h = X**d - 3 * X**(d - 1) * Y + Fraction(1, 2) * Z**d
        square = h * h
        expected = mul_terms(h, h)
        assert square == expected
        assert list(square.terms) == list(expected.terms)
        assert square.terms[(2 * d, 0, 0)] == 1
        assert square.terms[(2 * d - 1, 1, 0)] == -6
        assert square.terms[(d, 0, d)] == 1
        assert square.terms[(d - 1, 1, d)] == -3


def test_mul_constants_and_cancellation():
    assert (R3.constant(3) * R3.constant(Fraction(1, 3))) == 1
    assert (R3.constant(2) * X) == 2 * X
    assert (X + Y) * R3.zero() == R3.zero() == R3.zero() * (X + Y)
    product = (X + Y) * (X - Y)
    assert product == X**2 - Y**2
    assert (1, 1, 0) not in product.terms
    assert not ((X + 1) * (X - 1) - X**2 + 1)


# -- the oracles' calculus and specialization -------------------------------


def test_diff():
    p = X**3 * Y + 2 * Y * Z
    assert diff(p, "x") == 3 * X**2 * Y
    assert diff(p, 1) == X**3 + 2 * Z
    assert diff(p, "z") == 2 * Y
    assert not diff(R3.constant(5), 0)


def test_subs_partial():
    p = X**2 * Y + Z
    assert subs(p, {"x": 2}) == 4 * Y + Z
    assert subs(p, {"x": 0, "z": 3}) == R3.constant(3)
    assert subs(p, {}) == p


def test_eval():
    p = X**2 * Y - 4 * Z
    assert p.eval((2, 3, 1)) == 8
    assert p.eval((Fraction(1, 2), 4, 0)) == 1
    with pytest.raises(ValueError):
        p.eval((1, 2))


small_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=5,
).map(lambda d: Poly(R3, d))

point3 = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))


R5 = PolyRing(["a", "b", "c", "d", "e"])

scalar = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)

# more terms than variables
wide_poly = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 5),
    scalar,
    max_size=14,
).map(lambda d: Poly(R5, d))

point5 = st.tuples(*[st.one_of(st.just(0), scalar)] * 5)


@settings(max_examples=150, deadline=None)
@given(wide_poly, point5)
def test_eval_matches_term_oracle(p, pt):
    assert p.eval(pt) == eval_terms(p, pt)
    # the cached plan gives the same answers on a second point
    shifted = tuple(v + 1 for v in pt)
    assert p.eval(list(shifted)) == eval_terms(p, shifted)


@settings(max_examples=150, deadline=None)
@given(wide_poly)
def test_coefficients_read_off_the_plan_match_the_terms(p):
    # a polynomial built from terms has one group per term and no leading
    # block: every term, and monomials that are not terms
    assert p._planned()[:2] == (0, 0) and len(p._planned()[2]) == len(p)
    for exps in [*p.terms, *{e[:4] + (e[4] + 1,) for e in p.terms}, (0,) * 5]:
        assert _coefficient(p, exps) == p.terms.get(exps, 0)


def test_block_built_poly_keeps_its_plan_until_its_terms_are_read():
    # leading block x0..x2: the zero coefficients leave no term, and (2, 0)
    # has no term of leading degree 0
    blocks = [((1, 0), 0, [0]), ((0, 2), 0, [5]), ((2, 0), 1, [0, 3, 0])]
    p = _poly_from_blocks(R5, 3, blocks)
    assert (len(p), bool(p), p._terms) == (2, True, None)
    free = [(0, 0, 0, 1, 0), (0, 0, 0, 0, 2), (0, 0, 0, 2, 0)]
    assert [_coefficient(p, e) for e in free] == [0, 5, 0]
    # the plan does not read coefficients of the leading variables
    with pytest.raises(ValueError, match="leading variable"):
        _coefficient(p, (0, 1, 0, 2, 0))
    assert p._terms is None
    assert list(p.terms.items()) == [((0, 0, 0, 0, 2), 5), ((0, 1, 0, 2, 0), 3)]
    empty = _poly_from_blocks(R5, 3, [((1, 0), 2, [0] * 6)])
    assert (len(empty), bool(empty), empty.terms) == (0, False, {})


values5 = st.tuples(*[st.one_of(st.just(0), st.integers(-6, 6),
                                st.fractions(min_value=-3, max_value=3,
                                             max_denominator=5))] * 5)


# in the layout of a drawn entry, leading block a, b, c: each block holds
# the coefficients, zeros allowed, of the monomials of one degree in a, b, c
# times its own monomial in d, e
block_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 3).flatmap(lambda d: st.tuples(st.just(d), st.lists(
        st.one_of(st.just(0), scalar), min_size=comb(d + 2, 2), max_size=comb(d + 2, 2)))),
    max_size=4,
).map(lambda blocks: _poly_from_blocks(R5, 3, [(tail, d, c)
                                               for tail, (d, c) in blocks.items()]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(wide_poly, block_poly), min_size=1, max_size=4),
       st.lists(values5, min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=8))
# six powers of a, led by a: its table at a = Fraction(2) must not serve a = 2
@example([_poly_from_blocks(R5, 1, [((0, 0, 0, 0), i, [1]) for i in range(6)])],
         [(2, 1, 1, 1, 1)], [(0, 0)])
def test_shared_tables_match_term_oracle(polys, points, calls):
    # block-built polynomials of one ring share the last table of leading
    # monomials, which those built from terms leave alone; evaluate them in
    # any order, at repeated points, each point after its twin with all
    # values Fractions, and again with its whole values ints
    for which, at in calls:
        p, pt = polys[which % len(polys)], points[at % len(points)]
        for q in (tuple(map(Fraction, pt)), pt,
                  tuple(int(v) if v == int(v) else v for v in pt)):
            value = p.eval(q)
            assert value == eval_terms(p, q)
            if all(isinstance(v, int) for v in q + tuple(p.terms.values())):
                assert isinstance(value, int)


def test_sparse_high_degree_polynomial_evaluates_term_by_term():
    # 20 terms with exponents up to 300 in the ten Cox variables: a table
    # of every leading monomial up to their degree would not fit in memory
    ring = cox_ring(ConstructionParams(2))
    rng = random.Random(5)
    p = Poly(ring, {tuple(rng.randint(0, 300) for _ in range(ring.n)): rng.randint(-9, 9) or 1
                    for _ in range(20)})
    pt = tuple(rng.choice((-3, -1, 2, 5, Fraction(1, 3))) for _ in range(ring.n))
    start = time.perf_counter()
    value = p.eval(pt)
    assert time.perf_counter() - start < 0.5
    assert value == eval_terms(p, pt)


@pytest.mark.parametrize("p", [
    R5.zero(),
    R5.constant(7),
    R5.constant(Fraction(-2, 3)),
    R5.monomial((0, 0, 0, 0, 3), 5),
    R5.monomial((2, 0, 1, 0, 0), Fraction(1, 4)),
    R5.monomial((1, 1, 1, 1, 1), -1),
], ids=["zero", "int", "fraction", "trailing", "leading", "all"])
@pytest.mark.parametrize("pt", [
    (0, 0, 0, 0, 0),
    (2, -1, 0, 3, 1),
    (Fraction(1, 2), 3, Fraction(-4, 3), 0, 2),
], ids=["origin", "int", "fraction"])
def test_eval_edge_polynomials(p, pt):
    assert p.eval(pt) == eval_terms(p, pt)


@settings(max_examples=100, deadline=None)
@given(small_poly, point3, point3)
def test_restrict_line_matches_eval(p, pt, direction):
    coeffs = restrict_line(p, pt, direction)
    for t in (-2, -1, 0, 1, 3):
        expected = p.eval(tuple(a + t * b for a, b in zip(pt, direction)))
        assert sum(c * t**k for k, c in enumerate(coeffs)) == expected


def test_restrict_line_validates_lengths():
    with pytest.raises(ValueError):
        restrict_line(X, (1, 2), (0, 1, 0))


# -- test-only helpers: lift and serialization ------------------------------


def test_lift():
    big = PolyRing(["x", "y", "z", "w"])
    p = (X + Y) ** 2
    lifted = lift(p, big)
    assert lifted.ring is big
    assert lifted.eval((1, 2, 9, 9)) == 9
    with pytest.raises(ValueError):
        lift(p, PolyRing(["a", "x", "y"]))


def test_to_pairs_round_trip():
    p = Fraction(1, 3) * X - 2 * Y * Z + 7
    pairs = to_pairs(p)
    assert ("1/3", [1, 0, 0]) in pairs
    assert from_pairs(R3, pairs) == p


def test_str():
    assert str(X**2 - Y + 1) == "1 - y + x^2"
    assert str(R3.zero()) == "0"
    assert str(-X * Z) == "-x*z"


# -- univariate helpers -----------------------------------------------------


def test_u_basics():
    assert u_trim([1, 2, 0, 0]) == [1, 2]
    assert u_add([1, 2], [3, 4, 5]) == [4, 6, 5]
    assert u_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert u_mul([], [1, 2]) == []
    assert u_degree([0, 0, 3]) == 2
    assert u_degree([0]) == -1
    assert u_diff([5, 1, 4]) == [1, 8]


def test_u_gcd_known_cases():
    assert u_gcd([6, 0, 2], [2]) == [1]
    assert u_gcd([-1, 0, 1], [-1, 1]) == [-1, 1]
    assert u_gcd([-2, 0, 2], [-1, 1]) == [-1, 1]
    assert u_gcd([1, 1], [1, 2]) == [1]
    assert u_gcd([], [2, 1]) == [2, 1]


def test_u_gcd_of_zero_pair():
    assert u_gcd([], []) == []


def test_u_gcd_is_monic():
    g = u_gcd([-4, 0, 4], [-2, 2])
    assert g[-1] == 1
    assert g == [-1, 1]


def test_u_gcd_accepts_fractions():
    f = [Fraction(-1, 2), 0, Fraction(1, 2)]
    assert u_gcd(f, [Fraction(-1, 3), Fraction(1, 3)]) == [-1, 1]


def test_u_gcd_repeated_factor():
    # (t-1)^2 (t^2+1) against its derivative shares exactly (t-1)
    sq = u_mul([-1, 1], [-1, 1])
    f = u_mul(sq, [1, 0, 1])
    assert u_gcd(f, u_diff(f)) == [-1, 1]


coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(coeff_lists, coeff_lists)
def test_u_gcd_of_common_factor(f, h):
    h = u_trim(list(h))
    if len(h) < 2:
        return
    fh = u_mul(u_trim(list(f)) or [1], h)
    g = u_gcd(fh, h)
    assert g == [Fraction(c, h[-1]) for c in h]


def test_squarefree_basics():
    assert u_is_squarefree([1, 0, 1])
    assert u_is_squarefree([-1, 0, 1])
    assert u_is_squarefree([3])
    assert not u_is_squarefree([1, 2, 1])
    assert not u_is_squarefree(u_mul([1, 2, 1], [-5, 1]))
    with pytest.raises(ValueError):
        u_is_squarefree([0, 0])


def test_squarefree_high_degree():
    # products of distinct linear factors stay squarefree at degree 22,
    # and squaring any of them must flip the verdict
    f = [1]
    for root in range(1, 23):
        f = u_mul(f, [-root, 1])
    assert u_degree(f) == 22
    assert u_is_squarefree(f)
    g = [1]
    for root in range(1, 12):
        g = u_mul(g, [-root, 1])
    g = u_mul(g, g)
    assert u_degree(g) == 22
    assert not u_is_squarefree(g)


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_square_is_never_squarefree(f):
    f = u_trim(list(f))
    if len(f) < 2:
        return
    assert not u_is_squarefree(u_mul(f, f))


@settings(max_examples=150, deadline=None)
@given(coeff_lists)
def test_squarefree_matches_exact_gcd_route(f):
    f = u_trim(list(f))
    if not f:
        return
    assert u_is_squarefree(f) == squarefree_by_gcd(f)
    if len(f) > 1:
        square = u_mul(f, f)
        assert u_is_squarefree(square) == squarefree_by_gcd(square) is False


P = SQUAREFREE_PRIME


@pytest.mark.parametrize("f, verdict, falls_back", [
    ([1, 0, 1], True, False),                   # certified mod p
    ([Fraction(1, 2), 0, Fraction(1, 3)], True, False),
    ([P, 0, 1], True, True),                    # t^2 + p: t^2 mod p
    ([0, 1, P], True, True),                    # p t^2 + t: p | lc
    ([Fraction(P, 3), 0, Fraction(1, 3)], True, True),
    ([Fraction(1, 4), -1, 1], False, True),     # (t - 1/2)^2
    ([1, 2, 1], False, True),                   # a no is never certified
])
def test_squarefree_certificate_and_its_fallback(monkeypatch, f, verdict, falls_back):
    calls = []

    def counting_gcd(a, b):
        calls.append(1)
        return u_gcd(a, b)

    monkeypatch.setattr(polynomial, "u_gcd", counting_gcd)
    assert u_is_squarefree(f) is verdict
    assert bool(calls) is falls_back
