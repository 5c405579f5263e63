"""Section counts, monomial bases, base loci, and random sections of the
bigraded coordinate ring, cross-checked against independent enumeration."""

import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoconic.coxring import (
    _basis_layout,
    _draw_matrix,
    _section_draws,
    base_locus,
    count_sections,
    cox_ring,
    generator_degrees,
    is_effective,
    _nonzero_draws,
    poly_degree,
    instantiate_sections,
    y_indices,
    y_patterns,
)
from fanoconic.picard import ConstructionParams, DivisorClassY
from fanoconic.polynomial import Poly, _key_slice, _support_degree
from fanoconic.verifier import _v_coefficients

from .oracles import (
    basis_layout_by_sorting,
    base_locus_by_hitting_sets,
    constant,
    count_monomials,
    count_sections_by_sum,
    draw_by_arithmetic,
    draw_by_bases,
    draw_on_basis,
    eval_by_powers,
    enumerate_monomials,
    line_degree_bound,
    monomial,
    nonzero_draws_by_randint,
    poly_degree_by_terms,
    poly_from_terms,
    section_bases,
    square_sigma_prime,
    var,
)

M2 = ConstructionParams(2)


def _monomial_value(exps, coords):
    return prod(c**e for c, e in zip(coords, exps) if e)


def _basis(cls_, min_y_order=0):
    return section_bases([(cls_, min_y_order)], M2)[cls_, min_y_order]


def _random_section(cls_, seed, coeff_range=100, min_y_order=0):
    # the draw verify makes: the sorted basis, then one coefficient each
    return draw_on_basis(_basis(cls_, min_y_order), M2, random.Random(seed), coeff_range)


def _random_point(params, rng, on_V=False):
    nx = params.n_x
    while True:
        x = [rng.randint(-5, 5) for _ in range(nx)]
        if any(x):
            break
    y0 = rng.choice([-3, -2, -1, 1, 2, 3])
    if on_V:
        y = [y0, 0, 0]
    else:
        y = [y0, rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])]
    return tuple(x) + tuple(y)


# -- ring and grading -------------------------------------------------------


def test_ring_names_and_caching():
    ring = cox_ring(M2)
    assert ring.names == ("x0", "x1", "x2", "x3", "x4", "x5", "x6", "y0", "y1", "y2")
    assert cox_ring(ConstructionParams(2)) is ring
    assert y_indices(M2) == (7, 8, 9)


def test_variable_degrees():
    assert generator_degrees(M2) == {
        DivisorClassY(0, 1): 7,
        DivisorClassY(1, 0): 1,
        DivisorClassY(1, -4): 2,
    }
    # one entry per distinct degree, however many x's there are
    m = 10**100
    assert generator_degrees(ConstructionParams(m)) == {
        DivisorClassY(0, 1): 3 * m + 1,
        DivisorClassY(1, 0): 1,
        DivisorClassY(1, -2 * m): 2,
    }


def test_monomial_degree():
    # x0^2 x3 y0 y2^2
    exps = (2, 0, 0, 1, 0, 0, 0, 1, 0, 2)
    assert poly_degree(monomial(cox_ring(M2), exps), M2) == DivisorClassY(3, -5)


def test_poly_degree_homogeneous_and_mixed():
    section = _random_section(DivisorClassY(2, -8), seed=5)
    assert poly_degree(section, M2) == DivisorClassY(2, -8)
    ring = cox_ring(M2)
    zero = constant(ring, 0)
    assert poly_degree(zero, M2) is None
    mixed = var(ring, "x0") + var(ring, "y0")
    with pytest.raises(ValueError):
        poly_degree(mixed, M2)


_EXPONENTS = st.tuples(*[st.integers(0, 3)] * 10)


@st.composite
def _cox_polys(draw):
    # terms of one class, or any exponents, which are mostly of mixed classes
    coeffs = st.integers(-5, 5).filter(bool)
    if draw(st.booleans()):
        basis = _basis(DivisorClassY(draw(st.integers(0, 2)), draw(st.integers(-8, 3))))
        exps = draw(st.lists(st.sampled_from(basis), max_size=8)) if basis else []
    else:
        exps = draw(st.lists(_EXPONENTS, max_size=8))
    ring = cox_ring(M2)
    return sum((monomial(ring, e, draw(coeffs)) for e in exps), constant(ring, 0))


@settings(max_examples=150, deadline=None)
@given(_cox_polys())
def test_poly_degree_matches_the_term_by_term_oracle(poly):
    try:
        expected = poly_degree_by_terms(poly, M2)
    except ValueError as exc:
        with pytest.raises(ValueError) as ours:
            poly_degree(poly, M2)
        assert str(ours.value) == str(exc)
    else:
        assert poly_degree(poly, M2) == expected


# -- effectivity and counting -----------------------------------------------


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (1, 0, True),
        (0, 1, True),
        (0, 0, True),
        (1, -4, True),
        (1, -5, False),
        (2, -8, True),
        (-1, 10, False),
        (0, -1, False),
    ],
)
def test_is_effective_m2(a, b, expected):
    assert is_effective(DivisorClassY(a, b), M2) is expected


def test_h0_of_D_at_m2():
    assert count_sections(DivisorClassY(1, 0), M2) == 421


@pytest.mark.parametrize(
    "m, a_range, b_range",
    [(2, range(-2, 5), range(-9, 10)), (3, range(-1, 4), range(-13, 7))],
)
def test_count_sections_matches_oracle(m, a_range, b_range):
    params = ConstructionParams(m)
    for a in a_range:
        for b in b_range:
            cls_ = DivisorClassY(a, b)
            assert count_sections(cls_, params) == count_monomials(
                a, b, params.twist, params.n_x
            ), (a, b)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_count_sections_matches_the_binomial_sum(m):
    # past s_lo + 3m + 1 the count is extrapolated, not summed
    params = ConstructionParams(m)
    for a in range(-2, 61):
        for b in range(-2 * m * a - 5, 31):
            assert count_sections(DivisorClassY(a, b), params) == \
                count_sections_by_sum(a, b, params.twist, params.n_base), (a, b)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_count_with_limit_is_exact_up_to_the_limit(m):
    params = ConstructionParams(m)
    for a in range(-1, 4):
        for b in range(-2 * m * a - 1, 6):
            cls_ = DivisorClassY(a, b)
            exact = count_sections(cls_, params)
            for limit in (0, 1, exact - 1, exact, exact + 1, 10**6):
                if limit < 0:
                    continue
                bounded = count_sections(cls_, params, limit=limit)
                assert bounded == exact if exact <= limit else bounded > limit


def test_count_zero_iff_ineffective():
    for a in range(-2, 4):
        for b in range(-10, 6):
            cls_ = DivisorClassY(a, b)
            assert (count_sections(cls_, M2) > 0) == is_effective(cls_, M2)


# -- monomial bases ---------------------------------------------------------


def test_y_patterns_of_D():
    assert sorted(y_patterns(DivisorClassY(1, 0), M2)) == [
        (0, 0, 1, 4),
        (0, 1, 0, 4),
        (1, 0, 0, 0),
    ]
    assert sorted(y_patterns(DivisorClassY(1, 0), M2, min_y_order=1)) == [
        (0, 0, 1, 4),
        (0, 1, 0, 4),
    ]


@pytest.mark.parametrize(
    "a, b",
    [(1, 0), (0, 2), (2, -8), (1, -4), (0, 0), (2, -6), (1, -3)],
)
def test_monomial_exponents_match_oracle(a, b):
    ours = _basis(DivisorClassY(a, b))
    theirs = sorted(enumerate_monomials(a, b, M2.twist, M2.n_x))
    assert ours == theirs  # sorted, as drawn
    assert len(ours) == count_sections(DivisorClassY(a, b), M2)
    ring = cox_ring(M2)
    for exps in ours:
        assert poly_degree(monomial(ring, exps), M2) == DivisorClassY(a, b)


def test_monomial_exponents_are_distinct():
    exps = _basis(DivisorClassY(2, -2))
    assert len(exps) == len(set(exps))


# -- base loci --------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b",
    [(2, -8), (1, -2), (2, -2), (1, -4), (3, -8)],
)
def test_base_locus_is_V(a, b):
    result = base_locus(DivisorClassY(a, b), M2)
    assert result["strata"] == ["V"]
    assert result["raw_primes"] == [["y1", "y2"]]


@pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (0, 0), (3, 0), (2, 1)])
def test_base_locus_empty(a, b):
    result = base_locus(DivisorClassY(a, b), M2)
    assert result["strata"] == ["EMPTY"]


def test_base_locus_ineffective_is_full():
    result = base_locus(DivisorClassY(-1, 3), M2)
    assert result["strata"] == ["FULL"]
    assert result["raw_primes"] == []


def test_base_locus_as_dict():
    doc = base_locus(DivisorClassY(2, -8), M2)
    assert doc == {
        "class": "2D-8H",
        "strata": ["V"],
        "raw_primes": [["y1", "y2"]],
    }


@pytest.mark.parametrize("m", [3, 4])
def test_base_locus_scales_with_m(m):
    params = ConstructionParams(m)
    t = params.twist
    for cls_ in [DivisorClassY(2, -t), DivisorClassY(1, -m), DivisorClassY(2, -m)]:
        assert base_locus(cls_, params)["strata"] == ["V"]
    assert base_locus(DivisorClassY(1, 0), params)["strata"] == ["EMPTY"]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_base_locus_matches_full_hitting_set_oracle(m):
    params = ConstructionParams(m)
    for a in range(-40, 41):
        for b in range(-40, 41):
            assert base_locus(DivisorClassY(a, b), params) == \
                base_locus_by_hitting_sets(a, b, params.twist), (a, b)


def test_base_locus_agrees_with_point_sampling():
    rng = random.Random(20240817)
    v_points = [_random_point(M2, rng, on_V=True) for _ in range(12)]
    free_points = [_random_point(M2, rng) for _ in range(12)]
    for a, b in [(2, -8), (1, -2), (2, -2), (1, 0), (0, 2)]:
        cls_ = DivisorClassY(a, b)
        basis = _basis(cls_)
        on_v_expected = "V" in base_locus(cls_, M2)["strata"]
        for p in v_points:
            vanishes = all(_monomial_value(e, p) == 0 for e in basis)
            assert vanishes is on_v_expected, (a, b, p)
        for p in free_points:
            assert any(_monomial_value(e, p) != 0 for e in basis), (a, b, p)


# -- random sections --------------------------------------------------------


def test_random_section_deterministic():
    cls_ = DivisorClassY(1, -2)
    assert _random_section(cls_, seed=7) == _random_section(cls_, seed=7)
    assert _random_section(cls_, seed=7) != _random_section(cls_, seed=8)


def test_random_section_full_support_and_bounds():
    cls_ = DivisorClassY(1, 0)
    section = _random_section(cls_, seed=11, coeff_range=30)
    expected = set(_basis(cls_))
    assert set(section.terms) == expected
    assert len(section) == 421
    for c in section.terms.values():
        assert c != 0 and -30 <= c <= 30


def test_random_section_rng_sequencing():
    basis = _basis(DivisorClassY(0, 1))
    rng = random.Random(3)
    first = draw_on_basis(basis, M2, rng, 100)
    second = draw_on_basis(basis, M2, rng, 100)
    assert first != second
    assert draw_on_basis(basis, M2, random.Random(3), 100) == first


def test_random_section_argument_validation():
    with pytest.raises(ValueError):
        _random_section(DivisorClassY(1, 0), seed=1, coeff_range=0)
    with pytest.raises(ValueError, match="coeff_range"):
        instantiate_sections(M2, 1, coeff_range=0)


def test_random_section_min_y_order():
    section = _random_section(DivisorClassY(1, 0), seed=2, min_y_order=1)
    assert len(section) == 420
    iy1, iy2 = y_indices(M2)[1:]
    for exps in section.terms:
        assert exps[iy1] + exps[iy2] >= 1


@pytest.mark.parametrize("bound", [1, 2, 3, 63, 64, 65, 100, 127, 128, 10**30])
@pytest.mark.parametrize("seed", [0, 7, 2**70])
def test_nonzero_draws_follow_the_randint_stream(bound, seed):
    # same values and the generator left in the same state: the points
    # sampled after a draw come from where randint would have left it
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for count in (0, 1, 300):
        draws = _nonzero_draws(rng, bound, count)
        assert draws == nonzero_draws_by_randint(oracle_rng, bound, count)
        assert rng.getstate() == oracle_rng.getstate()
        assert all(v != 0 and -bound <= v <= bound for v in draws)
    if bound == 1:
        assert set(draws) == {-1, 1}


def test_random_section_draws_the_sorted_basis_in_order():
    cls_ = DivisorClassY(2, -2)
    basis = sorted(enumerate_monomials(2, -2, M2.twist, M2.n_x))
    basis = [e for e in basis if e[-2] + e[-1] >= 1]
    expected = nonzero_draws_by_randint(random.Random(9), 40, len(basis))
    section = _random_section(cls_, seed=9, coeff_range=40, min_y_order=1)
    assert list(section.terms.items()) == list(zip(basis, expected))


def test_random_section_of_ineffective_class_is_zero():
    section = _random_section(DivisorClassY(-1, 2), seed=4)
    assert not section
    assert len(section) == 0


# -- the drawn member ---------------------------------------------------------


@pytest.mark.parametrize("m, seed, perturb", [
    *((2, seed, perturb) for seed in (1, 7, 42, 967727) for perturb in (False, True)),
    (3, 1, False),
])
def test_one_pass_draw_matches_the_arithmetic_draw(m, seed, perturb):
    params = ConstructionParams(m)
    matrix = instantiate_sections(params, seed, perturb=perturb)
    ours = {name: poly.terms for name, poly in matrix.named_entries()}
    ours["sigma_prime"] = matrix.sigma_prime.terms
    assert ours == draw_by_arithmetic(params, seed, perturb=perturb)


def _entries(matrix) -> dict:
    return {**dict(matrix.named_entries()), "sigma_prime": matrix.sigma_prime}


def _probe_points(params, rng):
    # an int point, a Fraction point and a point of the size of a line
    # probe's Kronecker substitution, a few hundred bits a coordinate
    n = params.n_x + 3
    ints = tuple(rng.randint(-9, 9) for _ in range(n))
    fractions = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
    kronecker = tuple(rng.randint(-9, 9) + (rng.randint(-9, 9) << 300) for _ in range(n))
    return ints, fractions, kronecker


# seed 42 gives sigma 9430 terms under --perturb; at seeds 1, 5 and 7 one
# coefficient of sigma'^2 + w cancels, leaving 9429
_BLOCK_DRAWS = [*((2, seed, perturb) for seed in (1, 5, 7, 42, *range(100, 128))
                  for perturb in (False, True)),
                (3, 1, False)]


@pytest.mark.parametrize("m, seed, perturb", _BLOCK_DRAWS)
def test_block_draw_matches_the_sorted_basis_draw(m, seed, perturb):
    params = ConstructionParams(m)
    matrix = instantiate_sections(params, seed, perturb=perturb)
    entries = _entries(matrix)
    assert {name: poly.terms for name, poly in entries.items()} == \
        draw_by_bases(params, seed, perturb=perturb)
    if perturb and seed in (1, 5, 7, 42):
        assert len(matrix.sigma) == (9430 if seed == 42 else 9429)
    # each block plan evaluates as its terms summed exactly (eval_by_powers)
    # and, at m = 2, as the plan of a block per term (poly_from_terms) at
    # the int and Fraction points (at m = 3 that route takes seconds an
    # entry); the entries at one point share the ring's table.  Each plan gives the
    # line degree bounds of the per-term projection
    if seed >= 104:
        return
    assert all(poly._plan is not None for poly in entries.values())  # read off the blocks
    points = _probe_points(params, random.Random(seed))
    values = {name: [] for name in entries}
    for point in points:
        for name, poly in entries.items():
            values[name].append(poly.eval(point))
    for name, poly in entries.items():
        assert values[name] == eval_by_powers(poly, points), name
        if m == 2:
            rebuilt = poly_from_terms(poly.ring, poly.terms)
            assert values[name][:2] == [rebuilt.eval(point) for point in points[:2]], name
    nx = params.n_x
    supports = [(nx,), (0, nx + 1), tuple(range(nx, nx + 3)),
                (*range(1, nx), nx + 1, nx + 2), tuple(range(nx + 3))]
    for poly in entries.values():
        for support in supports:
            assert _support_degree(poly, support) == line_degree_bound(poly, support)


@pytest.mark.parametrize("m, perturb", [(2, True), (3, False)])
def test_closed_form_layout_matches_the_sorted_basis(m, perturb):
    # every class a draw takes at m (perturb is refused at m = 3), and
    # 2D + 0H from order 0, whose patterns span the x-degrees 0, 2m and 4m
    params = ConstructionParams(m)
    ring = cox_ring(params)

    def keys(d):
        return _key_slice(ring, params.n_x, d)

    classes = set(_section_draws(params, perturb))
    if m == 2:
        classes.add((DivisorClassY(2, 0), 0))
    for cls_, order in classes:
        assert _basis_layout(cls_, order, params, keys) == \
            basis_layout_by_sorting(cls_, order, params, keys), (cls_, order)


@pytest.mark.parametrize("coeff_range", [1, 127, 128, 10**9])
def test_draw_leaves_the_generator_where_randint_would(coeff_range):
    # the draw takes one randint-equivalent per basis monomial, so the
    # generator ends where the randint draw on the sorted bases leaves it,
    # and the entries are that draw's
    for perturb in (False, True):
        draws = _section_draws(M2, perturb)
        bases = section_bases(draws, M2)
        rng, expected = random.Random(11), random.Random(11)
        matrix = _draw_matrix(M2, rng, coeff_range, perturb)
        nonzero_draws_by_randint(expected, coeff_range, sum(len(bases[key]) for key in draws))
        assert rng.getstate() == expected.getstate()
        assert {name: poly.terms for name, poly in _entries(matrix).items()} == \
            draw_by_bases(M2, 11, coeff_range, perturb)


@pytest.mark.parametrize("m, seed, perturb", _BLOCK_DRAWS)
def test_plan_readers_match_the_terms(m, seed, perturb):
    # read off the block plans before any term dict is built: the class,
    # length and line probe sizes of each entry and sigma', and the
    # coefficients of S along V; the terms then come in plan order
    params = ConstructionParams(m)
    matrix = instantiate_sections(params, seed, perturb=perturb)
    entries = _entries(matrix)
    read = {name: (poly_degree(poly, params), len(poly)) for name, poly in entries.items()}
    sizes, (sigma00, pairs) = matrix._entry_sizes, _v_coefficients(matrix)
    assert all(poly._terms is None for poly in entries.values())
    for name, poly in entries.items():
        terms = poly.terms
        assert read[name] == (poly_degree_by_terms(poly, params), len(terms)), name
        assert list(terms.values()) == [c for _, coeffs, _ in poly._plan[2] for c in coeffs]
        if name != "sigma_prime":
            assert sizes[name] == (sum(map(abs, terms.values())), max(map(sum, terms)))
    y0y0, y0y1, y0y2 = ((0,) * params.n_x + ys for ys in ((2, 0, 0), (1, 1, 0), (1, 0, 1)))
    assert sigma00 == matrix.sigma.terms.get(y0y0, 0)
    assert pairs == tuple((s.terms.get(y0y1, 0), s.terms.get(y0y2, 0))
                          for s in (matrix.s1, matrix.s2, matrix.s3))


def test_unbuilt_block_poly_equals_and_hashes_like_its_terms():
    built, equal, hashed = (_entries(instantiate_sections(M2, 42, perturb=True))
                            for _ in range(3))
    for name, poly in built.items():
        expected = poly_from_terms(poly.ring, poly.terms)
        assert equal[name]._terms is None and equal[name] == expected, name
        assert hashed[name]._terms is None and hash(hashed[name]) == hash(expected), name


def _mixed_polys():
    # built from terms, one group a term: a stray class among the terms of
    # a drawn entry, x-degrees 0 to 3 under one y-monomial, a class found
    # in one term only, and a section of class 5D - 16H, alone and with a
    # stray term; built from blocks, two groups of different classes
    ring, nx = cox_ring(M2), M2.n_x
    stray = (3,) + (0,) * (nx - 1) + (1, 1, 0)  # x0^3 y0 y1, beside x-degree 2
    led_by_y0 = _random_section(DivisorClassY(5, -16), seed=3)
    return {
        "one group": poly_from_terms(ring, {**instantiate_sections(M2, 1).lam1.terms,
                                            stray: 1}),
        "lone group": poly_from_terms(ring, {alpha + (1, 1, 0): 1
                                             for alpha in product(range(4), repeat=nx)
                                             if sum(alpha) <= 3}),
        # x-degree 1 only in the term x0 y0 y1, beside x-degrees 0 and 2
        "middle degree": poly_from_terms(ring, {alpha + (0,) * 3 + (1, 1, 0): 1
                                                for alpha in product(range(3), repeat=4)
                                                if sum(alpha) in (0, 2) or alpha == (1, 0, 0, 0)}),
        "two groups": Poly(ring, nx, [((1, 1, 0), 2, [1] * 28), ((1, 0, 1), 3, [2] * 84)]),
        "led by y0": led_by_y0,
        "led by y0, mixed": led_by_y0 + monomial(ring, stray),
    }


@pytest.mark.parametrize("case", list(_mixed_polys()))
def test_poly_degree_of_mixed_and_y_led_plans_matches_the_oracle(case):
    poly = _mixed_polys()[case]
    assert poly._plan[0] == (M2.n_x if case == "two groups" else 0)
    try:
        expected = poly_degree_by_terms(poly, M2)
    except ValueError as exc:
        with pytest.raises(ValueError) as ours:
            poly_degree(poly, M2)
        assert str(ours.value) == str(exc)
    else:
        assert case == "led by y0"
        assert poly_degree(poly, M2) == expected == DivisorClassY(5, -16)


def test_block_draw_peak_memory(monkeypatch):
    # the ring's table emptied, so that the key table is built inside the
    # draw too; the draw keeps no dict of w or the r_i, and no index list
    monkeypatch.setattr(cox_ring(M2), "_table", None)
    tracemalloc.start()
    try:
        instantiate_sections(M2, 42, perturb=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2 ** 20


@pytest.mark.parametrize("stray", [
    (0,) * 7 + (2, 0, 0),              # y0^2
    (1,) + (0,) * 6 + (1, 0, 0),       # x0 y0
    (0,) * 7 + (0, 1, 1),              # y1 y2
    (4,) + (0,) * 6 + (1, 1, 0),       # x0^4 y0 y1
])
def test_sigma_prime_with_a_stray_term_raises(stray):
    terms = dict(instantiate_sections(M2, 3, perturb=True).sigma_prime.terms)
    terms[stray] = 1
    with pytest.raises(ValueError, match="outside c y0"):
        square_sigma_prime(terms, M2.n_x)


def test_sigma_prime_squares_like_the_product():
    ring = cox_ring(M2)
    x0, x6, y0, y1, y2 = (var(ring, name) for name in ("x0", "x6", "y0", "y1", "y2"))
    # x-exponents up to 127 fit a byte of the packed key, doubled too
    for sigma_prime in (y0, -3 * y0, y1 * x0, y0 + y1 * x0 - 5 * y2 * x6 ** 2,
                        y1 * x0 - y2 * x0, 7 * y2 * x6 + y1 * x6,
                        y0 + y1 * x0 ** 127 + y2 * x0 * x6 ** 126):
        square = poly_from_terms(ring, square_sigma_prime(sigma_prime.terms, M2.n_x))
        assert square == sigma_prime * sigma_prime
    with pytest.raises(ValueError, match="above 127"):
        square_sigma_prime((y0 + y2 * x6 ** 128).terms, M2.n_x)

