"""Section counts, monomial bases, base loci, and random sections of the
bigraded coordinate ring, cross-checked against independent enumeration."""

import random
from math import prod

import pytest

from fanoconic.coxring import (
    CoxGrading,
    Stratum,
    base_locus,
    count_sections,
    cox_ring,
    generator_degrees,
    is_effective,
    _nonzero_draws,
    monomial_exponents,
    random_section,
    y_indices,
    y_patterns,
)
from fanoconic.picard import ConstructionParams, DivisorClassY

from .oracles import (
    count_monomials,
    count_sections_by_sum,
    enumerate_monomials,
    nonzero_draws_by_randint,
)

M2 = ConstructionParams(2)


def _monomial_value(exps, coords):
    return prod(c**e for c, e in zip(coords, exps) if e)


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
    degs = generator_degrees(M2)
    assert len(degs) == 10
    assert degs[:7] == [DivisorClassY(0, 1)] * 7
    assert degs[7:] == [
        DivisorClassY(1, 0),
        DivisorClassY(1, -4),
        DivisorClassY(1, -4),
    ]


def test_monomial_degree():
    grading = CoxGrading(M2)
    # x0^2 x3 y0 y2^2
    exps = (2, 0, 0, 1, 0, 0, 0, 1, 0, 2)
    assert grading.monomial_degree(exps) == DivisorClassY(3, -5)


def test_poly_degree_homogeneous_and_mixed():
    grading = CoxGrading(M2)
    section = random_section(DivisorClassY(2, -8), M2, seed=5)
    assert grading.poly_degree(section) == DivisorClassY(2, -8)
    ring = cox_ring(M2)
    zero = ring.constant(0)
    assert grading.poly_degree(zero) is None
    mixed = ring.var("x0") + ring.var("y0")
    with pytest.raises(ValueError):
        grading.poly_degree(mixed)


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
    ours = sorted(monomial_exponents(DivisorClassY(a, b), M2))
    theirs = sorted(enumerate_monomials(a, b, M2.twist, M2.n_x))
    assert ours == theirs
    assert len(ours) == count_sections(DivisorClassY(a, b), M2)
    grading = CoxGrading(M2)
    for exps in ours:
        assert grading.monomial_degree(exps) == DivisorClassY(a, b)


def test_monomial_exponents_are_distinct():
    exps = list(monomial_exponents(DivisorClassY(2, -2), M2))
    assert len(exps) == len(set(exps))


# -- base loci --------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b",
    [(2, -8), (1, -2), (2, -2), (1, -4), (3, -8)],
)
def test_base_locus_is_V(a, b):
    result = base_locus(DivisorClassY(a, b), M2)
    assert result.strata == frozenset({Stratum.V})
    assert result.raw_primes == (("y1", "y2"),)


@pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (0, 0), (3, 0), (2, 1)])
def test_base_locus_empty(a, b):
    result = base_locus(DivisorClassY(a, b), M2)
    assert result.strata == frozenset({Stratum.EMPTY})


def test_base_locus_ineffective_is_full():
    result = base_locus(DivisorClassY(-1, 3), M2)
    assert result.strata == frozenset({Stratum.FULL})
    assert result.raw_primes == ()


def test_base_locus_as_dict():
    doc = base_locus(DivisorClassY(2, -8), M2).as_dict()
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
        assert base_locus(cls_, params).strata == frozenset({Stratum.V})
    assert base_locus(DivisorClassY(1, 0), params).strata == frozenset(
        {Stratum.EMPTY}
    )


def test_base_locus_agrees_with_point_sampling():
    rng = random.Random(20240817)
    v_points = [_random_point(M2, rng, on_V=True) for _ in range(12)]
    free_points = [_random_point(M2, rng) for _ in range(12)]
    for a, b in [(2, -8), (1, -2), (2, -2), (1, 0), (0, 2)]:
        cls_ = DivisorClassY(a, b)
        basis = list(monomial_exponents(cls_, M2))
        on_v_expected = Stratum.V in base_locus(cls_, M2).strata
        for p in v_points:
            vanishes = all(_monomial_value(e, p) == 0 for e in basis)
            assert vanishes is on_v_expected, (a, b, p)
        for p in free_points:
            assert any(_monomial_value(e, p) != 0 for e in basis), (a, b, p)


# -- random sections --------------------------------------------------------


def test_random_section_deterministic():
    cls_ = DivisorClassY(1, -2)
    assert random_section(cls_, M2, seed=7) == random_section(cls_, M2, seed=7)
    assert random_section(cls_, M2, seed=7) != random_section(cls_, M2, seed=8)


def test_random_section_full_support_and_bounds():
    cls_ = DivisorClassY(1, 0)
    section = random_section(cls_, M2, seed=11, coeff_range=30)
    expected = set(monomial_exponents(cls_, M2))
    assert set(section.terms) == expected
    assert len(section) == 421
    for c in section.terms.values():
        assert c != 0 and -30 <= c <= 30


def test_random_section_rng_sequencing():
    cls_ = DivisorClassY(0, 1)
    rng = random.Random(3)
    first = random_section(cls_, M2, rng=rng)
    second = random_section(cls_, M2, rng=rng)
    assert first != second
    rng2 = random.Random(3)
    assert random_section(cls_, M2, rng=rng2) == first


def test_random_section_argument_validation():
    cls_ = DivisorClassY(1, 0)
    with pytest.raises(ValueError):
        random_section(cls_, M2)
    with pytest.raises(ValueError):
        random_section(cls_, M2, seed=1, rng=random.Random(1))
    with pytest.raises(ValueError):
        random_section(cls_, M2, seed=1, coeff_range=0)


def test_random_section_min_y_order():
    section = random_section(DivisorClassY(1, 0), M2, seed=2, min_y_order=1)
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
    basis = sorted(monomial_exponents(cls_, M2, min_y_order=1))
    expected = nonzero_draws_by_randint(random.Random(9), 40, len(basis))
    section = random_section(cls_, M2, seed=9, coeff_range=40, min_y_order=1)
    assert list(section.terms.items()) == list(zip(basis, expected))


def test_random_section_of_ineffective_class_is_zero():
    section = random_section(DivisorClassY(-1, 2), M2, seed=4)
    assert not section
    assert len(section) == 0
