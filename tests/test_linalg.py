"""Exact rank and kernel of 3x3 matrices from one adjugate, checked against
a plain Gauss-Jordan oracle over Fraction and the Leibniz determinant."""

from fractions import Fraction
from itertools import permutations
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoconic.linalg import adjugate3, clear_denominators, rank_and_kernel_3x3

from .oracles import rref_rank


def _mat_strategy(entries, max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda nc: st.lists(
            st.lists(entries, min_size=nc, max_size=nc), min_size=1, max_size=max_dim
        )
    )


int_entries = st.integers(-30, 30)
frac_entries = st.fractions(
    min_value=-10, max_value=10, max_denominator=9
)


# -- clear_denominators -----------------------------------------------------


def test_clear_denominators_uses_one_global_scale():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(5, 6)]]
    cleared = clear_denominators(rows)
    assert cleared == [[3, 2], [6, 5]]
    assert all(isinstance(c, int) for row in cleared for c in row)


def test_clear_denominators_keeps_symmetry():
    rows = [
        [Fraction(1, 2), Fraction(1, 4), 0],
        [Fraction(1, 4), 2, Fraction(3, 4)],
        [0, Fraction(3, 4), 1],
    ]
    cleared = clear_denominators(rows)
    for i in range(3):
        for j in range(3):
            assert cleared[i][j] == cleared[j][i]


def test_clear_denominators_leaves_integers_alone():
    rows = [[1, -2], [3, 4]]
    assert clear_denominators(rows) == rows


@settings(max_examples=60, deadline=None)
@given(_mat_strategy(frac_entries, max_dim=4))
def test_clear_denominators_preserves_rank(rows):
    assert rref_rank(clear_denominators(rows)) == rref_rank(rows)


# -- rank and kernel ----------------------------------------------------------


def _det(a):
    # Leibniz: the sum over permutations, each signed by its inversions
    total = 0
    for perm in permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def _assert_rank_and_node(a):
    rank, node = rank_and_kernel_3x3(a)
    assert rank == rref_rank(a)
    if rank != 2:
        assert node is None
        return
    assert gcd(*node) == 1
    assert next(c for c in node if c) > 0
    for row in a:
        assert sum(c * x for c, x in zip(row, node)) == 0


def test_rank_basics():
    assert rank_and_kernel_3x3([[0, 0, 0]] * 3) == (0, None)
    assert rank_and_kernel_3x3([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (3, None)
    assert rank_and_kernel_3x3([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == (1, None)
    assert rank_and_kernel_3x3([[0, 0, 0], [0, 0, 0], [0, 0, 5]]) == (1, None)
    assert rank_and_kernel_3x3([[1, 0, 0], [0, 1, 0], [0, 0, 0]]) == (2, (0, 0, 1))


mat3_int = st.lists(st.lists(int_entries, min_size=3, max_size=3), min_size=3, max_size=3)
mat3_frac = st.lists(st.lists(frac_entries, min_size=3, max_size=3), min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(mat3_int)
# a zero first row: det A must not be read off row 0 alone
@example([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
@example([[0, 0, 0], [1, 2, 3], [2, 4, 6]])
def test_rank_matches_oracle_int(rows):
    _assert_rank_and_node(rows)


@settings(max_examples=80, deadline=None)
@given(mat3_frac)
def test_rank_matches_oracle_frac(rows):
    _assert_rank_and_node(rows)


@settings(max_examples=60, deadline=None)
@given(mat3_int, st.integers(2, 7))
def test_rank_invariant_under_scaling_and_permutation(rows, k):
    rank, node = rank_and_kernel_3x3(rows)
    scaled = [[k * c for c in row] for row in rows]
    assert rank_and_kernel_3x3(scaled) == (rank, node)
    assert rank_and_kernel_3x3(list(reversed(rows)))[0] == rank


# -- full rank and the adjugate ----------------------------------------------


def test_full_rank_known_values():
    assert rank_and_kernel_3x3([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == (3, None)
    assert rank_and_kernel_3x3([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == (3, None)
    # det [[1, 2, 3], [4, 5, 6], [7, 8, 9]] = 0, and 1 - 2*2 + 3 = 0
    assert rank_and_kernel_3x3([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == (2, (1, -2, 1))


mat3 = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3
)


@settings(max_examples=120, deadline=None)
@given(mat3)
def test_adjugate_identity(a):
    adj = adjugate3(a)
    d = _det(a)
    for i in range(3):
        for j in range(3):
            prod_ij = sum(a[i][k] * adj[k][j] for k in range(3))
            assert prod_ij == (d if i == j else 0)


@settings(max_examples=120, deadline=None)
@given(mat3)
def test_full_rank_iff_nonzero_determinant(a):
    assert (rank_and_kernel_3x3(a)[0] == 3) == (_det(a) != 0)


# -- kernels ----------------------------------------------------------------


def test_kernel_of_full_rank_matrix_is_none():
    assert rank_and_kernel_3x3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])[1] is None


def test_kernel_of_rank_two_diagonal():
    assert rank_and_kernel_3x3([[1, 0, 0], [0, 1, 0], [0, 0, 0]])[1] == (0, 0, 1)


def test_kernel_of_rank_two_general():
    a = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    rank, v = rank_and_kernel_3x3(a)
    assert rank == 2 and v is not None
    for row in a:
        assert sum(c * x for c, x in zip(row, v)) == 0
    assert gcd(*(abs(c) for c in v)) == 1
    assert next(c for c in v if c) > 0


def test_kernel_of_low_rank_is_none():
    assert rank_and_kernel_3x3([[0, 0, 0], [0, 0, 0], [0, 0, 0]])[1] is None
    assert rank_and_kernel_3x3([[1, 2, 3], [2, 4, 6], [3, 6, 9]])[1] is None


def test_kernel_accepts_fractions():
    a = [
        [Fraction(1, 2), 0, 0],
        [0, Fraction(1, 3), 0],
        [0, 0, 0],
    ]
    assert rank_and_kernel_3x3(a) == (2, (0, 0, 1))


@settings(max_examples=120, deadline=None)
@given(mat3)
def test_kernel_probe_agrees_with_rank(a):
    _assert_rank_and_node(a)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.sampled_from([1, Fraction(1, 6)]))
def test_symmetric_rank_two_from_two_vectors(u, v, scale):
    # u u^T + v v^T is symmetric of rank <= 2; the kernel probe must agree
    # with the rank everywhere
    a = [[scale * (u[i] * u[j] + v[i] * v[j]) for j in range(3)] for i in range(3)]
    assert rank_and_kernel_3x3(a)[0] <= 2
    _assert_rank_and_node(a)
