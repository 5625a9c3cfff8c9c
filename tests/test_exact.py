from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toricweights.exact import (
    affine_combination,
    affine_dependence,
    det,
    integer_row,
    kernel_vector,
    lattice_index,
    pivot,
    primitive,
    rank,
    solve_linear,
)
from toricweights.lp import nonnegative_feasible


def test_det_identity():
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_diagonal():
    assert det([[2, 0], [0, 2]]) == 4


def test_det_cofactor_example():
    assert det([[0, 1], [-1, -2]]) == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


small_ints = st.integers(min_value=-8, max_value=8)


@st.composite
def square_matrix(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4))
    return [[draw(small_ints) for _ in range(n)] for _ in range(n)]


@given(square_matrix())
def test_det_alternating_under_row_swap(m):
    if len(m) < 2:
        return
    swapped = [m[1], m[0]] + m[2:]
    assert det(swapped) == -det(m)


@given(square_matrix(), square_matrix())
def test_det_block_diagonal_multiplicative(a, b):
    na, nb = len(a), len(b)
    block = [row + [0] * nb for row in a] + [[0] * na + row for row in b]
    assert det(block) == det(a) * det(b)


def test_lattice_index_basis():
    assert lattice_index([(1, 0), (0, 1)]) == 1


def test_lattice_index_scaled_vector():
    assert lattice_index([(2, 0)]) == 2


def test_lattice_index_primitive_vector():
    assert lattice_index([(-1, 1)]) == 1


def test_lattice_index_empty():
    assert lattice_index([]) == 1


def test_lattice_index_rejects_dependent():
    with pytest.raises(ValueError):
        lattice_index([(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        lattice_index([(0, 0)])


@st.composite
def unimodular_matrix(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i == j:
            continue
        f = draw(st.integers(min_value=-3, max_value=3))
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


@given(unimodular_matrix())
def test_lattice_index_of_unimodular_basis(m):
    assert abs(det(m)) == 1
    assert lattice_index(m) == 1


@given(st.integers(min_value=1, max_value=9), st.lists(small_ints, min_size=2, max_size=4))
def test_lattice_index_scales_linearly(d, v):
    if all(x == 0 for x in v):
        return
    p = primitive(v)
    assert lattice_index([p]) == 1
    assert lattice_index([tuple(d * x for x in p)]) == d


@given(st.lists(st.tuples(small_ints, small_ints, small_ints), min_size=3, max_size=3))
def test_lattice_index_matches_unsigned_det(vs):
    try:
        idx = lattice_index(vs)
    except ValueError:
        assert det(vs) == 0
        return
    assert idx == abs(det(vs))


def test_solve_linear_unique():
    sol = solve_linear([[2, 0], [0, 4]], [1, 1])
    assert sol == (Fraction(1, 2), Fraction(1, 4))


def test_solve_linear_inconsistent():
    assert solve_linear([[1, 1], [1, 1]], [0, 1]) is None


def test_kernel_vector_of_dependent_rows():
    v = kernel_vector([[1, 2, 3]])
    assert v is not None
    assert sum(a * b for a, b in zip(v, (1, 2, 3))) == 0


def test_affine_combination_barycentric():
    coeffs = affine_combination([(0, 0), (1, 0), (0, 1)], (Fraction(1, 3), Fraction(1, 3)))
    assert coeffs == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_affine_combination_outside_hull_plane():
    assert affine_combination([(0, 0), (1, 0)], (0, 1)) is None


def test_affine_dependence_interval():
    assert affine_dependence([(0,), (1,), (2,)]) == (1, -2, 1)


def test_affine_dependence_independent():
    assert affine_dependence([(0, 0), (1, 0), (0, 1)]) is None


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([]) == 0


# Entries mix plain ints (read without building a Fraction) and Fractions
# a/b, so that the kernel's denominators are exercised.
rational_entry = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)),
)


@st.composite
def rational_matrix(draw):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    return [[draw(rational_entry) for _ in range(ncols)] for _ in range(nrows)]


def minor_rank(m):
    """Largest k with a nonzero k x k minor: an oracle for rank that shares
    no code with the elimination kernel.  Each row is first scaled to
    integers, which leaves every minor's vanishing unchanged."""
    m = [[int(x * lcm(*(Fraction(y).denominator for y in row))) for x in row] for row in m]
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                if det([[m[i][j] for j in cols] for i in rows]) != 0:
                    return k
    return 0


def matvec(m, x):
    return [sum(a * b for a, b in zip(row, x)) for row in m]


@given(rational_matrix())
def test_rank_matches_minor_oracle(m):
    assert rank(m) == minor_rank(m)


@given(rational_matrix())
def test_kernel_vector_exactly_when_rank_deficient(m):
    v = kernel_vector(m)
    if rank(m) == len(m[0]):
        assert v is None
    else:
        assert v is not None and any(v)
        assert matvec(m, v) == [0] * len(m)


@given(rational_matrix(), st.data())
def test_solve_linear_exactly_when_consistent(m, data):
    b = data.draw(st.lists(rational_entry, min_size=len(m), max_size=len(m)))
    x = solve_linear(m, b)
    if rank([row + [bi] for row, bi in zip(m, b)]) == rank(m):
        assert x is not None and matvec(m, x) == b
    else:
        assert x is None


def split(m):
    """Rows as integer numerators and positive denominators for ``pivot``."""
    rows, dens = [], []
    for row in m:
        nums, den = integer_row(row)
        rows.append(nums)
        dens.append(den)
    return rows, dens


@given(rational_matrix(), st.data())
def test_pivot_leaves_unit_column(m, data):
    nonzero = [(i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x != 0]
    if not nonzero:
        return
    r, c = data.draw(st.sampled_from(nonzero))
    rows, dens = split(m)
    pivot(rows, dens, r, c)
    values = [[Fraction(x, d) for x in row] for row, d in zip(rows, dens)]
    assert [row[c] for row in values] == [int(i == r) for i in range(len(rows))]
    assert rank(values) == rank(m)


@given(rational_matrix(), st.data())
def test_rows_stay_in_lowest_terms(m, data):
    rows, dens = split(m)
    for _ in range(3):
        nonzero = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x != 0]
        if not nonzero:
            break
        pivot(rows, dens, *data.draw(st.sampled_from(nonzero)))
    for row, den in zip(rows, dens):
        assert den > 0 and gcd(den, *row) == 1


def test_integer_row():
    assert integer_row([2, -3, 0]) == ([2, -3, 0], 1)
    assert integer_row([Fraction(1, 2), Fraction(-2, 3), 1]) == ([3, -4, 6], 6)
    assert integer_row(["1/4", 2]) == ([1, 8], 4)


@pytest.mark.parametrize("values", [[True, 2], [0, False], (Fraction(1, 2), True)])
def test_integer_row_rejects_bools(values):
    # [True, 2] was read as ([1, 2], 1).
    with pytest.raises(TypeError, match="bools"):
        integer_row(values)


@pytest.mark.parametrize("call", [
    lambda: rank([[1, 0.5]]),
    lambda: solve_linear([[2]], [0.1]),
    lambda: nonnegative_feasible([[1, 1]], [0.1]),
], ids=["rank", "solve_linear", "nonnegative_feasible"])
def test_exact_routines_reject_floats(call):
    # 0.1 was read as its binary expansion: solve_linear([[2]], [0.1]) gave
    # 3602879701896397/72057594037927936, and nonnegative_feasible took it.
    with pytest.raises(TypeError, match="floats"):
        call()
