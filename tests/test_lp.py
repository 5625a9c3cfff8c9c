from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import CUBE, DOUBLE_SIMPLEX, HEXAGON, config_of
from toricweights import lp
from toricweights.exact import integer_row
from toricweights.lp import LinearSystem, feasible_strict, nonnegative_feasible
from toricweights.triangulation import cone_system, enumerate_regular


def row_of(coeffs):
    """The int row of the strict inequality (coeffs)·x < 0 for rational
    coeffs: their numerators over the least common denominator."""
    return tuple(integer_row(coeffs)[0])


def sys_of(*rows):
    """The strict system of the rational rows in one more coordinate z, each
    row a read as [a | -sum(a)]: rows of a system sum to 0, and
    [a | -sum(a)]·(x, z) = a·(x - z), so the translated system has a
    solution exactly when the rows have one, and w[i] - w[-1] is one."""
    ints = [row_of(r) for r in rows]
    return LinearSystem(tuple((*r, -sum(r)) for r in ints), len(rows[0]) + 1)


def test_open_interval():
    # x0 < x1 < 2*x0: an open sector of directions.
    w = feasible_strict(sys_of([1, -1], [-2, 1]))
    assert w is not None
    x0, x1 = w[0] - w[-1], w[1] - w[-1]
    assert x0 < x1 < 2 * x0


def test_empty_interval_infeasible():
    # x < 0 and x > 0 in one variable.
    assert feasible_strict(sys_of([2], [-3])) is None


def test_closed_feasible_but_strictly_empty():
    # x0 < x1 and x1 < x0 hold weakly on the line x0 = x1, strictly nowhere.
    assert feasible_strict(sys_of([1, -1], [-1, 1])) is None


def test_homogeneous_cone_slack_capped():
    # 2*l1 < l0 + l2 : the fold inequality of the fine segment triangulation.
    w = feasible_strict(sys_of([-1, 2, -1]))
    assert w is not None
    assert 2 * w[1] < w[0] + w[2]


def test_no_strict_rows_is_plain_feasibility():
    # With no row every point is feasible, the empty one included.
    assert feasible_strict(LinearSystem((), 0)) == ()
    assert feasible_strict(LinearSystem((), 2)) == (0, 0)
    assert LinearSystem((), 2).holds((0, 5))


def test_rowless_system_keeps_its_dimension():
    # A system fixes the length of its points even without rows.
    with pytest.raises(ValueError):
        LinearSystem((), 2).holds((0,))
    with pytest.raises(ValueError):
        LinearSystem((row_of([1, 1]),), 3)


def test_rows_must_sum_to_zero_and_the_lp_keeps_x_nonnegative():
    # Cone rows are affine dependences, so a row off that subspace is refused,
    # and the strict LP needs no negative part: d + m columns, x itself the
    # witness.
    with pytest.raises(ValueError, match="sum to 0"):
        LinearSystem(((1, 0),), 2)
    system = sys_of([1, -1], [-2, 1])
    with mock.patch.object(lp, "_feasible", wraps=lp._feasible) as spy:
        w = feasible_strict(system)
    (call,) = spy.call_args_list
    assert call.args[2] == system.dim + len(system.constraints)
    assert system.holds(w) and min(w) >= 0


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        sys_of([1], [1, 2])


coeff = st.integers(min_value=-6, max_value=6)


@st.composite
def random_system(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=6))
    return sys_of(*([draw(coeff) for _ in range(dim)] for _ in range(m)))


@given(random_system())
def test_witness_satisfies_system_exactly(system):
    w = feasible_strict(system)
    if w is not None:
        assert system.holds(w)


@given(st.lists(coeff, min_size=1, max_size=5))
def test_interval_systems_against_interval_arithmetic(coeffs):
    # One-variable systems a_i*x < 0 have an exactly computable answer:
    # feasible iff every a_i is nonzero and all share one sign.
    feasible = all(a > 0 for a in coeffs) or all(a < 0 for a in coeffs)
    w = feasible_strict(sys_of(*([a] for a in coeffs)))
    assert (w is not None) == feasible


def test_nonnegative_feasible_membership():
    # Is (1,1) a convex combination of (0,0),(2,0),(0,2)?
    rows = [[0, 2, 0], [0, 0, 2], [1, 1, 1]]
    pt = nonnegative_feasible(rows, [1, 1, 1])
    assert pt is not None
    assert sum(pt) == 1 and all(c >= 0 for c in pt)
    # (3,0) is not.
    assert nonnegative_feasible(rows, [3, 0, 1]) is None


# Differential tests against the Fraction-tableau simplex in ``oracles``:
# same point, same verdict, on rational data.

rational = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4))


@st.composite
def equality_system(draw):
    nvars = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=6))
    rows = [[draw(rational) for _ in range(nvars)] for _ in range(m)]
    rhs = [draw(rational) for _ in range(m)]
    return rows, rhs, nvars


@st.composite
def rational_system(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=6))
    return sys_of(*([draw(rational) for _ in range(dim)] for _ in range(m)))


def oracle_feasible(rows, dens, nvars):
    """``oracles._feasible`` on the same rational rows as ``lp._feasible``
    reads from integer numerators over denominators."""
    fracs = [[Fraction(x, den) for x in nums] for nums, den in zip(rows, dens)]
    return oracles._feasible([r[:-1] for r in fracs], [r[-1] for r in fracs], nvars)


def with_oracle(fn, *args):
    with mock.patch.object(lp, "_feasible", oracle_feasible):
        return fn(*args)


@settings(max_examples=300, deadline=None)
@given(equality_system())
def test_feasible_matches_fraction_oracle(system):
    rows, rhs, nvars = system
    split = [integer_row(row + [b]) for row, b in zip(rows, rhs)]
    assert lp._feasible([nums for nums, _ in split], [den for _, den in split], nvars) == oracles._feasible(*system)


@settings(max_examples=200, deadline=None)
@given(rational_system())
def test_feasible_strict_matches_fraction_oracle(system):
    assert feasible_strict(system) == with_oracle(feasible_strict, system)


@settings(max_examples=300, deadline=None)
@given(rational_system())
def test_feasible_strict_verdict_matches_max_slack_lp(system):
    # A·x < 0 is searched as A·x <= -1; the maximal common slack of the
    # two-phase formulation decides the same question.
    assert (feasible_strict(system) is not None) == oracles.max_slack_feasible(system)


@settings(max_examples=200, deadline=None)
@given(equality_system())
def test_nonnegative_feasible_matches_fraction_oracle(system):
    rows, rhs, _ = system
    assert nonnegative_feasible(rows, rhs) == with_oracle(nonnegative_feasible, rows, rhs)


# The pipeline's own cone systems: up to 20 liftings and 30 rows, against the
# random systems' 4 variables and 6 rows.

@pytest.mark.parametrize("vertices", [CUBE, HEXAGON, DOUBLE_SIMPLEX], ids=["cube", "hexagon", "double_simplex"])
def test_feasible_strict_on_enumerated_cone_systems(vertices):
    for entry in enumerate_regular(config_of(vertices)):
        system = cone_system(entry.triangulation)
        assert feasible_strict(system) == with_oracle(feasible_strict, system)


@given(st.data())
def test_holds_matches_fraction_evaluation(data):
    dim = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(st.lists(st.lists(rational, min_size=dim, max_size=dim), min_size=1, max_size=4))
    point = data.draw(st.lists(st.one_of(rational, coeff), min_size=dim + 1, max_size=dim + 1))
    expected = [sum(c * (x - point[-1]) for c, x in zip(row, point)) < 0 for row in rows]
    for row, strict in zip(rows, expected):
        assert sys_of(row).holds(point) == strict
    assert sys_of(*rows).holds(point) == all(expected)


@given(st.lists(rational, min_size=1, max_size=4), st.integers(min_value=2, max_value=5))
def test_equal_rational_rows_give_equal_constraints(row, k):
    # The same values as unreduced strings "p*k/q*k": one int row, one
    # system, with numerators and denominator in lowest terms.
    written = [f"{x.numerator * k}/{x.denominator * k}" for x in row]
    assert row_of(row) == row_of(written)
    a, b = sys_of(row), sys_of(written)
    assert a == b and hash(a) == hash(b)
    nums, den = integer_row(written)
    assert den > 0 and gcd(den, *nums) == 1
    assert tuple(Fraction(x, den) for x in nums) == tuple(row)


def test_constraint_rows_in_lowest_terms():
    # Cone rows are primitive int rows, as equality of equal inequalities
    # needs; some clear a denominator above 1, so an entry exceeds 1 in size.
    big = 0
    for vertices in (HEXAGON, DOUBLE_SIMPLEX):
        for entry in enumerate_regular(config_of(vertices)):
            for row in cone_system(entry.triangulation).constraints:
                assert all(type(x) is int for x in row) and gcd(*row) == 1
                big = max(big, *map(abs, row))
    assert big > 1


@pytest.mark.parametrize("row,point",[((1, 1, 1), (-1,)), ((1,), (-1, 5, 0)), ((1, 1), ())])
def test_holds_rejects_points_of_the_wrong_length(row, point):
    # A short point would test only a prefix of each row, a long one would
    # ignore its tail.
    with pytest.raises(ValueError):
        sys_of(row).holds(point)


def test_holds_rejects_float_coordinates():
    system = sys_of([1, 1])
    with pytest.raises(TypeError):
        system.holds((0.5, 0, 0))
    with pytest.raises(TypeError):
        system.holds((0, 0, 0.5))


def test_holds_rejects_bool_coordinates():
    # -x + y < 0 held at (x, y) = (True, 0), read as (1, 0).
    with pytest.raises(TypeError, match="bools"):
        LinearSystem(((-1, 1),), 2).holds((True, 0))


def test_nonnegative_feasible_rejects_mismatched_shapes():
    # zip would drop the unmatched equation: [[1, 2], [1, 1]] with right-hand
    # side [1] read as x + 2y = 1 alone gave (1, 0), though with [1, 5] the
    # full system is infeasible.
    assert nonnegative_feasible([[1, 2], [1, 1]], [1, 5]) is None
    with pytest.raises(ValueError):
        nonnegative_feasible([[1, 2], [1, 1]], [1])
    with pytest.raises(ValueError):
        nonnegative_feasible([[1, 2]], [1, 5])
    with pytest.raises(ValueError, match="one length"):
        nonnegative_feasible([[1, 2], [1]], [1, 1])


def test_nonnegative_feasible_rejects_bools():
    with pytest.raises(TypeError, match="bools"):
        nonnegative_feasible([[1, 2]], [True])


@pytest.mark.parametrize("row", [(0.5,), (Fraction(1, 2),), (True,), (Fraction(-1),)])
def test_rows_must_be_ints(row):
    # A float row would put float arithmetic into holds and the simplex, and
    # a bool would be read as 0 or 1; a Fraction, even an integral one, is
    # not a row of ints.
    with pytest.raises(TypeError, match="LinearSystem needs int entries"):
        LinearSystem((row,), 1)
    with pytest.raises(TypeError, match="LinearSystem needs int entries"):
        LinearSystem(((1, 1), (row[0], 0)), 2)


def test_rows_are_stored_as_int_tuples():
    # Rows were kept as given: a list of lists made the system unhashable
    # and unequal to the same rows as tuples.  A generator is read once.
    system = LinearSystem([[1, -1]], 2)
    assert system.constraints == ((1, -1),) and system == LinearSystem(((1, -1),), 2)
    assert {system, LinearSystem(((1, -1),), 2)} == {system}
    assert LinearSystem(([1, -1] for _ in range(2)), 2).constraints == ((1, -1), (1, -1))
