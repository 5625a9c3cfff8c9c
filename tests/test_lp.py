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
from toricweights.lp import Constraint, LinearSystem, feasible_strict, nonnegative_feasible
from toricweights.triangulation import cone_system, enumerate_regular


def row_of(coeffs):
    """The constraint (coeffs)·x < 0 for rational coeffs."""
    nums, den = integer_row(coeffs)
    return Constraint(tuple(nums), den)


def sys_of(*rows):
    return LinearSystem(tuple(row_of(r) for r in rows), len(rows[0]))


def test_open_interval():
    # x0 < x1 < 2*x0: an open sector of directions.
    w = feasible_strict(sys_of([1, -1], [-2, 1]))
    assert w is not None and w[0] < w[1] < 2 * w[0]


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


# ``Constraint`` holds its row as integer numerators over one denominator.


@given(st.data())
def test_holds_matches_fraction_evaluation(data):
    dim = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(st.lists(st.lists(rational, min_size=dim, max_size=dim), min_size=1, max_size=4))
    point = data.draw(st.lists(st.one_of(rational, coeff), min_size=dim, max_size=dim))
    expected = [sum(c * x for c, x in zip(row, point)) < 0 for row in rows]
    for row, strict in zip(rows, expected):
        assert sys_of(row).holds(point) == strict
    assert sys_of(*rows).holds(point) == all(expected)


@given(st.lists(rational, min_size=1, max_size=4), st.integers(min_value=2, max_value=5))
def test_equal_rational_rows_give_equal_constraints(row, k):
    # The same values as unreduced strings "p*k/q*k": one row, one constraint,
    # with numerators and denominator in lowest terms.
    written = [f"{x.numerator * k}/{x.denominator * k}" for x in row]
    c, same = row_of(row), row_of(written)
    assert c == same and hash(c) == hash(same)
    assert c.den > 0 and gcd(c.den, *c.nums) == 1
    assert tuple(Fraction(x, c.den) for x in c.nums) == tuple(row)


def test_constraint_rows_in_lowest_terms():
    # Cone rows are built in lowest terms, as equality with the oracle's
    # rational rows needs; some have a denominator above 1.
    dens = set()
    for vertices in (HEXAGON, DOUBLE_SIMPLEX):
        for entry in enumerate_regular(config_of(vertices)):
            for c in cone_system(entry.triangulation).constraints:
                assert c.den > 0 and gcd(c.den, *c.nums) == 1
                dens.add(c.den)
    assert max(dens) > 1


@pytest.mark.parametrize("row,point", [((1, 1, 1), (-1,)), ((1,), (-1, 5)), ((1, 1), ())])
def test_holds_rejects_points_of_the_wrong_length(row, point):
    # A short point would test only a prefix of each row, a long one would
    # ignore its tail.
    with pytest.raises(ValueError):
        sys_of(row).holds(point)


def test_holds_rejects_float_coordinates():
    system = sys_of([1, 1])
    with pytest.raises(TypeError):
        system.holds((0.5, 0))
    with pytest.raises(TypeError):
        system.holds((0, 0.5))


def test_holds_rejects_bool_coordinates():
    # -x < 0 held at x = True, read as 1.
    with pytest.raises(TypeError, match="bools"):
        LinearSystem((Constraint((-1,), 1),), 1).holds((True,))


def test_nonnegative_feasible_rejects_bools():
    with pytest.raises(TypeError, match="bools"):
        nonnegative_feasible([[1, 2]], [True])
