from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from toricweights import lp
from toricweights.exact import integer_row
from toricweights.lp import (
    EQ,
    LE,
    LT,
    LinearSystem,
    constraint,
    feasible_strict,
    nonnegative_feasible,
)


def sys_of(*cons):
    return LinearSystem(tuple(constraint(c, r, b) for c, r, b in cons))


def test_open_interval():
    w = feasible_strict(sys_of(([1], LT, 0), ([-1], LT, 2)))
    assert w is not None and -2 < w[0] < 0


def test_empty_interval_infeasible():
    assert feasible_strict(sys_of(([1], LE, 0), ([-1], LE, -1))) is None


def test_closed_feasible_but_strictly_empty():
    assert feasible_strict(sys_of(([1], LT, 0), ([-1], LE, 0))) is None


def test_equalities():
    w = feasible_strict(sys_of(([1, 1], EQ, 2), ([1, -1], EQ, 0)))
    assert w == (Fraction(1), Fraction(1))


def test_ge_gt_normalized():
    w = feasible_strict(sys_of(([1], ">", -2), ([1], "<", 0)))
    assert w is not None and -2 < w[0] < 0


def test_homogeneous_cone_slack_capped():
    # 2*l1 < l0 + l2 : the fold inequality of the fine segment triangulation.
    w = feasible_strict(sys_of(([-1, 2, -1], LT, 0)))
    assert w is not None
    assert 2 * w[1] < w[0] + w[2]


def test_no_strict_rows_is_plain_feasibility():
    assert feasible_strict(sys_of(([1], LE, 5))) is not None
    assert feasible_strict(sys_of(([1], LE, 5), ([-1], LE, -6))) is None


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        sys_of(([1], LE, 0), ([1, 2], LE, 0))


coeff = st.integers(min_value=-6, max_value=6)


@st.composite
def random_system(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=6))
    cons = []
    for _ in range(m):
        coeffs = [draw(coeff) for _ in range(dim)]
        rel = draw(st.sampled_from([LE, LT, EQ]))
        rhs = draw(coeff)
        cons.append(constraint(coeffs, rel, rhs))
    return LinearSystem(tuple(cons))


@given(random_system())
def test_witness_satisfies_system_exactly(system):
    w = feasible_strict(system)
    if w is not None:
        assert system.holds(w)


@given(st.lists(st.tuples(coeff, coeff), min_size=1, max_size=5))
def test_interval_systems_against_interval_arithmetic(bounds):
    # One-variable systems a*x <= b have an exactly computable answer.
    cons = [constraint([a], LE, b) for a, b in bounds]
    lo, hi = None, None
    infeasible = False
    for a, b in bounds:
        if a == 0:
            infeasible = infeasible or b < 0
        elif a > 0:
            ub = Fraction(b, a)
            hi = ub if hi is None or ub < hi else hi
        else:
            lb = Fraction(b, a)
            lo = lb if lo is None or lb > lo else lo
    if lo is not None and hi is not None and lo > hi:
        infeasible = True
    w = feasible_strict(LinearSystem(tuple(cons)))
    assert (w is None) == infeasible


def test_nonnegative_feasible_membership():
    # Is (1,1) a convex combination of (0,0),(2,0),(0,2)?
    rows = [[0, 2, 0], [0, 0, 2], [1, 1, 1]]
    pt = nonnegative_feasible(rows, [1, 1, 1])
    assert pt is not None
    assert sum(pt) == 1 and all(c >= 0 for c in pt)


def test_nonnegative_feasible_strict_column():
    # (0,0) as a combination of the three triangle vertices requires zero
    # weight on (2,0): the strict LP must fail.
    rows = [[0, 2, 0], [0, 0, 2], [1, 1, 1]]
    assert nonnegative_feasible(rows, [0, 0, 1], strict_cols=(1,)) is None
    assert nonnegative_feasible(rows, [0, 0, 1], strict_cols=(0,)) is not None


# Differential tests against the Fraction-tableau simplex in ``oracles``:
# same optimum, same point, same verdict, on rational data.

rational = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4))


@st.composite
def equality_system(draw):
    nvars = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=6))
    rows = [[draw(rational) for _ in range(nvars)] for _ in range(m)]
    rhs = [draw(rational) for _ in range(m)]
    return rows, rhs, draw(st.integers(min_value=0, max_value=nvars - 1)), nvars


@st.composite
def rational_system(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=6))
    cons = []
    for _ in range(m):
        coeffs = [draw(rational) for _ in range(dim)]
        cons.append(constraint(coeffs, draw(st.sampled_from([LE, LT, EQ])), draw(rational)))
    return LinearSystem(tuple(cons))


def outcome(solve, *args):
    try:
        return solve(*args)
    except lp._Unbounded:
        return "unbounded"


def oracle_solve_max(rows, dens, obj_col, nvars):
    """``oracles._solve_max`` on the same rational rows as ``lp._solve_max``
    reads from integer numerators over denominators."""
    fracs = [[Fraction(x, den) for x in nums] for nums, den in zip(rows, dens)]
    return oracles._solve_max([r[:-1] for r in fracs], [r[-1] for r in fracs], obj_col, nvars)


def with_oracle(fn, *args):
    with mock.patch.object(lp, "_solve_max", oracle_solve_max):
        return fn(*args)


@settings(max_examples=300, deadline=None)
@given(equality_system())
def test_solve_max_matches_fraction_oracle(system):
    rows, rhs, obj_col, nvars = system
    split = [integer_row(row + [b]) for row, b in zip(rows, rhs)]
    integer = ([nums for nums, _ in split], [den for _, den in split], obj_col, nvars)
    assert outcome(lp._solve_max, *integer) == outcome(oracles._solve_max, *system)


@settings(max_examples=200, deadline=None)
@given(rational_system())
def test_feasible_strict_matches_fraction_oracle(system):
    assert feasible_strict(system) == with_oracle(feasible_strict, system)


@settings(max_examples=200, deadline=None)
@given(equality_system(), st.data())
def test_nonnegative_feasible_matches_fraction_oracle(system, data):
    rows, rhs, _, nvars = system
    strict = data.draw(st.lists(st.integers(min_value=0, max_value=nvars - 1), unique=True, max_size=nvars))
    assert nonnegative_feasible(rows, rhs, strict) == with_oracle(nonnegative_feasible, rows, rhs, strict)


# ``Constraint`` holds its row as integer numerators over one denominator.

RELATIONS = [LE, LT, EQ, ">=", ">"]


def fraction_holds(coeffs, rel, rhs, point):
    lhs = sum(Fraction(c) * x for c, x in zip(coeffs, point))
    return {LE: lhs <= rhs, LT: lhs < rhs, EQ: lhs == rhs, ">=": lhs >= rhs, ">": lhs > rhs}[rel]


@given(st.data())
def test_holds_matches_fraction_evaluation(data):
    dim = data.draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(st.lists(rational, min_size=dim, max_size=dim), st.sampled_from(RELATIONS), rational)
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    point = data.draw(st.lists(st.one_of(rational, coeff), min_size=dim, max_size=dim))
    cons = [constraint(coeffs, rel, rhs) for coeffs, rel, rhs in rows]
    expected = [fraction_holds(coeffs, rel, rhs, point) for coeffs, rel, rhs in rows]
    assert [c.holds(point) for c in cons] == expected
    assert LinearSystem(tuple(cons)).holds(point) == all(expected)


@given(st.lists(rational, min_size=1, max_size=4), st.sampled_from(RELATIONS), st.integers(min_value=2, max_value=5))
def test_equal_rational_rows_give_equal_constraints(row, rel, k):
    # The same values as unreduced strings "p*k/q*k": one row, one constraint,
    # with numerators and denominator in lowest terms.
    written = [f"{x.numerator * k}/{x.denominator * k}" for x in row]
    c = constraint(row[:-1], rel, row[-1])
    same = constraint(written[:-1], rel, written[-1])
    assert c == same and hash(c) == hash(same)
    assert c.den > 0 and gcd(c.den, *c.nums) == 1
    sign = 1 if rel in (LE, LT, EQ) else -1
    assert c.coeffs == tuple(sign * x for x in row[:-1]) and c.rhs == sign * row[-1]


def test_constraint_rows_in_lowest_terms():
    assert constraint([Fraction(2, 4)], LE, 1) == constraint([Fraction(1, 2)], LE, 1)
    c = constraint([Fraction(2, 4), 3], LT, Fraction(1, 3))
    assert (c.nums, c.den) == ((3, 18, 2), 6)
    assert c.coeffs == (Fraction(1, 2), Fraction(3)) and c.rhs == Fraction(1, 3)


def test_holds_rejects_float_coordinates():
    c = constraint([1, 1], LE, 1)
    with pytest.raises(TypeError):
        c.holds((0.5, 0))
    with pytest.raises(TypeError):
        LinearSystem((c,)).holds((0, 0.5))
