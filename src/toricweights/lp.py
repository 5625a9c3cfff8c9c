"""Exact linear feasibility over the rationals.

A system mixes weak inequalities, strict inequalities and equations over free
rational variables.  Strictness is handled by a single global slack variable
that every strict row must dominate; the slack is maximized (capped at 1, so
homogeneous cones do not make it unbounded) with a two-phase simplex using
Bland's rule.  A strictly feasible point exists iff the optimal slack is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .exact import integer_row, pivot

LE = "<="
LT = "<"
EQ = "=="

_FLIP = {">=": LE, ">": LT}


def constraint(coeffs: Sequence, rel: str, rhs) -> "Constraint":
    """Build a constraint; >= and > are normalized to <= and < by negation."""
    cs = tuple(Fraction(c) for c in coeffs)
    r = Fraction(rhs)
    if rel in _FLIP:
        cs = tuple(-c for c in cs)
        r = -r
        rel = _FLIP[rel]
    if rel not in (LE, LT, EQ):
        raise ValueError(f"unknown relation {rel!r}")
    return Constraint(cs, rel, r)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction

    def holds(self, point: Sequence) -> bool:
        """Exact test at a point of ints and Fractions, multiplied as they are."""
        lhs = sum(map(mul, self.coeffs, point))
        if not isinstance(lhs, (int, Fraction)):
            raise TypeError("holds needs int or Fraction coordinates")
        if self.rel == LE:
            return lhs <= self.rhs
        if self.rel == LT:
            return lhs < self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class LinearSystem:
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        dims = {len(c.coeffs) for c in self.constraints}
        if len(dims) > 1:
            raise ValueError("constraints have inconsistent dimensions")

    @property
    def dim(self) -> int:
        return len(self.constraints[0].coeffs) if self.constraints else 0

    def holds(self, point: Sequence) -> bool:
        return all(c.holds(point) for c in self.constraints)


class _Unbounded(RuntimeError):
    pass


def _optimize(tab, dens, basis):
    """Minimize the cost row over the equality tableau; Bland's rule.

    Row ``i`` is ``tab[i] / dens[i]`` (see ``exact.pivot``): rows
    [a_0 ... a_{k-1} | b] with b >= 0 at start, then the cost row
    [c_0 ... c_{k-1} | 0].  ``basis`` maps each constraint row to its basic
    column.  Pivots update the cost row too, which ends as the reduced costs
    with -(optimum) in its last slot.
    """
    k = len(tab[0]) - 1
    cost = len(basis)
    for i, b in enumerate(basis):
        if tab[cost][b] != 0:
            pivot(tab, dens, i, b)
    while True:
        col = next((j for j in range(k) if tab[cost][j] < 0), None)
        if col is None:
            return
        # Ratios b_i / a_i (a row's denominator cancels), cross-multiplied.
        best = None
        for i in range(cost):
            a = tab[i][col]
            if a > 0:
                if best is not None:
                    lhs, rhs = tab[i][-1] * tab[best][col], tab[best][-1] * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[best]):
                        continue
                best = i
        if best is None:
            raise _Unbounded
        pivot(tab, dens, best, col)
        basis[best] = col


def _solve_max(rows, rhs, obj_col, nvars):
    """Maximize x[obj_col] over {rows @ x = rhs, x >= 0}.

    Returns (optimum, point) or None when the system is infeasible.
    """
    m = len(rows)
    tab, dens = [], []
    for i in range(m):
        nums, den = integer_row(list(rows[i]) + [rhs[i]])
        if nums[-1] < 0:
            nums = [-x for x in nums]
        # Phase 1: artificial variable per row, minimize their sum.
        tab.append(nums[:-1] + [den if j == i else 0 for j in range(m)] + nums[-1:])
        dens.append(den)
    basis = [nvars + i for i in range(m)]
    tab.append([0] * nvars + [1] * m + [0])
    dens.append(1)
    _optimize(tab, dens, basis)
    if tab.pop()[-1] != 0:
        return None
    dens.pop()
    # Drive remaining artificials out of the basis, drop redundant rows.
    for i in range(len(tab) - 1, -1, -1):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if tab[i][j] != 0), None)
            if col is None:
                del tab[i]
                del dens[i]
                del basis[i]
            else:
                pivot(tab, dens, i, col)
                basis[i] = col
    tab = [row[:nvars] + row[-1:] for row in tab]

    # Phase 2: maximize the objective column.
    cost = [0] * (nvars + 1)
    cost[obj_col] = -1
    tab.append(cost)
    dens.append(1)
    _optimize(tab, dens, basis)
    value = Fraction(tab[-1][-1], dens[-1])  # equals -min(-x) accumulated in the rhs slot
    point = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        point[b] = Fraction(tab[i][-1], dens[i])
    return value, point


def nonnegative_feasible(
    rows: Sequence[Sequence], rhs: Sequence, strict_cols: Sequence[int] = ()
) -> Optional[tuple[Fraction, ...]]:
    """A point a >= 0 with rows @ a == rhs and a[j] > 0 for j in strict_cols,
    or None.  Cheaper encoding than ``feasible_strict`` for problems whose
    variables are naturally nonnegative (convex-combination memberships)."""
    m = len(rows[0]) if rows else 0
    nstrict = len(strict_cols)
    # columns: a (m) | s | one slack per strict row | cap slack
    nvars = m + 1 + nstrict + 1
    s_col = m
    eqs = []
    b = []
    for row, r in zip(rows, rhs):
        eqs.append([Fraction(x) for x in row] + [Fraction(0)] * (nvars - m))
        b.append(Fraction(r))
    for k, j in enumerate(strict_cols):
        row = [Fraction(0)] * nvars
        row[j] = Fraction(-1)
        row[s_col] = Fraction(1)
        row[m + 1 + k] = Fraction(1)
        eqs.append(row)  # s - a_j + slack = 0, i.e. a_j >= s
        b.append(Fraction(0))
    cap = [Fraction(0)] * nvars
    cap[s_col] = Fraction(1)
    cap[nvars - 1] = Fraction(1)
    eqs.append(cap)
    b.append(Fraction(1))
    result = _solve_max(eqs, b, s_col, nvars)
    if result is None:
        return None
    value, point = result
    if value <= 0:
        return None
    return tuple(point[:m])


def feasible_strict(system: LinearSystem) -> Optional[tuple[Fraction, ...]]:
    """Exact rational point satisfying every constraint, strict ones strictly.

    Returns None when no such point exists.  Free variables are split into
    positive and negative parts; one extra slack column is shared by all
    strict rows and maximized subject to slack <= 1.
    """
    d = system.dim
    cons = system.constraints
    # columns: u (d) | v (d) | s | one row-slack per inequality row
    nineq = sum(1 for c in cons if c.rel != EQ) + 1  # + slack cap row
    nvars = 2 * d + 1 + nineq
    s_col = 2 * d
    rows = []
    rhs = []
    slack_at = 2 * d + 1
    for c in cons:
        row = [Fraction(0)] * nvars
        for j, a in enumerate(c.coeffs):
            row[j] = a
            row[d + j] = -a
        if c.rel == LT:
            row[s_col] = Fraction(1)
        if c.rel != EQ:
            row[slack_at] = Fraction(1)
            slack_at += 1
        rows.append(row)
        rhs.append(c.rhs)
    cap = [Fraction(0)] * nvars
    cap[s_col] = Fraction(1)
    cap[slack_at] = Fraction(1)
    rows.append(cap)
    rhs.append(Fraction(1))

    result = _solve_max(rows, rhs, s_col, nvars)
    if result is None:
        return None
    value, point = result
    if value <= 0:
        return None
    witness = tuple(point[j] - point[d + j] for j in range(d))
    if not system.holds(witness):
        raise RuntimeError("simplex returned an invalid witness")
    return witness
