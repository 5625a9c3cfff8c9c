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
    nums, den = integer_row([*coeffs, rhs])
    if rel in _FLIP:
        nums = [-x for x in nums]
        rel = _FLIP[rel]
    if rel not in (LE, LT, EQ):
        raise ValueError(f"unknown relation {rel!r}")
    return Constraint(tuple(nums), den, rel)


def _exact_point(point: Sequence) -> tuple[list[int], int]:
    if not all(isinstance(x, (int, Fraction)) for x in point):
        raise TypeError("holds needs int or Fraction coordinates")
    return integer_row(point)


@dataclass(frozen=True)
class Constraint:
    """The row ``[coeffs | rhs]`` as integer numerators ``nums`` over one positive
    denominator ``den`` in lowest terms, so equal rational rows compare equal."""

    nums: tuple[int, ...]
    den: int
    rel: str

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums[:-1])

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.nums[-1], self.den)

    def holds(self, point: Sequence) -> bool:
        """Exact test at a point of ints and Fractions."""
        return self._holds_at(*_exact_point(point))

    def _holds_at(self, nums: Sequence[int], den: int) -> bool:
        # Both sides of the point's row nums / den, times self.den * den > 0.
        lhs = sum(map(mul, self.nums[:-1], nums))
        rhs = self.nums[-1] * den
        if self.rel == LE:
            return lhs <= rhs
        if self.rel == LT:
            return lhs < rhs
        return lhs == rhs


@dataclass(frozen=True)
class LinearSystem:
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        dims = {len(c.nums) for c in self.constraints}
        if len(dims) > 1:
            raise ValueError("constraints have inconsistent dimensions")

    @property
    def dim(self) -> int:
        return len(self.constraints[0].nums) - 1 if self.constraints else 0

    def holds(self, point: Sequence) -> bool:
        nums, den = _exact_point(point)
        return all(c._holds_at(nums, den) for c in self.constraints)


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


def _solve_max(rows, dens, obj_col, nvars):
    """Maximize x[obj_col] over {A @ x = b, x >= 0}, where row ``i`` of
    ``[A | b]`` is ``rows[i] / dens[i]``: integer numerators over a positive
    denominator, in lowest terms (as ``exact.integer_row`` gives them).

    Returns (optimum, point) or None when the system is infeasible.
    """
    m = len(rows)
    tab, dens = [], list(dens)
    for i, nums in enumerate(rows):
        if nums[-1] < 0:
            nums = [-x for x in nums]
        # Phase 1: artificial variable per row, minimize their sum.
        tab.append(nums[:-1] + [dens[i] if j == i else 0 for j in range(m)] + nums[-1:])
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
    split = [integer_row([*row, *[0] * (nvars - m), r]) for row, r in zip(rows, rhs)]
    eqs, dens = [nums for nums, _ in split], [den for _, den in split]
    for k, j in enumerate(strict_cols):
        row = [0] * (nvars + 1)
        row[j] = -1
        row[s_col] = row[m + 1 + k] = 1
        eqs.append(row)  # s - a_j + slack = 0, i.e. a_j >= s
        dens.append(1)
    cap = [0] * (nvars + 1)
    cap[s_col] = cap[nvars - 1] = cap[nvars] = 1
    eqs.append(cap)
    dens.append(1)
    result = _solve_max(eqs, dens, s_col, nvars)
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
    rows, dens = [], []
    slack_at = 2 * d + 1
    for c in cons:
        coeffs = c.nums[:-1]
        row = [*coeffs, *(-a for a in coeffs)] + [0] * (nvars - 2 * d) + [c.nums[-1]]
        if c.rel == LT:
            row[s_col] = c.den
        if c.rel != EQ:
            row[slack_at] = c.den
            slack_at += 1
        rows.append(row)
        dens.append(c.den)
    cap = [0] * (nvars + 1)
    cap[s_col] = cap[slack_at] = cap[nvars] = 1
    rows.append(cap)
    dens.append(1)

    result = _solve_max(rows, dens, s_col, nvars)
    if result is None:
        return None
    value, point = result
    if value <= 0:
        return None
    witness = tuple(point[j] - point[d + j] for j in range(d))
    if not system.holds(witness):
        raise RuntimeError("simplex returned an invalid witness")
    return witness
