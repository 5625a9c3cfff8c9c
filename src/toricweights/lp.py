"""Exact linear feasibility over the rationals, for the two problems the
package solves.

- ``feasible_strict``: a point strictly inside a homogeneous cone, every row
  ``(nums/den)·x < 0``; the rows are the secondary-cone inequalities of a
  triangulation, the point its regularity witness.
- ``nonnegative_feasible``: a point a >= 0 with A a = b, for hull membership
  and Gordan certificates.

Both run one two-phase simplex with Bland's rule.  In the cone, strictness
is handled by a single global slack variable that every row must dominate;
the slack is maximized (capped at 1, so the cone does not make it
unbounded), and a strictly feasible point exists iff the optimal slack is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .exact import integer_row, pivot


@dataclass(frozen=True)
class Constraint:
    """The strict inequality ``(nums / den)·x < 0``: integer numerators over
    one positive denominator in lowest terms, so equal rational rows compare
    equal."""

    nums: tuple[int, ...]
    den: int


@dataclass(frozen=True)
class LinearSystem:
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        dims = {len(c.nums) for c in self.constraints}
        if len(dims) > 1:
            raise ValueError("constraints have inconsistent dimensions")

    @property
    def dim(self) -> int:
        return len(self.constraints[0].nums) if self.constraints else 0

    def holds(self, point: Sequence) -> bool:
        """Exact test that every row is strict at a point of ints and
        Fractions: the sign of one integer dot product per row, as both
        denominators are positive."""
        if not all(isinstance(x, (int, Fraction)) for x in point):
            raise TypeError("holds needs int or Fraction coordinates")
        nums, _ = integer_row(point)
        return all(sum(map(mul, c.nums, nums)) < 0 for c in self.constraints)


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


def nonnegative_feasible(rows: Sequence[Sequence], rhs: Sequence) -> Optional[tuple[Fraction, ...]]:
    """A point a >= 0 with rows @ a == rhs, or None.  Cheaper encoding than
    ``feasible_strict`` for problems whose variables are naturally
    nonnegative (convex-combination memberships)."""
    m = len(rows[0]) if rows else 0
    # columns: a (m) | s | cap slack.  s sits in the cap row s + slack = 1
    # alone, so phase 2 (maximize s) pivots on that row only and returns the
    # point phase 1 found.
    nvars = m + 2
    split = [integer_row([*row, 0, 0, r]) for row, r in zip(rows, rhs)]
    eqs, dens = [nums for nums, _ in split], [den for _, den in split]
    eqs.append([0] * m + [1, 1, 1])
    dens.append(1)
    result = _solve_max(eqs, dens, m, nvars)
    return None if result is None else tuple(result[1][:m])


def feasible_strict(system: LinearSystem) -> Optional[tuple[Fraction, ...]]:
    """Exact rational point satisfying every row of the system strictly.

    Returns None when no such point exists.  Free variables are split into
    positive and negative parts; one extra slack column s is shared by all
    rows, each row reads (nums / den)·x + s + (its own slack) = 0, and s is
    maximized subject to s <= 1.
    """
    d = system.dim
    cons = system.constraints
    # columns: u (d) | v (d) | s | one row-slack per row | cap slack
    nvars = 2 * d + 2 + len(cons)
    s_col = 2 * d
    rows, dens = [], []
    for i, c in enumerate(cons):
        row = [*c.nums, *(-a for a in c.nums)] + [0] * (nvars + 1 - 2 * d)
        row[s_col] = row[s_col + 1 + i] = c.den
        rows.append(row)
        dens.append(c.den)
    cap = [0] * (nvars + 1)
    cap[s_col] = cap[nvars - 1] = cap[nvars] = 1
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
