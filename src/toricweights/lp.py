"""Exact linear feasibility over the rationals, for the two problems the
package solves.

- ``feasible_strict``: a point strictly inside a homogeneous cone, every row
  ``(nums/den)·x < 0``; the rows are the secondary-cone inequalities of a
  triangulation, the point its regularity witness.
- ``nonnegative_feasible``: a point a >= 0 with A a = b, for hull membership
  and Gordan certificates.

Both are plain nonnegative feasibility, decided by one phase-1 simplex with
Bland's rule.  A homogeneous strict system ``A·x < 0`` has a solution exactly
when ``A·x <= -1`` has one (scale any solution), so the cone is searched as
``A·(u - v) + t = -1`` with u, v, t >= 0.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .exact import integer_row, pivot


class Constraint(NamedTuple):
    """The strict inequality ``(nums / den)·x < 0``: integer numerators over
    one positive denominator in lowest terms, so equal rational rows compare
    equal."""

    nums: tuple[int, ...]
    den: int


class _System(NamedTuple):
    constraints: tuple[Constraint, ...]
    dim: int


class LinearSystem(_System):
    """Strict rows on points of ``dim`` coordinates; every row has ``dim``
    coefficients."""

    __slots__ = ()

    def __new__(cls, constraints: tuple[Constraint, ...], dim: int):
        if any(len(nums) != dim for nums, _ in constraints):
            raise ValueError(f"constraints must have {dim} coefficients")
        return tuple.__new__(cls, (constraints, dim))

    def holds(self, point: Sequence) -> bool:
        """Exact test that every row is strict at a point of ints and
        Fractions: the sign of one integer dot product per row, as both
        denominators are positive.  The point must have ``dim`` coordinates,
        also when there are no rows."""
        if len(point) != self.dim:
            raise ValueError(f"holds needs a point of length {self.dim}, got {len(point)}")
        if not all(isinstance(x, (int, Fraction)) for x in point):
            raise TypeError("holds needs int or Fraction coordinates")
        point_nums, _ = integer_row(point)
        return all(sum(map(mul, nums, point_nums)) < 0 for nums, _ in self.constraints)


def _optimize(tab, dens, basis):
    """Minimize the cost row over the equality tableau; Bland's rule.

    Row ``i`` is ``tab[i] / dens[i]`` (see ``exact.pivot``): rows
    [a_0 ... a_{k-1} | b] with b >= 0 at start, then the cost row
    [c_0 ... c_{k-1} | 0].  ``basis`` maps each constraint row to its basic
    column.  Pivots update the cost row too, which ends as the reduced costs
    with -(optimum) in its last slot.  The cost minimized is a sum of
    artificials, bounded below by 0, so an entering column always has a
    positive entry; its absence is a consistency failure.
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
            raise RuntimeError("phase-1 simplex found an unbounded direction")
        pivot(tab, dens, best, col)
        basis[best] = col


def _feasible(rows, dens, nvars):
    """A point x >= 0 with A @ x = b, or None when there is none, where row
    ``i`` of ``[A | b]`` is ``rows[i] / dens[i]``: integer numerators over a
    positive denominator, in lowest terms (as ``exact.integer_row`` gives
    them).

    Phase 1 alone: one artificial per row, their sum minimized.  Artificials
    left basic at the optimum sit at 0, so the point is read off the basic
    columns below ``nvars``.
    """
    m = len(rows)
    tab, dens = [], list(dens)
    for i, nums in enumerate(rows):
        if nums[-1] < 0:
            nums = [-x for x in nums]
        tab.append(nums[:-1] + [dens[i] if j == i else 0 for j in range(m)] + nums[-1:])
    basis = [nvars + i for i in range(m)]
    tab.append([0] * nvars + [1] * m + [0])
    dens.append(1)
    _optimize(tab, dens, basis)
    if tab[-1][-1] != 0:
        return None
    point = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            point[b] = Fraction(tab[i][-1], dens[i])
    return point


def nonnegative_feasible(rows: Sequence[Sequence], rhs: Sequence) -> Optional[tuple[Fraction, ...]]:
    """A point a >= 0 with rows @ a == rhs, or None: convex-combination
    memberships, whose variables are naturally nonnegative."""
    split = [integer_row([*row, r]) for row, r in zip(rows, rhs)]
    point = _feasible([nums for nums, _ in split], [den for _, den in split], len(rows[0]) if rows else 0)
    return None if point is None else tuple(point)


def feasible_strict(system: LinearSystem) -> Optional[tuple[Fraction, ...]]:
    """Exact rational point satisfying every row of the system strictly.

    Returns None when no such point exists.  Free variables are split into
    positive and negative parts u - v, and each row gets its own slack t_i:
    row i reads (nums / den)·(u - v) + t_i = -1.
    """
    d = system.dim
    cons = system.constraints
    # columns: u (d) | v (d) | one slack per row
    rows = []
    for i, (nums, den) in enumerate(cons):
        row = [*nums, *(-a for a in nums)] + [0] * (len(cons) + 1)
        row[2 * d + i] = den
        row[-1] = -den
        rows.append(row)
    point = _feasible(rows, [den for _, den in cons], 2 * d + len(cons))
    if point is None:
        return None
    witness = tuple(point[j] - point[d + j] for j in range(d))
    if not system.holds(witness):
        raise RuntimeError("simplex returned an invalid witness")
    return witness
