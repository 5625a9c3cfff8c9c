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
from typing import Optional, Sequence

from .exact import pivot

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
        lhs = sum(c * Fraction(x) for c, x in zip(self.coeffs, point))
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


def _optimize(tab, basis, cost):
    """Minimize cost @ x over the equality tableau; Bland's rule.

    ``tab`` rows are [a_0 ... a_{k-1} | b] with b >= 0 at start; ``basis`` maps
    row index to its basic column.  Returns the reduced-cost row.
    """
    k = len(cost)
    red = list(cost) + [Fraction(0)]
    for i, b in enumerate(basis):
        if red[b] != 0:
            f = red[b]
            red = [a - f * c for a, c in zip(red, tab[i])]
    while True:
        col = next((j for j in range(k) if red[j] < 0), None)
        if col is None:
            return red
        best = None
        for i, row in enumerate(tab):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise _Unbounded
        pivot(tab, best[1], col)
        basis[best[1]] = col
        f = red[col]
        if f != 0:
            red = [a - f * b for a, b in zip(red, tab[best[1]])]


def _solve_max(rows, rhs, obj_col, nvars):
    """Maximize x[obj_col] over {rows @ x = rhs, x >= 0}.

    Returns (optimum, point) or None when the system is infeasible.
    """
    m = len(rows)
    tab = []
    for i in range(m):
        r = list(rows[i]) + [rhs[i]]
        if r[-1] < 0:
            r = [-x for x in r]
        tab.append(r)

    # Phase 1: artificial variable per row, minimize their sum.
    for i in range(m):
        row = tab[i][:-1] + [Fraction(0)] * m + [tab[i][-1]]
        row[nvars + i] = Fraction(1)
        tab[i] = row
    basis = [nvars + i for i in range(m)]
    cost = [Fraction(0)] * nvars + [Fraction(1)] * m
    red = _optimize(tab, basis, cost)
    if -red[-1] != 0:
        return None
    # Drive remaining artificials out of the basis, drop redundant rows.
    for i in range(len(tab) - 1, -1, -1):
        if basis[i] >= nvars:
            col = next((j for j in range(nvars) if tab[i][j] != 0), None)
            if col is None:
                del tab[i]
                del basis[i]
            else:
                pivot(tab, i, col)
                basis[i] = col
    tab = [row[:nvars] + [row[-1]] for row in tab]

    # Phase 2: maximize the objective column.
    cost = [Fraction(0)] * nvars
    cost[obj_col] = Fraction(-1)
    red = _optimize(tab, basis, cost)
    value = red[-1]  # equals -min(-x) accumulated in the rhs slot
    point = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        point[b] = tab[i][-1]
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
