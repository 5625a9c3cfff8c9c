"""Exact integer and rational linear algebra primitives.

Everything in this package runs over Python ints and ``fractions.Fraction``;
no floating point enters any computation.  Elimination (``pivot``, and the
simplex tableau in ``lp``) holds each matrix row as integer numerators over
one positive denominator in lowest terms, so its inner loops multiply ints;
results leave as ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional, Sequence

IntVector = Sequence[int]
IntMatrix = Sequence[Sequence[int]]


def check_ints(rows: IntMatrix, what: str) -> None:
    """Raise ``TypeError`` unless every entry of ``rows`` is an int (bools
    are not): the integer routines must not truncate rational or float input."""
    if any(type(x) is not int for row in rows for x in row):
        raise TypeError(f"{what} needs int entries")


def det(matrix: IntMatrix) -> int:
    """Exact determinant of a square integer matrix.

    Bareiss fraction-free elimination: every intermediate quotient is an exact
    integer division, so there is no coefficient blow-up beyond minors.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("det requires a square matrix")
    if n == 0:
        return 1
    check_ints(matrix, "det")
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def lattice_index(vectors: Sequence[IntVector]) -> int:
    """Index of the sublattice spanned by ``vectors`` inside its saturation.

    Equals the product of the elementary divisors of the stacked matrix, i.e.
    the gcd of all maximal minors.  The empty family has index 1.  Raises
    ``ValueError`` when the vectors are linearly dependent (all maximal minors
    vanish).
    """
    vecs = [list(v) for v in vectors]
    check_ints(vecs, "lattice_index")
    k = len(vecs)
    if k == 0:
        return 1
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise ValueError("vectors must share one dimension")
    if k > n:
        raise ValueError("vectors are linearly dependent")
    g = 0
    for cols in combinations(range(n), k):
        g = gcd(g, det([[v[c] for c in cols] for v in vecs]))
        if g == 1:
            return 1
    if g == 0:
        raise ValueError("vectors are linearly dependent")
    return g


def primitive(vector: IntVector) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    check_ints([vector], "primitive")
    g = gcd(*vector)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in vector)


def integer_row(values: Sequence) -> tuple[list[int], int]:
    """Rational values as integer numerators over their least common positive
    denominator, hence in lowest terms.  Ints and Fractions are read as they
    are; anything else, such as the string "1/4", goes through ``Fraction``.
    Bools and floats raise ``TypeError``: read as 0 and 1, or as a float's
    binary expansion, they would pass every exact check built on this."""
    if not {bool, float}.isdisjoint(map(type, values)):
        raise TypeError("integer_row needs exact numbers, not bools or floats")
    vals = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in vals))
    return [x.numerator * (den // x.denominator) for x in vals], den


def pivot(rows: list[list[int]], dens: list[int], r: int, c: int) -> None:
    """One Gauss-Jordan step in place on the matrix with rows
    ``rows[i] / dens[i]`` (integer numerators, positive denominators): scale
    row ``r`` so that its entry in column ``c`` is 1, then clear column ``c``
    from every other row.  ``rows[r][c]`` must be nonzero.  Updated rows are
    put back in lowest terms.  Row reduction here and the simplex tableau in
    ``lp`` both pivot through this step."""
    pr = rows[r]
    g = gcd(*pr) if pr[c] > 0 else -gcd(*pr)  # divides pr[c]; makes it positive
    if g != 1:
        rows[r] = pr = [x // g for x in pr]
    dens[r] = pv = pr[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f == 0 or i == r:
            continue
        new = [a * pv - f * b for a, b in zip(row, pr)]
        den = dens[i] * pv
        g = gcd(den, *new)
        if g != 1:
            new = [x // g for x in new]
            den //= g
        rows[i] = new
        dens[i] = den


def _rref(matrix: Sequence[Sequence], ncols: int) -> tuple[list[list[int]], list[int], list[tuple[int, int]]]:
    """Reduced row echelon form of ``matrix`` as (numerators, denominators,
    pivots), pivoting on the first ``ncols`` columns from left to right on
    the first nonzero entry at or below the current row.  ``pivots`` holds
    the (row, column) pivot positions; the rows from ``len(pivots)`` on are
    zero in the first ``ncols`` columns."""
    split = [integer_row(values) for values in matrix]
    rows, dens = [nums for nums, _ in split], [den for _, den in split]
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        dens[r], dens[piv] = dens[piv], dens[r]
        pivot(rows, dens, r, c)
        pivots.append((r, c))
        if len(pivots) == len(rows):
            break
    return rows, dens, pivots


def rank(matrix: Sequence[Sequence]) -> int:
    """Rank over the rationals, by exact Gaussian elimination."""
    return len(_rref(matrix, len(matrix[0]))[2]) if matrix else 0


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[tuple[Fraction, ...]]:
    """One exact solution of ``matrix @ x = rhs``, or None when inconsistent.

    Free variables are set to zero, so the solution is unique exactly when the
    columns are independent.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, dens, pivots = _rref([list(row) + [b] for row, b in zip(matrix, rhs)], ncols)
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for r, c in pivots:
        x[c] = Fraction(rows[r][-1], dens[r])
    return tuple(x)


def kernel_vector(matrix: Sequence[Sequence]) -> Optional[tuple[Fraction, ...]]:
    """A nonzero rational kernel vector of ``matrix``, or None if injective."""
    ncols = len(matrix[0]) if matrix else 0
    rows, dens, pivots = _rref(matrix, ncols)
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(ncols) if c not in pivot_cols), None)
    if free is None:
        return None
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for r, c in pivots:
        x[c] = Fraction(-rows[r][free], dens[r])
    return tuple(x)


def _homogenized(points: Sequence[Sequence], dim: int) -> list[list]:
    """The points as columns, each with a 1 appended: its kernel holds the
    affine dependences and its column space the affine hull."""
    matrix = [[p[j] for p in points] for j in range(dim)]
    matrix.append([1] * len(points))
    return matrix


def affine_combination(points: Sequence[Sequence], target: Sequence) -> Optional[tuple[Fraction, ...]]:
    """Coefficients c with sum(c) = 1 and sum(c_i * p_i) = target.

    None when the target lies outside the affine hull of the points.  The
    coefficients are the barycentric coordinates when the points are affinely
    independent.
    """
    rhs = list(target) + [1]
    return solve_linear(_homogenized(points, len(target)), rhs)


def affine_dependence(points: Sequence[Sequence]) -> Optional[tuple[int, ...]]:
    """Primitive integer coefficients c != 0 with sum(c) = 0 and
    sum(c_i * p_i) = 0, or None when the points are affinely independent.

    Unique up to sign when exactly one dependence exists; the sign is fixed so
    that the first nonzero coefficient is positive.
    """
    v = kernel_vector(_homogenized(points, len(points[0])))
    if v is None:
        return None
    ints = integer_row(v)[0]  # primitive, since v has an entry equal to 1
    if next(x for x in ints if x != 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)
