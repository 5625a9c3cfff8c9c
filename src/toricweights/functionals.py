"""Exact piecewise-linear functions, their integrals, and the toric functionals.

Integration is purely combinatorial: over an n-simplex the integral of an
affine function is its vertex average times the Euclidean volume, so

    integral_q(g)        = sum over cells of vol(s)/(n+1)! * sum of vertex values
    integral_boundary(g) = sum over massive walls of vol(w)/n! * sum of vertex values

with normalized volumes vol.  The Aubin functional is the plain integral over
the polytope; the Donaldson functional is

    donaldson_f(g) = integral_boundary(g) - n * (bvol/vol) * integral_q(g)

with vol, bvol the normalized volumes of the polytope and its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from operator import mul
from typing import Mapping, Sequence

from .exact import affine_combination, solve_linear
from .polytope import LatticePolytope, PointConfiguration, in_convex_hull
from .triangulation import Lifting, Triangulation, lower_hull_subdivision


@dataclass(frozen=True)
class PLFunction:
    """Function that is affine on each cell of a subdivision, determined by
    rational values at the cell vertices.

    ``values`` holds ints and Fractions as given, so that integer-valued
    functions (the scaled trial functions of the identity suite) are
    integrated and paired in integers."""

    config: PointConfiguration
    cells: tuple[tuple[int, ...], ...]
    values: Mapping[int, int | Fraction]
    simplicial: bool

    @classmethod
    def on_triangulation(cls, tri: Triangulation, values: Mapping[int, int | Fraction]) -> "PLFunction":
        vals = {int(k): v if isinstance(v, (int, Fraction)) else Fraction(v) for k, v in values.items()}
        missing = [i for i in tri.used_points if i not in vals]
        if missing:
            raise ValueError(f"missing values at used points {missing}")
        g = cls(tri.config, tri.simplices, vals, True)
        vars(g)["triangulation"] = tri  # the cached property: reuse tri and its walls
        return g

    @cached_property
    def triangulation(self) -> Triangulation:
        if not self.simplicial:
            raise ValueError("function is carried on a non-simplicial subdivision")
        return Triangulation(self.config, self.cells, validate=False)

    def evaluate(self, point: Sequence) -> Fraction:
        """Value at any point of the polytope; exact, well-defined on shared
        faces because adjacent affine pieces agree there."""
        pt = tuple(Fraction(x) for x in point)
        for cell in self.cells:
            pts = [self.config.points[i] for i in cell]
            if self.simplicial:
                coeffs = affine_combination(pts, pt)
                if coeffs is not None and all(c >= 0 for c in coeffs):
                    return sum(c * self.values[i] for c, i in zip(coeffs, cell))
            elif in_convex_hull(pt, pts):
                return _cell_affine_value(self.config, cell, self.values, pt)
        raise ValueError(f"point {point} lies outside the carrier")

    def to_json(self) -> dict:
        """Serialize as {triangulation, values}: cells as sorted index arrays,
        values as "p/q" strings over the whole configuration (interpolated at
        points the carrier does not use)."""
        vals = []
        for i, p in enumerate(self.config.points):
            v = self.values.get(i)
            if v is None:
                v = self.evaluate(p)
            vals.append(f"{v.numerator}/{v.denominator}")
        return {"triangulation": [list(c) for c in self.cells], "values": vals}

    @classmethod
    def from_json(cls, config: PointConfiguration, doc: dict) -> "PLFunction":
        tri = Triangulation(config, doc["triangulation"])
        values = {}
        for i in tri.used_points:
            num, den = doc["values"][i].split("/")
            values[i] = Fraction(int(num), int(den))
        return cls.on_triangulation(tri, values)


def _cell_affine_value(config, cell, values, pt) -> Fraction:
    # Affine function pinned by the cell's vertex values; any affinely spanning
    # subset determines it.
    matrix = [list(config.points[i]) + [1] for i in cell]
    rhs = [values[i] for i in cell]
    sol = solve_linear(matrix, rhs)
    if sol is None:
        raise RuntimeError("cell values are not affine on the cell")
    return sum(c * x for c, x in zip(sol, pt)) + sol[-1]


def pl_from_lifting(config: PointConfiguration, lifting: Lifting | Sequence[int]) -> PLFunction:
    """Lower envelope of the lifted heights as a piecewise-linear function.

    Carried on the lower-hull subdivision; ``simplicial`` is False when some
    lower facet is not a simplex, and callers needing a triangulation must
    check it.  At a point whose lift is a lower-hull vertex the value is the
    height; elsewhere it is >= the height.
    """
    if not isinstance(lifting, Lifting):
        lifting = Lifting.normalized(lifting)
    sub = lower_hull_subdivision(config, lifting)
    used = sorted({i for cell in sub.cells for i in cell})
    values = {i: Fraction(lifting.heights[i]) for i in used}
    return PLFunction(config, sub.cells, values, sub.is_triangulation)


def integral_q(g: PLFunction) -> Fraction:
    """Exact integral of g over the polytope (Lebesgue measure).  The sum of
    vol * (sum of vertex values) is divided by (n+1)! once, so integer
    values are summed in integers."""
    if not g.simplicial:
        raise ValueError("integral requires a simplicial carrier")
    total = sum(g.config.normalized_volume(cell) * sum(g.values[i] for i in cell) for cell in g.cells)
    return Fraction(total, factorial(g.config.dim + 1))


def integral_boundary(g: PLFunction) -> Fraction:
    """Exact integral of g over the boundary, against the lattice measure of
    each facet."""
    walls = g.triangulation.massive_walls
    total = sum(g.config.normalized_volume(wall) * sum(g.values[i] for i in wall) for wall in walls)
    return Fraction(total, factorial(g.config.dim))


def aubin_l(g: PLFunction) -> Fraction:
    """The Aubin-type functional: the plain integral over the polytope."""
    return integral_q(g)


def donaldson_f(g: PLFunction) -> Fraction:
    return donaldson_from_integrals(g.config.polytope, integral_boundary(g), integral_q(g))


def donaldson_from_integrals(q: LatticePolytope, boundary_integral: Fraction, volume_integral: Fraction) -> Fraction:
    """The Donaldson functional of a function with the given integrals over
    the boundary and over the polytope ``q``."""
    return boundary_integral - q.dim * Fraction(q.boundary_volume, q.volume) * volume_integral


def pairing(x: Sequence, g: Sequence) -> int | Fraction:
    """Exact dot product of a characteristic (or any) vector with values on
    the configuration.  Entries must be ints or Fractions; they are
    multiplied as they are, so the value is an int when all entries are."""
    xs = getattr(x, "entries", x)
    if len(xs) != len(g):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(g)}")
    total = sum(map(mul, xs, g))
    if not isinstance(total, (int, Fraction)):
        raise TypeError("pairing needs int or Fraction entries")
    return total


def char_pairing(vec, g: PLFunction) -> int | Fraction:
    """Pairing of a characteristic vector with a PL function's vertex values;
    characteristic vectors vanish at unused points, so only carried values
    enter.  An int when the values are ints."""
    entries = getattr(vec, "entries", vec)
    return sum(entries[i] * v for i, v in g.values.items())


@dataclass(frozen=True)
class Degrees:
    chow: int
    hurwitz: int


def degrees(polytope: LatticePolytope) -> Degrees:
    """deg of the Chow form is the normalized volume; deg of the Hurwitz form
    is (n+1) * volume - boundary volume."""
    n = polytope.dim
    vol = polytope.volume
    return Degrees(vol, (n + 1) * vol - polytope.boundary_volume)
