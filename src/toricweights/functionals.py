"""Exact piecewise-linear functions, their integrals, and the toric functionals.

A ``PLFunction`` is a triangulation plus values at its used points.
Integration is purely combinatorial: over an n-simplex the integral of an
affine function is its vertex average times the Euclidean volume.  With
normalized volumes vol, read from the triangulation's volume tables, the
integrals are kept as the totals

    volume_total(g)   = sum over cells of vol(s) * sum of vertex values        = (n+1)! * integral_q(g)
    boundary_total(g) = sum over massive walls of vol(w) * sum of vertex values = n! * integral_boundary(g)

which are ints when the values are, so the identities of the verification
suite compare integers.  The Aubin functional L(g) is integral_q(g), the plain
integral over the polytope; the Donaldson functional is

    donaldson_f(g) = integral_boundary(g) - n * (bvol/vol) * integral_q(g)

with vol, bvol the normalized volumes of the polytope and its boundary, and
(n+1)! * vol * donaldson_f(g) = donaldson_total(q, boundary_total(g), volume_total(g)).
Each Fraction functional is one division of these totals.  Characteristic
vectors are plain int tuples, paired with a function's values by
``char_pairing``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import mul
from typing import Mapping, Sequence

from .polytope import LatticePolytope, PointConfiguration
from .triangulation import Lifting, Triangulation, lower_hull_subdivision


@dataclass(frozen=True)
class PLFunction:
    """Function affine on each simplex of ``triangulation``, given by ints or
    Fractions at its used points, kept as given so that integer-valued
    functions are integrated and paired in integers.  The constructor checks
    nothing; outside callers go through ``on_triangulation``."""

    triangulation: Triangulation
    values: Mapping[int, int | Fraction]

    @classmethod
    def on_triangulation(cls, tri: Triangulation, values: Mapping[int, int | Fraction]) -> "PLFunction":
        """Checked construction: keys are point indices covering the used
        points, bools are refused, and any value but an int or a Fraction is
        read as a Fraction."""
        if any(type(k) is not int for k in values):
            raise TypeError("on_triangulation needs int point indices")
        if any(not 0 <= k < len(tri.config) for k in values):
            raise ValueError(f"values outside the point indices 0..{len(tri.config) - 1}")
        if any(type(v) is bool for v in values.values()):
            raise TypeError("on_triangulation needs int or Fraction values, not bool")
        vals = {k: v if isinstance(v, (int, Fraction)) else Fraction(v) for k, v in values.items()}
        missing = [i for i in tri.used_points if i not in vals]
        if missing:
            raise ValueError(f"missing values at used points {missing}")
        return cls(tri, vals)


def pl_from_lifting(config: PointConfiguration, lifting: Lifting | Sequence[int]) -> PLFunction:
    """Lower envelope of the lifted heights as a piecewise-linear function,
    carried on the lower-hull triangulation.

    Raises ValueError when some lower facet is not a simplex.  At a point
    whose lift is a lower-hull vertex the value is the height; elsewhere it
    is >= the height.
    """
    if not isinstance(lifting, Lifting):
        lifting = Lifting.normalized(lifting)
    sub = lower_hull_subdivision(config, lifting)
    if not sub.is_triangulation:
        raise ValueError("the lower hull of the lifting is not a triangulation")
    tri = Triangulation(config, sub.cells)
    return PLFunction(tri, {i: Fraction(lifting.heights[i]) for i in tri.used_points})


def volume_total(g: PLFunction) -> int | Fraction:
    """(n+1)! * integral_q(g): the sum of vol * (sum of vertex values) over
    the cells; an int when the values are ints."""
    at = g.values.__getitem__
    return sum(vol * sum(map(at, cell)) for cell, vol in g.triangulation.cell_volumes)


def boundary_total(g: PLFunction) -> int | Fraction:
    """n! * integral_boundary(g): the sum of vol * (sum of vertex values) over
    the massive walls; an int when the values are ints."""
    at = g.values.__getitem__
    return sum(vol * sum(map(at, wall)) for wall, vol in g.triangulation.massive_wall_volumes)


def donaldson_total(q: LatticePolytope, boundary: int | Fraction, volume: int | Fraction) -> int | Fraction:
    """(n+1)! * vol * donaldson_f(g) of a function g with the given
    ``boundary_total`` and ``volume_total`` on the polytope ``q``:
    (n+1) * vol * boundary - n * bvol * volume."""
    n = q.dim
    return (n + 1) * q.volume * boundary - n * q.boundary_volume * volume


def integral_q(g: PLFunction) -> Fraction:
    """Exact integral of g over the polytope (Lebesgue measure)."""
    return Fraction(volume_total(g), factorial(g.triangulation.config.dim + 1))


def integral_boundary(g: PLFunction) -> Fraction:
    """Exact integral of g over the boundary, against the lattice measure of
    each facet."""
    return Fraction(boundary_total(g), factorial(g.triangulation.config.dim))


def donaldson_f(g: PLFunction) -> Fraction:
    q = g.triangulation.config.polytope
    return Fraction(donaldson_total(q, boundary_total(g), volume_total(g)), factorial(q.dim + 1) * q.volume)


def pairing(x: Sequence, g: Sequence) -> int | Fraction:
    """Exact dot product of a characteristic (or any) vector with values on
    the configuration.  Entries must be ints or Fractions; they are
    multiplied as they are, so the value is an int when all entries are."""
    if len(x) != len(g):
        raise ValueError(f"length mismatch: {len(x)} vs {len(g)}")
    total = sum(map(mul, x, g))
    if not isinstance(total, (int, Fraction)):
        raise TypeError("pairing needs int or Fraction entries")
    return total


def char_pairing(vec: Sequence[int], g: PLFunction) -> int | Fraction:
    """Pairing of a characteristic vector with a PL function's vertex values;
    characteristic vectors vanish at unused points, so only carried values
    enter.  An int when the values are ints."""
    return sum(vec[i] * v for i, v in g.values.items())


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
