"""Characteristic vectors of a triangulation, as tuples of ints indexed like
the configuration's points.

The GKZ vector sums, per point, the normalized volumes of the incident
n-simplices.  The boundary vector does the same over the massive
(n-1)-simplices (those lying in a facet of the polytope).  The Hurwitz vector
is n * gkz - boundary, entrywise.
"""

from __future__ import annotations

from .triangulation import Triangulation


def gkz_vector(tri: Triangulation) -> tuple[int, ...]:
    entries = [0] * len(tri.config)
    for s, vol in tri.cell_volumes:
        for i in s:
            entries[i] += vol
    return tuple(entries)


def boundary_vector(tri: Triangulation) -> tuple[int, ...]:
    entries = [0] * len(tri.config)
    for wall, vol in tri.massive_wall_volumes:
        for i in wall:
            entries[i] += vol
    return tuple(entries)


def hurwitz_vector(tri: Triangulation) -> tuple[int, ...]:
    n = tri.config.dim
    return tuple(n * g - b for g, b in zip(gkz_vector(tri), boundary_vector(tri)))
