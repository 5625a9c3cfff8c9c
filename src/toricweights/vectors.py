"""Characteristic vectors of a triangulation.

The GKZ vector sums, per point, the normalized volumes of the incident
n-simplices.  The boundary vector does the same over the massive
(n-1)-simplices (those lying in a facet of the polytope).  The Hurwitz vector
is n * gkz - boundary, entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .triangulation import Triangulation

GKZ = "gkz"
BOUNDARY = "boundary"
HURWITZ = "hurwitz"


@dataclass(frozen=True)
class CharVector:
    kind: str
    entries: tuple[int, ...]

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def total(self) -> int:
        return sum(self.entries)


def gkz_vector(tri: Triangulation) -> CharVector:
    entries = [0] * len(tri.config)
    for s, vol in tri.cell_volumes:
        for i in s:
            entries[i] += vol
    return CharVector(GKZ, tuple(entries))


def boundary_vector(tri: Triangulation) -> CharVector:
    entries = [0] * len(tri.config)
    for wall, vol in tri.massive_wall_volumes:
        for i in wall:
            entries[i] += vol
    return CharVector(BOUNDARY, tuple(entries))


def hurwitz_vector(tri: Triangulation) -> CharVector:
    """n * gkz - boundary, summed in one pass over both volume tables."""
    n = tri.config.dim
    entries = [0] * len(tri.config)
    for s, vol in tri.cell_volumes:
        for i in s:
            entries[i] += n * vol
    for wall, vol in tri.massive_wall_volumes:
        for i in wall:
            entries[i] -= vol
    return CharVector(HURWITZ, tuple(entries))
