"""End-to-end driver: polytope -> lattice points -> enumeration -> polytopes."""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .functionals import Degrees, degrees
from .polytope import LatticePolytope, PointConfiguration, lattice_points
from .triangulation import Enumeration, EnumerationCaps, enumerate_regular
from .weights import CHOW, HURWITZ, WeightPolytope, build


class Analysis(NamedTuple):
    polytope: LatticePolytope
    config: PointConfiguration
    enumeration: Enumeration
    degrees: Degrees
    chow: WeightPolytope
    hurwitz: WeightPolytope

    @property
    def warnings(self) -> list[str]:
        return polytope_warnings(self.config)


def polytope_warnings(config: PointConfiguration) -> list[str]:
    """The warnings every command prints about its input: the vertices where
    the polytope's Delzant report finds smoothness failing, and a degree
    (``config.volume``) below 2."""
    out = []
    delzant = config.polytope.delzant
    if not delzant.ok:
        bad = [r.vertex for r in delzant.vertices if not r.ok]
        out.append(f"polytope is not Delzant (smoothness fails at vertices {bad})")
    if config.volume < 2:
        out.append("degree (normalized volume) is below 2; the weight-polytope theory assumes degree >= 2")
    return out


def analyze(
    vertices: Sequence[Sequence[int]],
    caps: Optional[EnumerationCaps] = None,
    order: Optional[Sequence[int]] = None,
) -> Analysis:
    q = LatticePolytope.from_vertices(vertices)
    config = lattice_points(q)
    enumeration = enumerate_regular(config, caps=caps, order=order)
    return Analysis(
        polytope=q,
        config=config,
        enumeration=enumeration,
        degrees=degrees(config),
        chow=build(CHOW, enumeration),
        hurwitz=build(HURWITZ, enumeration),
    )
