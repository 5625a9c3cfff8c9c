"""Exact enumeration of regular triangulations of a lattice polytope and of
the Chow and Hurwitz weight polytopes built from their characteristic vectors.

All arithmetic is exact (Python ints and fractions); the identities relating
characteristic vectors, integrals and the Donaldson functional hold as strict
equalities and double as the test oracles.
"""

from .exact import det, lattice_index
from .functionals import (
    Degrees,
    PLFunction,
    boundary_total,
    degrees,
    donaldson_f,
    donaldson_total,
    integral_boundary,
    integral_q,
    pairing,
    pl_from_lifting,
    volume_total,
)
from .lp import LinearSystem, feasible_strict
from .pipeline import Analysis, analyze
from .polytope import (
    DelzantReport,
    Facet,
    LatticePolytope,
    PointConfiguration,
    lattice_points,
)
from .triangulation import (
    Enumeration,
    EnumerationCapExceeded,
    EnumerationCaps,
    Flip,
    Lifting,
    RegularityCertificate,
    Subdivision,
    Triangulation,
    cone_system,
    enumerate_regular,
    flips,
    is_regular,
    lower_hull_subdivision,
    lower_hulls,
    placing_triangulation,
)
from .vectors import boundary_vector, gkz_vector, hurwitz_vector
from .weights import (
    CHOW,
    HURWITZ,
    WeightPolytope,
    build,
    run_support_trials,
    support_checks,
    support_min,
    verify_identities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
