"""Internal consistency checks raise RuntimeError and constructor checks
raise ValueError, so they survive ``python -O`` (which strips ``assert``);
the identity suite reports its failures there too."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import toricweights

SCRIPT = r"""
import json
from fractions import Fraction

from toricweights import lp, triangulation, weights
from toricweights.pipeline import analyze
from toricweights.lp import LinearSystem
from toricweights.polytope import LatticePolytope, lattice_points
from toricweights.triangulation import Lifting, Triangulation, placing_triangulation

def message(fn, *args, error=RuntimeError):
    try:
        fn(*args)
    except error as e:
        return str(e)
    return None

# (0,0),(0,1),(0,2),(1,0),(1,1),(2,0): the first three points are collinear.
config = lattice_points(LatticePolytope.from_vertices([[0, 0], [2, 0], [0, 2]]))
# Built around validation, which would refuse it.
broken = object.__new__(Triangulation)
broken.config, broken.simplices = config, ((0, 1, 2), (0, 1, 3))
# Folded cells, which the cone system refuses inside the constructor: the
# unit square's one cell twice, and the four triangles on the left unit
# square of [0,2] x [0,1] (its points 0-3), which cover it twice.
square = lattice_points(LatticePolytope.from_vertices([[0, 0], [0, 1], [1, 0], [1, 1]]))
strip = lattice_points(LatticePolytope.from_vertices([[0, 0], [2, 0], [0, 1], [2, 1]]))
# A witness of the placing triangulation, and its first flip wall.
placing = placing_triangulation(config)
witness = triangulation.is_regular(placing).witness
flip = triangulation.flips(placing)[0]
beyond = triangulation.cone_system(Triangulation(config, flip.simplices))
# The double simplex with one entry of one GKZ vector off by one: the packed
# identity check fails and the rerun names the failing trials.
analysis = analyze([[0, 0], [2, 0], [0, 2]])
gkz = list(analysis.chow.vectors)
gkz[3] = (gkz[3][0] + 1,) + gkz[3][1:]
faulty = weights.verify_identities(analysis._replace(chow=analysis.chow._replace(vectors=tuple(gkz))), 2, 0)
triangulation.gcd = lambda *heights: -1  # a sign error in the normalisation
lp._feasible = lambda rows, dens, nvars: [Fraction(1)] + [Fraction(0)] * (nvars - 1)  # (1, 0) breaks x - y < 0
print(json.dumps({
    "debug": __debug__,
    "cone_system": message(triangulation.cone_system, broken),
    "repeated cell": message(Triangulation, square, [(0, 1, 2), (0, 1, 2)], error=ValueError),
    "same side": message(Triangulation, strip, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], error=ValueError),
    "try_flip": message(triangulation._try_flip, (), (), (0,)),
    "feasible_strict": message(lp.feasible_strict, LinearSystem(((1, -1),), 2)),
    "carry_witness": message(triangulation.carry_witness, witness, flip.row, beyond),
    "empty lifting": message(Lifting, (), error=ValueError),
    "bool height": message(Lifting, (0, True), error=ValueError),
    "unnormalized lifting": message(Lifting, (1, 0), error=ValueError),
    "short row": message(LinearSystem, ((1,),), 2, error=ValueError),
    "row sum": message(LinearSystem, ((1, 0),), 2, error=ValueError),
    "float row": message(LinearSystem, ((0.5,),), 1, error=TypeError),
    "ragged vectors": message(weights.certified_vertices, [(0, 1), (1,)], [[], []], error=ValueError),
    "short lifting": message(triangulation.lower_hulls, config, [(0,) * len(config), (0, -1)], error=ValueError),
    "volume index": message(config.normalized_volume, (-1, 0), error=ValueError),
    "cone row of a vertex": message(config.cone_row, (0,), 0, error=ValueError),
    "negative trials": message(weights.verify_identities, analysis, -1, error=ValueError),
    "negative count": message(weights.run_support_trials, analysis, -1, error=ValueError),
    "identity failures": [[f.triangulation_id, f.trial, f.name] for f in faulty.failures],
}))
"""


def test_validation_raises_under_optimize():
    src = str(Path(toricweights.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    result = json.loads(proc.stdout)
    assert result.pop("debug") is False
    assert result["repeated cell"] == "cell (0, 1, 2) is repeated"
    assert result["same side"] == "cells (0, 1, 2) and (0, 1, 3) lie on the same side of their wall (0, 1)"
    assert result["feasible_strict"] == "simplex returned an invalid witness"
    assert result["carry_witness"] == "carried witness violates the neighbour's cone system"
    assert result["empty lifting"] == "empty lifting"
    assert result["bool height"] == "lifting heights must be integers"
    assert result["unnormalized lifting"] == "lifting must be normalized to max height 0"
    assert result["short row"] == "constraints must have 2 coefficients"
    assert result["row sum"] == "constraint rows must sum to 0"
    assert result["float row"] == "LinearSystem needs int entries"
    assert result["ragged vectors"] == "certified_vertices needs one candidate list per vector, all of one length"
    assert result["short lifting"] == "lifting length must match the configuration"
    assert result["volume index"] == "simplex (-1, 0) needs distinct point indices in range(6)"
    assert result["cone row of a vertex"] == "point 0 is a vertex of the cell (0,)"
    assert result["negative trials"] == "trials must be nonnegative, got -1"
    assert result["negative count"] == "count must be nonnegative, got -1"
    assert result["identity failures"] == [
        [3, None, "gkz sum"],
        [3, None, "affine pairing T-independence"],
        [3, 0, "volume pairing"],
        [3, 0, "donaldson pairing"],
        [3, 1, "volume pairing"],
        [3, 1, "donaldson pairing"],
    ]
    assert all(result.values()), result


def test_package_has_no_assert():
    # Guards the property above: no check in the package may be an assert.
    sources = sorted((Path(__file__).parent.parent / "src" / "toricweights").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"
