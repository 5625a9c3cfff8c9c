"""Internal consistency checks raise RuntimeError and constructor checks
raise ValueError, so they survive ``python -O`` (which strips ``assert``)."""

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

from toricweights import lp, triangulation
from toricweights.lp import Constraint, LinearSystem
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
# A witness of the placing triangulation, and its first flip wall.
placing = placing_triangulation(config)
system = triangulation.cone_system(placing)
witness = triangulation.is_regular(placing, system).witness
flip = triangulation.flips(placing, system)[0]
beyond = triangulation.cone_system(Triangulation(config, flip.simplices))
triangulation.gcd = lambda *heights: -1  # a sign error in the normalisation
lp._feasible = lambda rows, dens, nvars: [Fraction(1)] + [Fraction(0)] * (nvars - 1)  # x = 1 breaks x < 0
print(json.dumps({
    "debug": __debug__,
    "cone_system": message(triangulation.cone_system, broken),
    "try_flip": message(triangulation._try_flip, placing_triangulation(config).simplices, {}, (), (0,)),
    "feasible_strict": message(lp.feasible_strict, LinearSystem((Constraint((1,), 1),), 1)),
    "carry_witness": message(triangulation.carry_witness, witness, flip.row, beyond),
    "empty lifting": message(Lifting, (), error=ValueError),
    "bool height": message(Lifting, (0, True), error=ValueError),
    "unnormalized lifting": message(Lifting, (1, 0), error=ValueError),
    "short row": message(LinearSystem, (Constraint((1,), 1),), 2, error=ValueError),
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
    assert result["feasible_strict"] == "simplex returned an invalid witness"
    assert result["carry_witness"] == "carried witness violates the neighbour's cone system"
    assert result["empty lifting"] == "empty lifting"
    assert result["bool height"] == "lifting heights must be integers"
    assert result["unnormalized lifting"] == "lifting must be normalized to max height 0"
    assert result["short row"] == "constraints must have 2 coefficients"
    assert all(result.values()), result


def test_package_has_no_assert():
    # Guards the property above: no check in the package may be an assert.
    sources = sorted((Path(__file__).parent.parent / "src" / "toricweights").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts at lines {lines}"
