"""Independent oracles: brute-force triangulations of tiny configurations,
the Fraction-tableau simplex that ``lp`` is checked against, the cone
system built by one elimination per row, the lower hull found by
exhaustive facet search and by one scalar side test at a time, the flips
found by scanning every simplex, the placing triangulation by one face
functional per boundary face, the Fraction integrals and Donaldson
functional that look up each volume, the scalar vertex pins, the identity
suite that checks one trial function at a time, the support suite that
checks one lifting at a time, and the massive-wall and vertex-index lookups
the brute force and the lower hull read.

Enumerates ALL triangulations (regular or not) by recursive wall filling:
candidate simplices are every affinely independent (n+1)-subset of the
configuration; a partial complex is grown across its lexicographically
smallest open wall, keeping only candidates that intersect every chosen
simplex properly.  Properness of a pair of simplices is decided exactly by
maximizing barycentric coordinates with the Fraction simplex below, so this
shares no machinery with the flip search it is used to cross-check, nor with
``lp``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from operator import mul
from typing import Optional, Sequence

from toricweights.exact import affine_combination, integer_row, rank, solve_linear
from toricweights.lp import LinearSystem
from toricweights.functionals import (
    PLFunction,
    boundary_total,
    char_pairing,
    donaldson_total,
    pairing,
    volume_total,
)
from toricweights.polytope import Point, PointConfiguration, extreme_point_indices, hull_facets
from toricweights.triangulation import Lifting, Subdivision, Triangulation, canonical_simplices
from toricweights.vectors import boundary_vector
from toricweights.weights import (
    _TRIAL_SCALE,
    _TRIAL_VALUES,
    IdentityFailure,
    IdentityReport,
    SupportTrialReport,
    support_checks,
)


class OracleTimeout(Exception):
    pass


class Unbounded(Exception):
    pass


def proper_pair(config: PointConfiguration, s: tuple[int, ...], t: tuple[int, ...]) -> bool:
    """Exact test that conv(s) and conv(t) intersect in a common face.

    For simplices every vertex subset is a face, so the pair is proper iff no
    common point has a barycentric coordinate supported outside the shared
    vertices.  One LP: the largest total weight a common point can put on
    the non-shared vertices.
    """
    if s == t:
        return True
    common = set(s) & set(t)
    ps = [config.points[i] for i in s]
    pt = [config.points[i] for i in t]
    n = config.dim
    # Disjoint bounding boxes: hulls cannot meet.
    for j in range(n):
        if max(p[j] for p in ps) < min(p[j] for p in pt):
            return True
        if max(p[j] for p in pt) < min(p[j] for p in ps):
            return True
    if len(common) == n:
        # Shared wall: proper iff the opposite vertices lie strictly on
        # opposite sides of the wall's hyperplane.
        wall = tuple(sorted(common))
        a = next(i for i in s if i not in common)
        b = next(i for i in t if i not in common)
        from toricweights.exact import affine_combination

        coeffs = affine_combination([config.points[i] for i in s], config.points[b])
        # b = sum c_i * v_i over s; b beyond the wall iff the coefficient of a
        # is negative.
        c_a = next(c for i, c in zip(s, coeffs) if i == a)
        return c_a < 0
    # General case: a common point with positive weight on a non-shared vertex
    # witnesses improper intersection.  Columns: the weights a on s and t,
    # then z = the weight on non-shared vertices, bounded as each side sums
    # to 1.
    rows = [[p[j] for p in ps] + [-q[j] for q in pt] + [0] for j in range(n)]
    rows.append([1] * len(ps) + [0] * len(pt) + [0])
    rows.append([0] * len(ps) + [1] * len(pt) + [0])
    rows.append([int(i not in common) for i in s + t] + [-1])
    rows = [[Fraction(x) for x in row] for row in rows]
    rhs = [Fraction(x) for x in [0] * n + [1, 1, 0]]
    best = _solve_max(rows, rhs, len(s + t), len(s + t) + 1)
    return best is None or best[0] == 0


def affinely_independent(config: PointConfiguration, indices: Sequence[int]) -> bool:
    ids = list(indices)
    base = config.points[ids[0]]
    edges = [[config.points[i][j] - base[j] for j in range(config.dim)] for i in ids[1:]]
    return rank(edges) == len(edges)


def is_massive(config: PointConfiguration, indices: Sequence[int]) -> bool:
    """Whether an (n-1)-simplex lies in some facet of the polytope."""
    ids = tuple(sorted(indices))
    if len(ids) != config.dim or not affinely_independent(config, ids):
        raise ValueError(f"is_massive expects an {config.dim - 1}-simplex ({config.dim} independent vertices)")
    return any(all(f.value(config.points[i]) == 0 for i in ids) for f in config.polytope.facets)


def vertex_indices(config: PointConfiguration) -> tuple[int, ...]:
    return tuple(config.index[v] for v in config.polytope.vertices)


def all_triangulations(config: PointConfiguration, time_budget: float | None = None) -> set:
    """Canonical forms of every triangulation of the configuration."""
    start = time.monotonic()
    n = config.dim
    npts = len(config)
    target = config.volume

    candidates = []
    for subset in combinations(range(npts), n + 1):
        try:
            config.normalized_volume(subset)
        except ValueError:
            continue
        candidates.append(subset)
    by_wall: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for cand in candidates:
        for wall in combinations(cand, n):
            by_wall.setdefault(wall, []).append(cand)
    massive_cache: dict[tuple[int, ...], bool] = {}

    def massive(wall):
        if wall not in massive_cache:
            massive_cache[wall] = is_massive(config, wall)
        return massive_cache[wall]

    proper_cache: dict[tuple, bool] = {}

    def proper(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in proper_cache:
            proper_cache[key] = proper_pair(config, a, b)
        return proper_cache[key]

    results: set = set()
    seen_states: set[frozenset] = set()

    def open_walls(chosen):
        counts: dict[tuple[int, ...], int] = {}
        for s in chosen:
            for w in combinations(s, n):
                counts[w] = counts.get(w, 0) + 1
        return {w for w, c in counts.items() if c == 1 and not massive(w)}

    def extend(chosen: frozenset, volume: int):
        if time_budget is not None and time.monotonic() - start > time_budget:
            raise OracleTimeout
        if chosen in seen_states:
            return
        seen_states.add(chosen)
        opens = open_walls(chosen)
        if not opens:
            if volume == target:
                results.add(canonical_simplices(chosen))
            return
        wall = min(opens)
        for cand in by_wall[wall]:
            if cand in chosen:
                continue
            if all(proper(cand, c) for c in chosen):
                extend(chosen | {cand}, volume + config.normalized_volume(cand))

    # Index 0 (the lexicographically smallest point) is a vertex of the
    # polytope, so every triangulation uses it.
    for seed in candidates:
        if 0 in seed:
            extend(frozenset([seed]), config.normalized_volume(seed))
    return results


# --- Rational simplex on a Fraction tableau ---------------------------------
#
# The two-phase simplex as it stood before the tableau was held as integer
# numerators over a per-row denominator: ``pivot``, ``_optimize`` and
# ``_solve_max`` below are that code verbatim (raising their own
# ``Unbounded``).  ``_feasible`` is its phase-1 half, so ``lp._feasible`` can
# be checked against it for equal points and equal verdicts;
# ``max_slack_feasible`` is the strict-cone LP that ``lp.feasible_strict``
# solved before it became phase-1 feasibility, kept as a verdict reference.


def pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """One Gauss-Jordan step in place on Fraction rows: scale row ``r`` so
    that ``rows[r][c]`` is 1, then clear column ``c`` from every other row."""
    pr = rows[r]
    pv = pr[c]
    if pv != 1:
        rows[r] = pr = [x / pv for x in pr]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, pr)]


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
            raise Unbounded
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


def _feasible(rows, rhs, nvars):
    """A point x >= 0 with rows @ x = rhs, or None: phase 1 of ``_solve_max``
    alone, the point read off the basic columns below ``nvars``."""
    m = len(rows)
    tab = []
    for i in range(m):
        r = list(rows[i]) + [rhs[i]]
        if r[-1] < 0:
            r = [-x for x in r]
        row = r[:-1] + [Fraction(0)] * m + [r[-1]]
        row[nvars + i] = Fraction(1)
        tab.append(row)
    basis = [nvars + i for i in range(m)]
    red = _optimize(tab, basis, [Fraction(0)] * nvars + [Fraction(1)] * m)
    if -red[-1] != 0:
        return None
    point = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            point[b] = tab[i][-1]
    return point


def max_slack_feasible(system: LinearSystem) -> bool:
    """Whether every row ``a·x < 0`` holds strictly at some x, as the
    two-phase LP decides it: columns u | v | s | one slack per row | cap
    slack, each row a·(u - v) + s + its slack = 0, the cap row
    s + cap slack = 1, and the largest s positive."""
    d, cons = system.dim, system.constraints
    nvars = 2 * d + 2 + len(cons)
    rows = []
    for i, c in enumerate(cons):
        row = [Fraction(0)] * nvars
        for j, a in enumerate(c):
            row[j], row[d + j] = Fraction(a), Fraction(-a)
        row[2 * d] = row[2 * d + 1 + i] = Fraction(1)
        rows.append(row)
    cap = [Fraction(0)] * nvars
    cap[2 * d] = cap[-1] = Fraction(1)
    rows.append(cap)
    best = _solve_max(rows, [Fraction(0)] * len(cons) + [Fraction(1)], 2 * d, nvars)
    return best is not None and best[0] > 0


# --- Cone system by elimination ---------------------------------------------
#
# ``cone_system`` as it stood before its rows were read from the
# configuration's memoised affine dependences: one ``affine_combination`` (an
# exact solve) per row, verbatim, so ``triangulation.cone_system`` can be
# checked against it for equal constraints.


def cone_system(tri: Triangulation) -> LinearSystem:
    """Strict inequalities on liftings cutting out the open cone of liftings
    whose lower hull induces exactly this triangulation.

    One fold inequality per interior wall (strict convexity of the induced
    piecewise-linear function across the wall), and one inequality per unused
    point (it must be lifted strictly above the hull).
    """
    config = tri.config
    npts = len(config)
    cons = []
    for wall, (s1, s2) in sorted(tri.interior_walls.items()):
        opposite = next(i for i in s2 if i not in wall)
        coeffs = affine_combination([config.points[i] for i in s1], config.points[opposite])
        if coeffs is None:
            raise RuntimeError(f"wall {wall}: point {opposite} is outside the affine hull of {s1}")
        row = [Fraction(0)] * npts
        for i, c in zip(s1, coeffs):
            row[i] += c
        row[opposite] -= 1
        cons.append(_constraint(row))
    used = set(tri.used_points)
    for k in range(npts):
        if k in used:
            continue
        for home in tri.simplices:
            coeffs = affine_combination([config.points[i] for i in home], config.points[k])
            if all(c >= 0 for c in coeffs):
                break
        else:
            raise RuntimeError(f"point {k} lies in no cell")
        row = [Fraction(0)] * npts
        for i, c in zip(home, coeffs):
            row[i] += c
        row[k] -= 1
        cons.append(_constraint(row))
    return LinearSystem(tuple(cons), npts)


def _constraint(row: Sequence[Fraction]) -> tuple[int, ...]:
    """The rational row's numerators over their least common denominator:
    a positive multiple, so the same strict inequality."""
    return tuple(integer_row(row)[0])


# --- Lower hull by facet search ---------------------------------------------
#
# ``lower_hull_subdivision`` as it stood before it read the side of each point
# from the configuration's memoised affine dependences: every facet of the
# lifted configuration from ``hull_facets``, verbatim, so
# ``triangulation.lower_hull_subdivision`` can be checked against it for
# equal subdivisions.


def lower_hull_subdivision(config: PointConfiguration, lifting: Lifting | Sequence[int]) -> Subdivision:
    """Subdivision induced by the lower hull of the lifted points (omega_k, h_k).

    Lower facets are those whose inward normal has positive last coordinate
    (equivalently, outward normal pointing down).  Cell vertex sets are the
    extreme points of each facet; points lying on a facet without being
    vertices of it are not part of the cell.
    """
    if not isinstance(lifting, Lifting):
        lifting = Lifting.normalized(lifting)
    if len(lifting.heights) != len(config):
        raise ValueError("lifting length must match the configuration")
    lifted = [p + (h,) for p, h in zip(config.points, lifting.heights)]
    n = config.dim
    try:
        facets = hull_facets(lifted)
    except ValueError:
        # Heights affine on the configuration: single trivial cell.
        cell = vertex_indices(config)
        return Subdivision((tuple(sorted(cell)),), len(cell) == n + 1)
    cells = []
    for normal, _offset, on in facets:
        if normal[-1] <= 0:
            continue
        if len(on) == n + 1:
            cells.append(tuple(sorted(on)))
        else:
            extreme = extreme_point_indices([lifted[i] for i in on])
            cells.append(tuple(sorted(on[i] for i in extreme)))
    cells.sort()
    simplicial = all(len(c) == n + 1 for c in cells)
    return Subdivision(tuple(cells), simplicial)


def lower_hull_by_side_tests(config: PointConfiguration, lifting: Lifting | Sequence[int]) -> Subdivision:
    """``triangulation.lower_hulls`` of one lifting by the scalar rule, as it
    stood before the liftings were packed on integer lanes: each side test
    of ``config.lower_hull_tests`` is one integer dot product, a sigma dies
    at its first point strictly below, and every facet of more than n + 1
    points goes to the hull-membership LP."""
    if not isinstance(lifting, Lifting):
        lifting = Lifting.normalized(lifting)
    if len(lifting.heights) != len(config):
        raise ValueError("lifting length must match the configuration")
    h = lifting.heights
    n = config.dim
    facets = set()
    for sigma, tests in config.lower_hull_tests:
        on = list(sigma)
        for k, heights_at, row in tests:
            side = sum(map(mul, row, heights_at(h)))
            if side > 0:
                break
            if side == 0:
                on.append(k)
        else:
            facets.add(tuple(sorted(on)))
    cells = []
    for on in facets:
        if len(on) == n + 1:
            cells.append(on)
        else:
            extreme = extreme_point_indices([config.points[i] + (h[i],) for i in on])
            cells.append(tuple(on[i] for i in extreme))
    cells.sort()
    return Subdivision(tuple(cells), all(len(c) == n + 1 for c in cells))


# --- Flips by scanning every simplex ----------------------------------------
#
# ``Flip``, ``flips`` and ``_try_flip`` as they stood before flips carried
# their result's key and looked cofaces up in a face index: every coface is
# found by scanning all simplices and every result is built and validated,
# verbatim, so ``triangulation.flips`` can be checked against it for equal
# flips in equal order.  ``circuit`` is ``PointConfiguration.circuit`` as it
# stood before flips read their circuits off the cone system's rows.


@dataclass(frozen=True)
class Flip:
    """A bistellar flip across a circuit.

    ``removed`` and ``inserted`` are the two parts of the circuit: the
    triangulation contains the pattern of cofaces Z minus {j} for j in
    ``removed``, joined with a common link; the flip installs the opposite
    pattern.  Applying the resulting flip at the same circuit returns the
    original triangulation.
    """

    removed: tuple[int, ...]
    inserted: tuple[int, ...]
    result: Triangulation

    @property
    def circuit(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.removed, self.inserted)


def circuit(config: PointConfiguration, indices: Sequence[int]) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The circuit (plus, minus) on the given points: the indices with
    positive and with negative coefficient in their affine dependence, or
    None when the points are affinely independent."""
    ids = tuple(sorted(indices))
    dep = config.dependence(ids)
    if dep is None:
        return None
    return tuple(i for i, c in zip(ids, dep) if c > 0), tuple(i for i, c in zip(ids, dep) if c < 0)


def flips(tri: Triangulation) -> list[Flip]:
    """All supported bistellar flips of the triangulation.

    Candidate circuits are those on a simplex plus one point outside it.
    They include every wall circuit (two adjacent simplices are one of them
    plus the other's opposite point) and the flips that insert an unused
    point.
    """
    config = tri.config
    candidates: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    npts = len(config)
    for s in tri.simplices:
        inside = set(s)
        for p in range(npts):
            if p in inside:
                continue
            z = circuit(config, s + (p,))
            if z is not None:
                candidates.add(z)

    out = []
    for plus, minus in sorted(candidates):
        for removed, inserted in ((plus, minus), (minus, plus)):
            result = _try_flip(tri, removed, inserted)
            if result is not None:
                out.append(Flip(removed, inserted, result))
    return out


def _try_flip(tri: Triangulation, removed: tuple[int, ...], inserted: tuple[int, ...]) -> Optional[Triangulation]:
    """Apply the flip at the circuit (removed | inserted) if the triangulation
    supports it: all cofaces on the removed side must appear with one common
    link."""
    circuit = set(removed) | set(inserted)
    link: Optional[frozenset[frozenset[int]]] = None
    to_remove: set[tuple[int, ...]] = set()
    for j in removed:
        coface = circuit - {j}
        owners = [s for s in tri.simplices if coface <= set(s)]
        if not owners:
            return None
        this_link = frozenset(frozenset(set(s) - coface) for s in owners)
        if link is None:
            link = this_link
        elif link != this_link:
            return None
        to_remove.update(owners)
    if link is None:
        raise RuntimeError("flip has an empty removed side")
    new_cells = [s for s in tri.simplices if s not in to_remove]
    for k in inserted:
        coface = circuit - {k}
        for l in link:
            new_cells.append(tuple(sorted(coface | l)))
    return Triangulation(tri.config, new_cells)


# --- Placing by face functionals --------------------------------------------
#
# ``placing_cells`` as it stood before it read every decision from the new
# point's barycentric coordinates on the current cells (now the signs of the
# configuration's cone rows): the affine hull is
# tracked by an affine basis, and visibility of each boundary face is one
# more exact solve for the functional vanishing on it, verbatim, so
# ``polytope.placing_cells`` can be checked against it for equal cells.


def placing_cells(points: Sequence[Point], order: Sequence[int]) -> list[tuple[int, ...]]:
    """Cells (index tuples) of the placing triangulation of ``points`` built
    by inserting the points in ``order``.

    A point inside the current hull is skipped; a point outside it is coned
    over the boundary faces it strictly sees; a point outside the current
    affine hull is coned over every cell.
    """
    pts = [tuple(p) for p in points]
    simplices: list[tuple[int, ...]] = []
    basis: list[int] = []  # affine basis of the inserted points
    for idx in order:
        p = pts[idx]
        if not simplices:
            simplices = [(idx,)]
            basis = [idx]
            continue
        in_hull = affine_combination([pts[i] for i in basis], p) is not None
        if not in_hull:
            simplices = [tuple(sorted(s + (idx,))) for s in simplices]
            basis.append(idx)
            continue
        inside = False
        for s in simplices:
            coeffs = affine_combination([pts[i] for i in s], p)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                inside = True
                break
        if inside:
            continue
        # Lateral extension: cone over boundary faces visible from p.
        counts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for s in simplices:
            for f in combinations(s, len(s) - 1):
                counts.setdefault(f, []).append(s)
        new = []
        for face, owners in counts.items():
            if len(owners) != 1:
                continue
            opposite = next(i for i in owners[0] if i not in face)
            phi = _face_functional([pts[i] for i in face], pts[opposite])
            if _evaluate_affine(phi, p) < 0:
                new.append(tuple(sorted(face + (idx,))))
        simplices.extend(new)
    return sorted(simplices)


def _face_functional(face_points, opposite_point):
    """Affine functional vanishing on the face and equal to 1 at the opposite
    vertex (well-defined on the current affine hull)."""
    d = len(opposite_point)
    matrix = [list(q) + [1] for q in face_points]
    matrix.append(list(opposite_point) + [1])
    rhs = [0] * len(face_points) + [1]
    sol = solve_linear(matrix, rhs)
    if sol is None:
        raise RuntimeError("face functional has no solution")
    return sol


def _evaluate_affine(phi, point) -> Fraction:
    return sum(c * x for c, x in zip(phi, point)) + phi[-1]


# --- Fraction integrals with a volume lookup per cell -----------------------
#
# ``integral_q``, ``integral_boundary``, ``donaldson_f`` and
# ``donaldson_from_integrals`` as they stood before the functionals became
# divisions of integer totals over each triangulation's volume tables: every
# cell and massive wall volume is looked up per function.  Verbatim, except
# that the polytope's volumes are read on the configuration.


def integral_q(g: PLFunction) -> Fraction:
    """Exact integral of g over the polytope (Lebesgue measure).  The sum of
    vol * (sum of vertex values) is divided by (n+1)! once, so integer
    values are summed in integers."""
    config = g.triangulation.config
    total = sum(config.normalized_volume(cell) * sum(g.values[i] for i in cell) for cell in g.triangulation.simplices)
    return Fraction(total, factorial(config.dim + 1))


def integral_boundary(g: PLFunction) -> Fraction:
    """Exact integral of g over the boundary, against the lattice measure of
    each facet."""
    config = g.triangulation.config
    walls = g.triangulation.massive_walls
    total = sum(config.normalized_volume(wall) * sum(g.values[i] for i in wall) for wall in walls)
    return Fraction(total, factorial(config.dim))


def donaldson_f(g: PLFunction) -> Fraction:
    return donaldson_from_integrals(g.triangulation.config, integral_boundary(g), integral_q(g))


def donaldson_from_integrals(
    config: PointConfiguration, boundary_integral: Fraction, volume_integral: Fraction
) -> Fraction:
    """The Donaldson functional of a function with the given integrals over
    the boundary and over the polytope of ``config``."""
    return boundary_integral - config.dim * Fraction(config.boundary_volume, config.volume) * volume_integral


def pins(vectors: Sequence[Sequence[int]], i: int, lam: Sequence[int]) -> bool:
    """Whether <vectors[i], lam> < <h, lam> for every other vector h, in
    integers, one scalar pairing per vector.  The unique minimiser of a
    linear functional over a finite set is a vertex of its convex hull."""
    values = [sum(map(mul, v, lam)) for v in vectors]
    return all(val > values[i] for j, val in enumerate(values) if j != i)


def first_pins(vectors: Sequence[Sequence[int]], candidates: Sequence[Sequence[Lifting]]) -> list[Optional[Lifting]]:
    """For each vector, the first lifting in its candidates that ``pins``
    it, or None."""
    return [next((lam for lam in cands if pins(vectors, i, lam.heights)), None) for i, cands in enumerate(candidates)]


def certified_vertices(
    vectors: Sequence[Sequence[int]], candidates: Sequence[Sequence[Lifting]]
) -> list[tuple[int, Optional[Lifting]]]:
    """``weights.certified_vertices`` by the scalar rule: the first pinning
    candidate, else the hull-membership LP of ``extreme_point_indices``."""
    certs = first_pins(vectors, candidates)
    decided = set(extreme_point_indices(vectors, [i for i, c in enumerate(certs) if c is None]))
    return [(i, c) for i, c in enumerate(certs) if c is not None or i in decided]


def verify_identities(analysis, trials: int = 20, seed: int = 0) -> IdentityReport:
    """``weights.verify_identities`` by the scalar rule, as it stood before
    the trials were packed on integer lanes: one ``PLFunction`` per
    (triangulation, trial), each with its own integrals and pairings, its
    values drawn by one ``choices`` call per trial, which draws what the
    suite's one call per triangulation draws, in the same order."""
    config = analysis.config
    n = config.dim
    deg = analysis.degrees
    rng = random.Random(seed)
    checks = 0
    failures = []

    def check(tid, trial, name, lhs, rhs):
        nonlocal checks
        checks += 1
        if lhs != rhs:
            if trial is not None:  # the values of _TRIAL_SCALE * g, in units of g
                lhs, rhs = Fraction(lhs, _TRIAL_SCALE), Fraction(rhs, _TRIAL_SCALE)
            failures.append(IdentityFailure(tid, trial, name, lhs, rhs))

    affine_reference: Optional[list[tuple[int, int]]] = None
    affine_fns = [[1] * len(config)] + [[p[j] for p in config.points] for j in range(n)]
    for entry in analysis.enumeration:
        tri = entry.triangulation
        tid = entry.id
        gkz, hur = analysis.chow.vectors[tid], analysis.hurwitz.vectors[tid]
        bd = boundary_vector(tri)
        check(tid, None, "gkz sum", sum(gkz), (n + 1) * config.volume)
        check(tid, None, "boundary sum", sum(bd), n * config.boundary_volume)
        check(tid, None, "hurwitz sum", sum(hur), n * deg.hurwitz)
        affine_values = [(pairing(gkz, a), pairing(hur, a)) for a in affine_fns]
        if affine_reference is None:
            affine_reference = affine_values
        else:
            check(tid, None, "affine pairing T-independence", affine_values, affine_reference)
        mixed = tuple(n * deg.hurwitz * e - (n + 1) * deg.chow * x for e, x in zip(gkz, hur))
        for trial in range(trials):
            g = PLFunction(tri, dict(zip(tri.used_points, rng.choices(_TRIAL_VALUES, k=len(tri.used_points)))))
            volume = volume_total(g)
            boundary = boundary_total(g)
            check(tid, trial, "volume pairing", char_pairing(gkz, g), volume)
            check(tid, trial, "boundary pairing", char_pairing(bd, g), boundary)
            check(tid, trial, "donaldson pairing", donaldson_total(config, boundary, volume), char_pairing(mixed, g))
    return IdentityReport(seed, trials, len(analysis.enumeration), checks, failures)


def run_support_trials(analysis, count: int = 20, seed: int = 0) -> SupportTrialReport:
    """``weights.run_support_trials`` one lifting at a time, as it stood
    before the liftings were batched: each drawn by its own ``choices``
    call, which draws what the suite's one call per batch draws, its lower
    hull taken by the scalar side tests, and run through
    ``support_checks``, which takes both support minima."""
    rng = random.Random(seed)
    n1 = len(analysis.config)
    applicable = attempts = 0
    failures = []
    while applicable < count and attempts < 200 * count:
        attempts += 1
        lam = Lifting.normalized(rng.choices(range(-30, 1), k=n1))
        checks = support_checks(analysis, lam, lower_hull_by_side_tests(analysis.config, lam))
        if checks is None:
            continue
        applicable += 1
        failures += [chk for chk in checks if chk.status != "pass"]
    if applicable < count:
        raise RuntimeError(
            f"only {applicable} of {count} liftings had simplicial lower hulls after {attempts} attempts"
        )
    return SupportTrialReport(seed, count, applicable, attempts, failures)
