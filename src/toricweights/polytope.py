"""Lattice polytopes (facets, lattice points, smoothness) and their point
configurations (dependences, cone rows, placings, normalized volumes).

Conventions.  A facet is stored as a primitive inward normal u and an integer
offset c, the facet lying on <x,u> + c == 0 and the polytope in
<x,u> + c >= 0.  Volumes are lattice-normalized: the standard simplex of the
affine lattice spanned by a simplex has volume 1, so an n-dimensional volume
is n! times the Euclidean one.  A single point has volume 1.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .exact import (
    affine_dependence,
    check_ints,
    det,
    lattice_index,
    primitive,
    rank,
)
from .lp import nonnegative_feasible

Point = tuple[int, ...]
# (k, getter of the heights at sigma + k, cone row of (sigma, k) on sigma + k)
SideTest = tuple[int, Callable, tuple[int, ...]]


class Facet(NamedTuple):
    normal: tuple[int, ...]
    offset: int

    def value(self, point: Sequence[int]) -> int:
        check_ints([point], "Facet.value")
        return sum(u * x for u, x in zip(self.normal, point)) + self.offset


def _hyperplane_normal(points: Sequence[Point]) -> Optional[tuple[int, ...]]:
    """Integer normal of the hyperplane through d points in Z^d (generalized
    cross product of the edge vectors), or None when they do not span one."""
    d = len(points[0])
    edges = [[p[j] - points[0][j] for j in range(d)] for p in points[1:]]
    normal = []
    for j in range(d):
        minor = [[e[c] for c in range(d) if c != j] for e in edges]
        normal.append((-1) ** j * det(minor))
    if all(x == 0 for x in normal):
        return None
    return tuple(normal)


def hull_facets(points: Sequence[Point]) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Facets of conv(points) for a full-dimensional configuration.

    Exhaustive search over d-subsets spanning a hyperplane, keeping those with
    every point on one side.  Returns (inward primitive normal, offset,
    indices of points on the facet), sorted.
    """
    pts = [tuple(p) for p in points]
    check_ints(pts, "hull_facets")
    d = len(pts[0])
    if rank([[p[j] - pts[0][j] for j in range(d)] for p in pts[1:]]) < d:
        raise ValueError("point set is not full-dimensional")
    seen: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for subset in combinations(range(len(pts)), d):
        normal = _hyperplane_normal([pts[i] for i in subset])
        if normal is None:
            continue
        base = sum(u * x for u, x in zip(normal, pts[subset[0]]))
        values = [sum(u * x for u, x in zip(normal, p)) - base for p in pts]
        if all(v >= 0 for v in values):
            pass
        elif all(v <= 0 for v in values):
            normal = tuple(-u for u in normal)
            values = [-v for v in values]
        else:
            continue
        normal = primitive(normal)
        offset = -sum(u * x for u, x in zip(normal, pts[subset[0]]))
        key = (normal, offset)
        if key not in seen:
            seen[key] = tuple(i for i, v in enumerate(values) if v == 0)
    return sorted((n, c, on) for (n, c), on in seen.items())


def extreme_point_indices(
    points: Sequence[Sequence[int]], indices: Optional[Sequence[int]] = None
) -> list[int]:
    """Indices of the points that are vertices of the convex hull, tested
    among ``indices`` (default: all points) in the order given.

    Per-point exact LP: a point is extreme iff it is not a convex combination
    of the others.  Repeated points raise ``ValueError``: each copy would be
    a combination of the other, and the vertex would be lost.
    """
    pts = [tuple(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("extreme_point_indices needs distinct points")
    out = []
    for i in range(len(pts)) if indices is None else indices:
        others = [q for j, q in enumerate(pts) if j != i]
        if others:
            rows = [[q[j] for q in others] for j in range(len(pts[i]))]
            rows.append([1] * len(others))
            if nonnegative_feasible(rows, [*pts[i], 1]) is not None:
                continue
        out.append(i)
    return out


def placing_cells(config: PointConfiguration, order: Sequence[int]) -> list[tuple[int, ...]]:
    """Cells (sorted index tuples) of the placing triangulation of the
    configuration's points at ``order``, inserted in that order; ``order``
    may name a subset, such as the polytope's vertices or a facet's.

    Each decision reads the configuration's memoised dependences.  Every
    cell spans the current affine hull, so a point p with no dependence on
    the first cell lies outside that hull and is coned over every cell.
    Otherwise the signs of ``config.cone_row(s, p)`` on a cell s are the
    signs of p's barycentric coordinates there.  A point with none negative
    on some cell lies in the current hull and is skipped.  Any other point
    is coned over the boundary faces it strictly sees: the boundary face
    s minus {o} of its one cell s exactly when p's coordinate at o on s is
    negative.
    """
    simplices: list[tuple[int, ...]] = []
    for p in order:
        if not simplices:
            simplices = [(p,)]
            continue
        # Each face of a cell, with p's scaled coordinate at the opposite vertex per owner.
        faces: dict[tuple[int, ...], list[int]] = {}
        for s in simplices:
            if config.dependence(tuple(sorted(s + (p,)))) is None:
                simplices = [tuple(sorted(c + (p,))) for c in simplices]
                break
            row = config.cone_row(s, p)
            if all(row[i] >= 0 for i in s):
                break
            for k, i in enumerate(s):
                faces.setdefault(s[:k] + s[k + 1 :], []).append(row[i])
        else:
            simplices.extend(tuple(sorted(f + (p,))) for f, cs in faces.items() if len(cs) == 1 and cs[0] < 0)
    return sorted(simplices)


class DelzantVertexReport(NamedTuple):
    vertex: Point
    edge_directions: tuple[tuple[int, ...], ...]
    determinant: Optional[int]
    ok: bool


class DelzantReport(NamedTuple):
    ok: bool
    vertices: tuple[DelzantVertexReport, ...]


class LatticePolytope:
    """Full-dimensional lattice polytope with exact V- and H-representations:
    the vertices are the extreme points among the given ones, sorted, and the
    facets are derived from them.  ``from_vertices`` checks its input first."""

    def __init__(self, vertices: Sequence[Sequence[int]]):
        pts = sorted({tuple(v) for v in vertices})
        self.vertices: tuple[Point, ...] = tuple(pts[i] for i in extreme_point_indices(pts))
        self.facets: tuple[Facet, ...] = tuple(Facet(n, c) for n, c, _ in hull_facets(self.vertices))
        self.dim: int = len(self.vertices[0])

    @classmethod
    def from_vertices(cls, vertices: Sequence[Sequence[int]]) -> "LatticePolytope":
        pts = [tuple(v) for v in vertices]
        if any(type(x) is not int for p in pts for x in p):
            raise ValueError("vertex coordinates must be integers")
        if not pts:
            raise ValueError("no vertices given")
        d = len(pts[0])
        if d == 0 or any(len(p) != d for p in pts):
            raise ValueError("vertices must share one positive dimension")
        if len(set(pts)) <= d or rank([[p[j] - pts[0][j] for j in range(d)] for p in pts[1:]]) < d:
            raise ValueError(
                f"polytope is not full-dimensional in Z^{d}; give >= {d + 1} affinely spanning vertices"
            )
        return cls(pts)

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)}, facets={len(self.facets)})"

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def contains(self, point: Sequence[int]) -> bool:
        return all(f.value(point) >= 0 for f in self.facets)

    def facet_vertices(self, facet: Facet) -> tuple[Point, ...]:
        return tuple(v for v in self.vertices if facet.value(v) == 0)

    @cached_property
    def delzant(self) -> DelzantReport:
        """Smoothness check: at every vertex exactly n edges meet and their
        primitive directions have determinant +-1."""
        reports = []
        ok = True
        for v in self.vertices:
            dirs = []
            for w in self.vertices:
                if w != v and self._is_edge(v, w):
                    dirs.append(primitive(tuple(b - a for a, b in zip(v, w))))
            d: Optional[int] = None
            good = len(dirs) == self.dim
            if good:
                d = det(dirs)
                good = d in (1, -1)
            ok = ok and good
            reports.append(DelzantVertexReport(v, tuple(sorted(dirs)), d, good))
        return DelzantReport(ok, tuple(reports))

    def _is_edge(self, v: Point, w: Point) -> bool:
        common = [f for f in self.facets if f.value(v) == 0 and f.value(w) == 0]
        on_all = [u for u in self.vertices if all(f.value(u) == 0 for f in common)]
        return set(on_all) == {v, w}


class PointConfiguration:
    """The lattice points of a polytope, in lexicographic order.

    All index-based operations elsewhere in the package refer to this order.
    It owns the exact facts about its points, each computed once and
    memoised: dependences, cone rows and their circuit sides, simplex
    volumes, and the polytope's ``volume`` and ``boundary_volume`` (summed
    over placings).
    """

    def __init__(self, polytope: LatticePolytope, points: Sequence[Point]):
        self.polytope = polytope
        self.points: tuple[Point, ...] = tuple(tuple(p) for p in points)
        self.index: dict[Point, int] = {p: i for i, p in enumerate(self.points)}
        self._volumes: dict[tuple[int, ...], int] = {}
        self._dependences: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {}
        self._cone_rows: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
        self._sides: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._in_facet: dict[tuple[int, ...], bool] = {}

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, PointConfiguration) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PointConfiguration({len(self.points)} points, dim {self.dim})"

    def normalized_volume(self, indices: Sequence[int]) -> int:
        """Lattice-normalized volume of the simplex on the given points, taken
        in the affine lattice of its span; 1 for a single point.  Raises on
        affinely dependent vertices."""
        if type(indices) is tuple and (vol := self._volumes.get(indices)) is not None:
            return vol  # memoised keys are sorted, without repeats
        key = tuple(sorted(indices))
        if len(set(key)) != len(key):
            raise ValueError("repeated vertex in simplex")
        vol = self._volumes.get(key)
        if vol is None:
            base = self.points[key[0]]
            edges = [[self.points[i][j] - base[j] for j in range(self.dim)] for i in key[1:]]
            try:
                vol = lattice_index(edges)
            except ValueError:
                raise ValueError(f"simplex {key} has affinely dependent vertices") from None
            self._volumes[key] = vol
        return vol

    @cached_property
    def volume(self) -> int:
        """Lattice-normalized volume of the polytope: the sum of
        ``normalized_volume`` over a placing of its vertices."""
        return self._placed_volume(self.polytope.vertices)

    @cached_property
    def boundary_volume(self) -> int:
        """Sum of the lattice-normalized volumes of the polytope's facets,
        each over a placing of the facet's vertices."""
        q = self.polytope
        return sum(self._placed_volume(q.facet_vertices(f)) for f in q.facets)

    def _placed_volume(self, vertices: Sequence[Point]) -> int:
        ids = [self.index.get(v) for v in vertices]
        if None in ids:
            raise ValueError(f"the configuration misses the polytope vertex {vertices[ids.index(None)]}")
        return sum(map(self.normalized_volume, placing_cells(self, ids)))

    def _lies_in_facet(self, ids: tuple[int, ...]) -> bool:
        """Whether the points at the sorted indices ``ids`` all lie on one
        facet of the polytope; memoised, with no independence check."""
        if ids not in self._in_facet:
            pts = [self.points[i] for i in ids]
            self._in_facet[ids] = any(all(f.value(p) == 0 for p in pts) for f in self.polytope.facets)
        return self._in_facet[ids]

    def dependence(self, ids: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """The affine dependence of the points at the sorted indices ``ids``
        (coefficients aligned with ``ids``, as ``exact.affine_dependence``
        gives them), or None when they are affinely independent.  Memoised:
        dependences are a property of the configuration, shared by every
        triangulation's regularity inequalities and flip circuits."""
        if ids not in self._dependences:
            self._dependences[ids] = affine_dependence([self.points[i] for i in ids])
        return self._dependences[ids]

    def cone_row(self, cell: tuple[int, ...], k: int) -> tuple[int, ...]:
        """The row a, indexed like the points, with a·h < 0 exactly when the
        heights h lift point ``k`` strictly above their affine interpolation
        on ``cell``: the primitive affine dependence of ``cell`` and ``k``,
        signed negative at k (a positive multiple of k's barycentric
        coordinates on the cell minus 1 at k), and 0 elsewhere.  The cell
        may be lower-dimensional, with k in its affine hull, as in a placing
        of a facet.  Memoised by ``(cell, k)``, like ``dependence``: the cone
        systems of every triangulation holding ``cell``, their flips, the
        lower-hull side tests and the placings read the same row."""
        row = self._cone_rows.get((cell, k))
        if row is None:
            ids = tuple(sorted(cell + (k,)))
            dep = self.dependence(ids)
            at_k = 0 if dep is None else dep[ids.index(k)]
            if at_k == 0:
                raise RuntimeError(f"point {k} has no barycentric coordinates on the cell {cell}")
            entries = [0] * len(self)
            for i, c in zip(ids, dep):
                entries[i] = -c if at_k > 0 else c
            row = self._cone_rows[cell, k] = tuple(entries)
        return row

    def circuit_sides(self, row: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The indices where the cone row ``row`` is negative and where it is
        positive: the two parts of the circuit it was read from.  Memoised
        by row, since many cells and triangulations share one circuit."""
        sides = self._sides.get(row)
        if sides is None:
            negative = tuple(i for i, c in enumerate(row) if c < 0)
            sides = self._sides[row] = (negative, tuple(i for i, c in enumerate(row) if c > 0))
        return sides

    @cached_property
    def lower_hull_tests(self) -> tuple[tuple[tuple[int, ...], tuple[SideTest, ...]], ...]:
        """(sigma, side tests) for each affinely independent (n+1)-subset
        sigma, in lexicographic order.  The side test of each other point k
        is (k, getter of the heights at sigma + k, the entries of
        ``cone_row(sigma, k)`` on sigma + k), in the order of k.  Built on
        first use from the memoised dependences, for every lifting's lower
        hull."""
        table = []
        for sigma in combinations(range(len(self)), self.dim + 1):
            if self.dependence(sigma) is not None:
                continue
            tests = []
            for k in range(len(self)):
                if k in sigma:
                    continue
                on = itemgetter(*sorted(sigma + (k,)))
                tests.append((k, on, on(self.cone_row(sigma, k))))
            table.append((sigma, tuple(tests)))
        return tuple(table)

    @cached_property
    def lower_hull_norm(self) -> int:
        """The largest l1 norm of a side test row of ``lower_hull_tests``,
        or 1 when there is none: heights at most top in size give sides at
        most top times this in size."""
        rows = (row for _, tests in self.lower_hull_tests for _, _, row in tests)
        return max((sum(map(abs, row)) for row in rows), default=1)


def lattice_points(polytope: LatticePolytope) -> PointConfiguration:
    """All lattice points of the polytope (boundary included), lexicographic."""
    los = [min(v[j] for v in polytope.vertices) for j in range(polytope.dim)]
    his = [max(v[j] for v in polytope.vertices) for j in range(polytope.dim)]
    pts = [
        p
        for p in product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
        if polytope.contains(p)
    ]
    return PointConfiguration(polytope, sorted(pts))

