"""Lattice polytopes (facets, lattice points, smoothness) and their point
configurations (dependences, cone rows, placings, normalized volumes).

Conventions.  A facet is stored as a primitive inward normal u and an integer
offset c, the facet lying on <x,u> + c == 0 and the polytope in
<x,u> + c >= 0.  Volumes are lattice-normalized: the standard simplex of the
affine lattice spanned by a simplex has volume 1, so an n-dimensional volume
is n! times the Euclidean one.  A single point has volume 1.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
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


def _volume(points: tuple[Point, ...], ids: tuple[int, ...]) -> int:
    """``config._volume(ids)``: ``normalized_volume`` of the points at ``ids``."""
    key = tuple(sorted(ids))
    if not key or key[0] < 0 or key[-1] >= len(points) or len(set(key)) != len(key):
        raise ValueError(f"simplex {ids} needs distinct point indices in range({len(points)})")
    try:
        return lattice_index([[x - b for x, b in zip(points[i], points[key[0]])] for i in key[1:]])
    except ValueError:
        raise ValueError(f"simplex {key} has affinely dependent vertices") from None


def _dependence(points: tuple[Point, ...], ids: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """``config.dependence(ids)``: the affine dependence of the points at the
    sorted indices ``ids``, aligned with ``ids`` as ``exact.affine_dependence``
    gives it, or None when they are affinely independent."""
    return affine_dependence([points[i] for i in ids])


def _cone_row(dependence: Callable, size: int, cell: tuple[int, ...], k: int) -> tuple[int, ...]:
    """``config.cone_row(cell, k)``: the row a, indexed like the points, with
    a·h < 0 exactly when the heights h lift point ``k`` strictly above their
    affine interpolation on ``cell``: the primitive affine dependence of
    ``cell`` and ``k``, signed negative at k (a positive multiple of k's
    barycentric coordinates on the cell minus 1 at k), and 0 elsewhere.  The
    cell may be lower-dimensional, with k in its affine hull but not in the
    cell, as in a placing of a facet."""
    if k in cell:
        raise ValueError(f"point {k} is a vertex of the cell {cell}")
    ids = tuple(sorted(cell + (k,)))
    dep = dependence(ids)
    at_k = 0 if dep is None else dep[ids.index(k)]
    if at_k == 0:
        raise RuntimeError(f"point {k} has no barycentric coordinates on the cell {cell}")
    entries = [0] * size
    for i, c in zip(ids, dep):
        entries[i] = -c if at_k > 0 else c
    return tuple(entries)


def _circuit_sides(row: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``config.circuit_sides(row)``: where the cone row ``row`` is negative
    and where it is positive, the two parts of the circuit it was read from."""
    negative = tuple(i for i, c in enumerate(row) if c < 0)
    return negative, tuple(i for i, c in enumerate(row) if c > 0)


def _lies_in_facet(points: tuple[Point, ...], facets: Sequence[Facet], ids: tuple[int, ...]) -> bool:
    """``config._lies_in_facet(ids)``: whether the points at ``ids`` lie on one facet."""
    return any(all(f.value(points[i]) == 0 for i in ids) for f in facets)


class PointConfiguration:
    """The lattice points of a polytope, in lexicographic order, the order
    that every point index elsewhere in the package refers to.

    It owns the exact facts about its points, each computed once.  Keyed
    facts are ``functools.cache`` wrappers that ``__init__`` makes per
    instance over module functions (``_cone_row`` for ``cone_row``), bound
    to the data they read, not to the instance, so no cycle or class-level
    cache keeps it alive; a refused key is not cached and raises again, and a
    pickled copy starts them empty.  Argument-free facts are
    ``cached_property``s."""

    def __init__(self, polytope: LatticePolytope, points: Sequence[Point]):
        self.polytope = polytope
        self.points: tuple[Point, ...] = tuple(tuple(p) for p in points)
        self.index: dict[Point, int] = {p: i for i, p in enumerate(self.points)}
        self._volume = cache(partial(_volume, self.points))
        self.dependence = cache(partial(_dependence, self.points))
        self.cone_row = cache(partial(_cone_row, self.dependence, len(self.points)))
        self.circuit_sides = cache(_circuit_sides)
        self._lies_in_facet = cache(partial(_lies_in_facet, self.points, polytope.facets))

    @property
    def dim(self) -> int:
        return self.polytope.dim

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, PointConfiguration) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __reduce__(self):
        return type(self), (self.polytope, self.points)

    def __repr__(self):
        return f"PointConfiguration({len(self.points)} points, dim {self.dim})"

    def normalized_volume(self, indices: Sequence[int]) -> int:
        """Lattice-normalized volume of the simplex on the given points, taken
        in the affine lattice of its span; 1 for a single point.  ``ValueError``
        on no, repeated or out-of-range indices and on dependent vertices."""
        return self._volume(tuple(indices))

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

    @cached_property
    def lower_hull_tests(self) -> tuple[tuple[tuple[int, ...], tuple[SideTest, ...]], ...]:
        """(sigma, side tests) for each affinely independent (n+1)-subset
        sigma, in lexicographic order.  The side test of each other point k
        is (k, getter of the heights at sigma + k, the entries of
        ``cone_row(sigma, k)`` on sigma + k), in the order of k, for every
        lifting's lower hull."""
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

