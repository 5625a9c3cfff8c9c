"""Triangulations of a lattice point configuration.

Covers the placing construction, lower hulls of liftings, regularity
certificates by exact LP, bistellar flips across circuits, witnesses carried
across flip walls, and breadth-first enumeration of all regular
triangulations through the flip graph.
"""

from __future__ import annotations

import time
from collections import deque
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul
from typing import Iterable, KeysView, NamedTuple, Optional, Sequence

from .exact import integer_row
from .lp import Constraint, LinearSystem, feasible_strict, nonnegative_feasible
from .polytope import PointConfiguration, extreme_point_indices, placing_cells

Simplices = tuple[tuple[int, ...], ...]


def canonical_simplices(simplices: Iterable[Sequence[int]]) -> Simplices:
    """Deduplication key: lexicographically sorted tuple of sorted index tuples."""
    return tuple(sorted(tuple(sorted(s)) for s in simplices))


class Triangulation:
    """A set of n-simplices (index tuples into the configuration) covering the
    polytope.

    Construction validates the volume partition and that every wall ((n-1)-face)
    is shared by exactly two simplices or lies in a facet of the polytope.
    """

    def __init__(self, config: PointConfiguration, simplices: Iterable[Sequence[int]]):
        self.config = config
        self.simplices: Simplices = canonical_simplices(simplices)
        self._validate()

    def _validate(self):
        n = self.config.dim
        npts = len(self.config)
        total = 0
        for s in self.simplices:
            if len(s) != n + 1:
                raise ValueError(f"cell {s} is not an {n}-simplex")
            if any(i < 0 or i >= npts for i in s):
                raise ValueError(f"cell {s} has out-of-range vertex indices")
            total += self.config.normalized_volume(s)
        if total != self.config.polytope.volume:
            raise ValueError(
                f"simplices have total volume {total}, polytope has {self.config.polytope.volume}"
            )
        for wall, owners in self.walls.items():
            if len(owners) > 2:
                raise ValueError(f"wall {wall} shared by {len(owners)} simplices")
            # Every cell has nonzero volume, so its walls are independent.
            if len(owners) == 1 and not self.config._lies_in_facet(wall):
                raise ValueError(f"wall {wall} is unmatched and not on the boundary")

    @cached_property
    def walls(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(n-1)-faces mapped to the simplices containing them."""
        out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for s in self.simplices:
            for f in combinations(s, len(s) - 1):
                out.setdefault(f, []).append(s)
        return {w: tuple(owners) for w, owners in sorted(out.items())}

    @cached_property
    def interior_walls(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]:
        return {w: o for w, o in self.walls.items() if len(o) == 2}

    @cached_property
    def massive_walls(self) -> tuple[tuple[int, ...], ...]:
        return tuple(w for w, o in self.walls.items() if len(o) == 1)

    @cached_property
    def cell_volumes(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(cell, normalized volume) for each simplex, read by the
        characteristic vectors and by every function integrated on T."""
        volume = self.config.normalized_volume
        return tuple((s, volume(s)) for s in self.simplices)

    @cached_property
    def massive_wall_volumes(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(massive wall, normalized volume) for each boundary wall."""
        volume = self.config.normalized_volume
        return tuple((w, volume(w)) for w in self.massive_walls)

    @cached_property
    def used_points(self) -> tuple[int, ...]:
        return tuple(sorted({i for s in self.simplices for i in s}))

    def __eq__(self, other):
        return (
            isinstance(other, Triangulation)
            and self.simplices == other.simplices
            and self.config.points == other.config.points
        )

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self):
        return f"Triangulation({list(map(list, self.simplices))})"


class _Heights(NamedTuple):
    heights: tuple[int, ...]


class Lifting(_Heights):
    """Integer heights on the configuration, normalized so max(heights) == 0."""

    __slots__ = ()

    def __new__(cls, heights: tuple[int, ...]):
        if not heights:
            raise ValueError("empty lifting")
        if any(type(h) is not int for h in heights):  # a bool would pass as 0 or 1
            raise ValueError("lifting heights must be integers")
        if max(heights) != 0:
            raise ValueError("lifting must be normalized to max height 0")
        return tuple.__new__(cls, (heights,))

    @classmethod
    def normalized(cls, heights: Sequence[int]) -> "Lifting":
        if any(type(h) is not int for h in heights):
            raise ValueError("lifting heights must be integers")
        top = max(heights)
        return cls(tuple(h - top for h in heights))


class Subdivision(NamedTuple):
    """Projection of the lower facets of a lifted configuration.

    Cells are the index sets of the facet vertices, each sorted and in sorted
    order, so when ``is_triangulation`` (every cell is a simplex) they are
    the canonical simplices of the triangulation.
    """

    cells: Simplices
    is_triangulation: bool


def lower_hull_subdivision(config: PointConfiguration, lifting: Lifting | Sequence[int]) -> Subdivision:
    """Subdivision induced by the lower hull of the lifted points (omega_k, h_k).

    Each affinely independent (n+1)-subset sigma spans a non-vertical plane
    through its lifted points; a point k lies strictly below it exactly when
    ``<dependence(sigma + k), h>`` and the coefficient at k have opposite
    signs (as in ``_cone_row``).  sigma spans a lower facet when no point lies
    strictly below, and the facet's points are sigma plus the points on the
    plane.  Cell vertex sets are the extreme points of each facet; points
    lying on a facet without being vertices of it are not part of the cell.
    Heights affine on the configuration give a single cell, the polytope's
    vertices.  The side tests are the configuration's ``lower_hull_tests``,
    built once and shared by every lifting, so each lifting costs integer
    dot products only.
    """
    if not isinstance(lifting, Lifting):
        lifting = Lifting.normalized(lifting)
    if len(lifting.heights) != len(config):
        raise ValueError("lifting length must match the configuration")
    h = lifting.heights
    n = config.dim
    facets = set()
    for sigma, tests in config.lower_hull_tests:
        on = list(sigma)
        for k, heights_at, dep, at_k in tests:
            side = sum(map(mul, dep, heights_at(h))) * at_k
            if side < 0:
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
    simplicial = all(len(c) == n + 1 for c in cells)
    return Subdivision(tuple(cells), simplicial)


class _Certificate(NamedTuple):
    witness: Optional[Lifting]
    system: Optional[LinearSystem] = None


class RegularityCertificate(_Certificate):
    """Witness lifting strictly inside the cone of liftings inducing T, or,
    when no such lifting exists, the cone system, whose irreducible
    infeasible subsystem is read off a Gordan certificate on first read and
    kept in the instance's ``__dict__``."""

    @property
    def regular(self) -> bool:
        return self.witness is not None

    @cached_property
    def infeasible_subsystem(self) -> Optional[LinearSystem]:
        return None if self.regular else _irreducible_infeasible(self.system)


def _cone_row(config: PointConfiguration, cell: tuple[int, ...], k: int) -> Constraint:
    """The strict inequality that lifts point ``k`` strictly above the affine
    interpolation of the heights on ``cell``.  Its row is the affine dependence
    of ``cell`` and ``k`` scaled to -1 at k (the barycentric coordinates of k
    on the cell): the primitive dependence, negative at k, over |its value at
    k|, hence in lowest terms."""
    ids = tuple(sorted(cell + (k,)))
    dep = config.dependence(ids)
    at_k = 0 if dep is None else dep[ids.index(k)]
    if at_k == 0:
        raise RuntimeError(f"point {k} has no barycentric coordinates on the cell {cell}")
    sign = -1 if at_k > 0 else 1
    nums = [0] * len(config)
    for i, c in zip(ids, dep):
        nums[i] = sign * c
    return Constraint(tuple(nums), abs(at_k))


def cone_system(tri: Triangulation) -> LinearSystem:
    """Strict inequalities on liftings cutting out the open cone of liftings
    whose lower hull induces exactly this triangulation.

    Every row is a ``_cone_row`` of the configuration's memoised affine
    dependences: one fold inequality per interior wall (the point of the
    second cell opposite the wall lies strictly above the first cell's
    affine piece), and one per unused point (strictly above its home cell,
    the first cell, in order, that contains it).
    """
    config = tri.config
    rows = [
        _cone_row(config, s1, next(i for i in s2 if i not in wall))
        for wall, (s1, s2) in tri.interior_walls.items()
    ]
    used = set(tri.used_points)
    for k in range(len(config)):
        if k in used:
            continue
        for home in tri.simplices:
            row = _cone_row(config, home, k)
            if all(row.nums[i] >= 0 for i in home):
                break
        else:
            raise RuntimeError(f"point {k} lies in no cell")
        rows.append(row)
    return LinearSystem(tuple(rows), len(config))


def is_regular(tri: Triangulation, system: Optional[LinearSystem] = None) -> RegularityCertificate:
    """Decide regularity by exact LP on the cone system (``system``, when
    the caller already holds ``cone_system(tri)``).

    Irregularity is a value, not an error: the certificate then keeps the
    system, and reading its ``infeasible_subsystem`` solves one Gordan LP.
    """
    if system is None:
        system = cone_system(tri)
    witness = feasible_strict(system)
    if witness is None:
        return RegularityCertificate(None, system)
    # Cones of liftings are invariant under positive scaling, so the
    # numerators over the least common denominator serve.
    return RegularityCertificate(Lifting.normalized(integer_row(witness)[0]))


def _irreducible_infeasible(system: LinearSystem) -> LinearSystem:
    """Gordan: A x < 0 has no solution exactly when some y >= 0, sum(y) = 1,
    has y^T A = 0 (scaling rows keeps y's support, so numerators serve).  A
    basic y has independent support columns, so no y has a smaller support:
    its support is an irreducible infeasible subsystem (Gleeson-Ryan 1990)."""
    cons = system.constraints
    rows = [[c.nums[j] for c in cons] for j in range(system.dim)] + [[1] * len(cons)]
    y = nonnegative_feasible(rows, [0] * system.dim + [1])
    if y is None:
        raise RuntimeError("infeasible cone system has no Gordan certificate")
    return LinearSystem(tuple(c for c, v in zip(cons, y) if v), system.dim)


def placing_triangulation(config: PointConfiguration, order: Optional[Sequence[int]] = None) -> Triangulation:
    """Placing triangulation for the given insertion order (default: the
    configuration's lexicographic order).  Regular by construction."""
    if order is None:
        order = range(len(config))
    order = list(order)
    if sorted(order) != list(range(len(config))):
        raise ValueError("order must be a permutation of all point indices")
    return Triangulation(config, placing_cells(config.points, order))


class Flip(NamedTuple):
    """A bistellar flip across a circuit.

    ``removed`` and ``inserted`` are the two parts of the circuit: the
    triangulation contains the pattern of cofaces Z minus {j} for j in
    ``removed``, joined with a common link; the flip installs the opposite
    pattern.  ``simplices`` is the result's canonical form, a key to check
    before building and validating the triangulation it names.  ``row`` is
    the cone row the circuit was read from, negative on ``removed``: its
    zero set is the wall between the two secondary cones.  Applying the
    resulting flip at the same circuit returns the original.
    """

    removed: tuple[int, ...]
    inserted: tuple[int, ...]
    simplices: Simplices
    row: Constraint


def flips(tri: Triangulation, system: Optional[LinearSystem] = None) -> list[Flip]:
    """All supported bistellar flips of the triangulation, in circuit order.

    Each row of ``cone_system(tri)`` (``system``, when the caller already
    holds it), a cell plus a point k outside it, is
    the dependence of a circuit Z, negative at k, and the cell holds the
    coface Z - k: the negative side is the one a flip removes.  No
    triangulation holds cofaces from both sides (Z's Radon point is interior
    to both hulls), so each circuit is tried once.  Every supported flip has
    a row.  A removed side holding i and j gives, for a link cell l, the
    interior wall (Z - {i, j}) + l, whose fold row is Z's (a cell plus one
    point has one dependence).  A removed side {p} has p interior to the
    face Z - p, so p is unused and its home cell holds Z - p.
    """
    faces: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for s in tri.simplices:
        for size in range(1, len(s) + 1):
            for f in combinations(s, size):
                faces.setdefault(f, []).append(s)
    if system is None:
        system = cone_system(tri)
    circuits: dict[tuple[tuple[int, ...], tuple[int, ...]], Constraint] = {}
    for row in system.constraints:
        nums = row.nums
        removed = tuple(i for i, c in enumerate(nums) if c < 0)
        circuits.setdefault((removed, tuple(i for i, c in enumerate(nums) if c > 0)), row)
    out = []
    # (plus, minus) order of affine_dependence: the side holding the smallest index first.
    for (removed, inserted), row in sorted(circuits.items(), key=lambda item: min(item[0], item[0][::-1])):
        simplices = _try_flip(tri.simplices, faces, removed, inserted)
        if simplices is not None:
            out.append(Flip(removed, inserted, simplices, row))
    return out


def carry_witness(witness: Lifting, row: Constraint, system: LinearSystem) -> Optional[Lifting]:
    """A witness for the other side of a flip wall, from a witness of this
    side, or None when the carried point misses the neighbour's cone.

    ``row`` is the flip's cone row a, so a.witness < 0, and ``system`` is
    the neighbour's cone system, which holds -a.  mu = (a.a) witness -
    (a.witness) a lies on the wall a.x = 0, and the candidate is c mu + a
    with c the least integer at which every row b of ``system`` is strict:
    b.mu < 0 bounds c below, b.mu = 0 needs b.a < 0, and b.mu > 0 is a
    miss.  One integer dot product per row decides it.  With no row
    bounding c, mu is affine (every row vanishes on it), so the candidate
    would not depend on the witness: that is a miss too.  Rows are affine
    dependences, so shifting the candidate to max 0 and dividing by the gcd
    of its heights keeps every row's sign; a result that fails ``system``
    is a bug and raises.
    """
    lam = witness.heights
    a = row.nums
    aa = sum(x * x for x in a)
    al = sum(map(mul, a, lam))
    mu = [aa * h - al * x for h, x in zip(lam, a)]
    bounds = []
    for b, _ in system.constraints:
        bm = sum(map(mul, b, mu))
        ba = sum(map(mul, b, a))
        if bm < 0:
            bounds.append(ba // -bm + 1)
        elif bm > 0 or ba >= 0:
            return None
    if not bounds:
        return None
    c = max(bounds)
    heights = [c * m + x for m, x in zip(mu, a)]
    top = max(heights)
    scale = gcd(*(h - top for h in heights))
    carried = tuple((h - top) // scale for h in heights)
    if not system.holds(carried):
        raise RuntimeError("carried witness violates the neighbour's cone system")
    return Lifting(carried)


def _try_flip(simplices: Simplices, faces: dict, removed: tuple[int, ...], inserted: tuple[int, ...]) -> Optional[Simplices]:
    """The canonical simplices after the flip at the circuit (removed |
    inserted) if the triangulation supports it: all cofaces on the removed
    side, looked up in ``faces`` (face -> simplices), share one link."""
    circuit = tuple(sorted(removed + inserted))
    link: Optional[frozenset[frozenset[int]]] = None
    to_remove: set[tuple[int, ...]] = set()
    for j in removed:
        coface = tuple(i for i in circuit if i != j)
        owners = faces.get(coface)
        if not owners:
            return None
        this_link = frozenset(frozenset(s).difference(coface) for s in owners)
        if link is None:
            link = this_link
        elif link != this_link:
            return None
        to_remove.update(owners)
    if link is None:
        raise RuntimeError("flip has an empty removed side")
    new_cells = [s for s in simplices if s not in to_remove]
    for k in inserted:
        coface = {i for i in circuit if i != k}
        for l in link:
            new_cells.append(coface | l)
    return canonical_simplices(new_cells)


class EnumerationCaps(NamedTuple):
    max_triangulations: int = 1_000_000
    time_budget: Optional[float] = None


class EnumerationCapExceeded(RuntimeError):
    """Raised when enumeration would be incomplete; never a silent truncation."""

    def __init__(self, reason: str, found: int):
        super().__init__(f"incomplete enumeration ({reason}) after {found} triangulations")
        self.reason = reason
        self.found = found


class EnumeratedTriangulation(NamedTuple):
    id: int
    triangulation: Triangulation
    certificate: RegularityCertificate


class Enumeration:
    """The regular triangulations of ``config``, as entries sorted by
    canonical form."""

    def __init__(self, config: PointConfiguration, entries: tuple[EnumeratedTriangulation, ...]):
        self.config = config
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @cached_property
    def by_simplices(self) -> dict[Simplices, EnumeratedTriangulation]:
        """Each entry under its canonical simplices, the key a simplicial
        lower hull's ``cells`` already has."""
        return {e.triangulation.simplices: e for e in self.entries}

    def canonical_forms(self) -> KeysView[Simplices]:
        return self.by_simplices.keys()


def enumerate_regular(
    config: PointConfiguration,
    caps: Optional[EnumerationCaps] = None,
    order: Optional[Sequence[int]] = None,
) -> Enumeration:
    """Breadth-first search over the flip graph restricted to regular
    triangulations, seeded by a placing triangulation.

    Complete because regular triangulations are connected by flips (they are
    the vertices of the secondary polytope, flips its edges).  Each kept
    triangulation's cone system is built once, for its regularity test and
    its flips, and held, with its witness, only while it is queued.  A
    neighbour's witness is carried across the flip wall from the witness of
    the triangulation it was reached from (``carry_witness``); the exact LP
    (``is_regular``) runs for the seed and on a miss only.  Entries are
    sorted by canonical form, so ids, like the canonical forms, do not
    depend on the seed ``order``; witness heights do.
    """
    caps = caps or EnumerationCaps()
    start = time.monotonic()
    seed = placing_triangulation(config, order)
    system = cone_system(seed)
    cert = is_regular(seed, system)
    if not cert.regular:
        raise RuntimeError("placing triangulation tested irregular; this is a bug")
    found: dict[Simplices, tuple[Triangulation, RegularityCertificate]] = {
        seed.simplices: (seed, cert)
    }
    rejected: set[Simplices] = set()
    queue = deque([(seed, system, cert.witness)])
    while queue:
        if len(found) > caps.max_triangulations:
            raise EnumerationCapExceeded("max triangulation cap", len(found))
        if caps.time_budget is not None and time.monotonic() - start > caps.time_budget:
            raise EnumerationCapExceeded("time budget", len(found))
        tri, system, witness = queue.popleft()
        for flip in flips(tri, system):
            key = flip.simplices
            if key in found or key in rejected:
                continue
            nb = Triangulation(config, key)
            nb_system = cone_system(nb)
            carried = carry_witness(witness, flip.row, nb_system)
            cert = is_regular(nb, nb_system) if carried is None else RegularityCertificate(carried)
            if cert.regular:
                found[key] = (nb, cert)
                queue.append((nb, nb_system, cert.witness))
            else:
                rejected.add(key)
    if len(found) > caps.max_triangulations:
        raise EnumerationCapExceeded("max triangulation cap", len(found))
    entries = tuple(
        EnumeratedTriangulation(i, tri, cert)
        for i, (key, (tri, cert)) in enumerate(sorted(found.items()))
    )
    return Enumeration(config, entries)
