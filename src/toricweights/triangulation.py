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
from typing import Collection, Iterable, KeysView, NamedTuple, Optional, Sequence

from .exact import Lanes, integer_row
from .lp import LinearSystem, feasible_strict, nonnegative_feasible
from .polytope import PointConfiguration, extreme_point_indices, placing_cells

Simplices = tuple[tuple[int, ...], ...]


def canonical_simplices(simplices: Iterable[Sequence[int]]) -> Simplices:
    """Deduplication key: lexicographically sorted tuple of sorted index tuples."""
    return tuple(sorted(tuple(sorted(s)) for s in simplices))


class Triangulation:
    """A set of n-simplices (index tuples into the configuration) covering the
    polytope, with its cone system ``system``.

    Construction validates the cells and the volume partition, and that
    every wall ((n-1)-face) is shared by at most two simplices or lies in a
    facet of the polytope.  It then builds ``system = cone_system(self)``,
    which refuses a repeated cell and two cells on one side of their wall.
    """

    def __init__(self, config: PointConfiguration, simplices: Iterable[Sequence[int]]):
        self.config = config
        self.simplices: Simplices = canonical_simplices(simplices)
        self._validate()
        self.system: LinearSystem = cone_system(self)

    def _validate(self):
        n = self.config.dim
        npts = len(self.config)
        total = 0
        for s in self.simplices:
            if len(s) != n + 1:
                raise ValueError(f"cell {s} is not an {n}-simplex")
            if s[0] < 0 or s[-1] >= npts:  # cells are sorted
                raise ValueError(f"cell {s} has out-of-range vertex indices")
            total += self.config.normalized_volume(s)
        if total != self.config.volume:
            raise ValueError(f"simplices have total volume {total}, polytope has {self.config.volume}")
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

    def __new__(cls, heights: Iterable[int]):
        heights = tuple(heights)
        if not heights:
            raise ValueError("empty lifting")
        if any(type(h) is not int for h in heights):  # a bool would pass as 0 or 1
            raise ValueError("lifting heights must be integers")
        if max(heights) != 0:
            raise ValueError("lifting must be normalized to max height 0")
        return tuple.__new__(cls, (heights,))

    @classmethod
    def normalized(cls, heights: Iterable[int]) -> "Lifting":
        heights = tuple(heights)
        if any(type(h) is not int for h in heights):
            raise ValueError("lifting heights must be integers")
        top = max(heights, default=0)
        return cls(h - top for h in heights)


class Subdivision(NamedTuple):
    """Projection of the lower facets of a lifted configuration.

    Cells are the index sets of the facet vertices, each sorted and in sorted
    order, so when ``is_triangulation`` (every cell is a simplex) they are
    the canonical simplices of the triangulation.
    """

    cells: Simplices
    is_triangulation: bool


def lower_hulls(config: PointConfiguration, liftings: Sequence[Lifting | Sequence[int]]) -> list[Subdivision]:
    """Subdivisions induced by the lower hulls of the lifted points
    (omega_k, h_k), one per lifting, all decided in one pass on integer lanes.

    Each affinely independent (n+1)-subset sigma spans a non-vertical plane
    through its lifted points; a point k lies strictly below it exactly when
    ``config.cone_row(sigma, k)·h > 0``, and on it when that is 0.  sigma
    spans a lower facet when no point lies strictly below, and the facet's
    points are sigma plus the points on the plane.  The side tests are the
    configuration's ``lower_hull_tests``, built once and shared by every
    lifting.  Point i carries the heights of all liftings as one packed int,
    lifting b in lane b of ``Lanes``, so each (sigma, k) test is one packed
    dot product, whose lane b is the side of k under lifting b, and its
    ``signs`` are the lanes where it is > 0 and where it is 0.  The span is
    2*top*norm + 1 (top: the largest |height|; norm:
    ``config.lower_hull_norm``, the largest l1 norm of a test row): every
    side is at most top*norm in size.

    Cell vertex sets are the extreme points of each facet; points lying on
    a facet without being vertices of it are not part of the cell.  A facet
    of n + 2 points has one affine dependence, the row of the side test that
    put its one point beyond sigma on it, and a point is not extreme exactly
    when it is alone on its side of that row; only larger facets go to the
    hull-membership LP.  Heights affine on the configuration give a single
    cell, the polytope's vertices.
    """
    lifts = [lam if isinstance(lam, Lifting) else Lifting.normalized(lam) for lam in liftings]
    if any(len(lam.heights) != len(config) for lam in lifts):
        raise ValueError("lifting length must match the configuration")
    if not lifts:
        return []
    top = max(-min(lam.heights) for lam in lifts)
    lanes = Lanes(2 * top * config.lower_hull_norm + 1, len(lifts))
    packed = lanes.pack([lam.heights for lam in lifts])
    facets: list[dict[tuple[int, ...], Optional[tuple[int, ...]]]] = [{} for _ in lifts]
    for sigma, side_tests in config.lower_hull_tests:
        alive, zeros = lanes.tops, []
        for k, heights_at, row in side_tests:
            below, on = lanes.signs(sum(map(mul, row, heights_at(packed))))
            alive ^= alive & below
            if not alive:
                break
            if on:
                zeros.append((k, on, row))
        else:
            for lane in lanes.indices(alive):
                bit = lanes.top(lane)
                on = [(k, row) for k, mask, row in zeros if mask & bit]
                facets[lane][tuple(sorted(sigma + tuple(k for k, _ in on)))] = on[0][1] if len(on) == 1 else None
    return [_subdivision(config, lam.heights, on) for lam, on in zip(lifts, facets)]


def _subdivision(
    config: PointConfiguration, h: Sequence[int], facets: dict[tuple[int, ...], Optional[tuple[int, ...]]]
) -> Subdivision:
    """The cells of the heights ``h``: the extreme points of each lower
    facet, a sorted point set.  A facet of n + 2 points maps to the side
    test row that found it, their one affine dependence; any other to None."""
    n = config.dim
    cells = []
    for on, row in facets.items():
        if row is not None:
            signs = [(c > 0) - (c < 0) for c in row]
            on = tuple(i for i, s in zip(on, signs) if s == 0 or signs.count(s) > 1)
        elif len(on) > n + 1:
            extreme = extreme_point_indices([config.points[i] + (h[i],) for i in on])
            on = tuple(on[i] for i in extreme)
        cells.append(on)
    cells.sort()
    return Subdivision(tuple(cells), all(len(c) == n + 1 for c in cells))


def lower_hull_subdivision(config: PointConfiguration, lifting: Lifting | Sequence[int]) -> Subdivision:
    """The subdivision induced by the lower hull of one lifting:
    ``lower_hulls`` of a batch of one."""
    return lower_hulls(config, [lifting])[0]


class RegularityCertificate(NamedTuple):
    """Witness lifting strictly inside the cone of liftings inducing T, or,
    when no such lifting exists, an irreducible infeasible subsystem of the
    cone system, read off a Gordan certificate."""

    witness: Optional[Lifting]
    infeasible_subsystem: Optional[LinearSystem] = None

    @property
    def regular(self) -> bool:
        return self.witness is not None


def cone_system(tri: Triangulation) -> LinearSystem:
    """Strict inequalities on liftings cutting out the open cone of liftings
    whose lower hull induces exactly this triangulation.

    Every row is a ``config.cone_row`` of the configuration's memoised affine
    dependences: one fold inequality per interior wall (the point b of the
    second cell opposite the wall lies strictly above the first cell's
    affine piece), and one per unused point (strictly above its home cell,
    the first cell, in order, that contains it).  The fold row, b's
    barycentric coordinates on the first cell up to a positive factor, is
    also the wall's side test: it is negative at that cell's point a
    opposite the wall exactly when the two cells lie on opposite sides, so
    a repeated cell or two cells on one side of their wall raise
    ``ValueError``.  The constructor calls this once and keeps the result
    as ``tri.system``.
    """
    config = tri.config
    rows = []
    for wall, (s1, s2) in tri.interior_walls.items():
        # Each cell is its wall plus one point.
        w = sum(wall)
        a, b = sum(s1) - w, sum(s2) - w
        if a == b:
            raise ValueError(f"cell {s1} is repeated")
        row = config.cone_row(s1, b)
        if row[a] >= 0:
            raise ValueError(f"cells {s1} and {s2} lie on the same side of their wall {wall}")
        rows.append(row)
    used = set(tri.used_points)
    for k in range(len(config)):
        if k in used:
            continue
        for home in tri.simplices:
            row = config.cone_row(home, k)
            if all(row[i] >= 0 for i in home):
                break
        else:
            raise RuntimeError(f"point {k} lies in no cell")
        rows.append(row)
    return LinearSystem(tuple(rows), len(config))


def is_regular(tri: Triangulation) -> RegularityCertificate:
    """Decide regularity by exact LP on the cone system ``tri.system``.

    Irregularity is a value, not an error: the certificate then holds the
    ``infeasible_subsystem`` that one more LP, a Gordan certificate, picks
    out of the system.
    """
    witness = feasible_strict(tri.system)
    if witness is None:
        return RegularityCertificate(None, _irreducible_infeasible(tri.system))
    # Cones of liftings are invariant under positive scaling, so the
    # numerators over the least common denominator serve.
    return RegularityCertificate(Lifting.normalized(integer_row(witness)[0]))


def _irreducible_infeasible(system: LinearSystem) -> LinearSystem:
    """Gordan: A x < 0 has no solution exactly when some y >= 0, sum(y) = 1,
    has y^T A = 0, so the LP's columns are the rows of A.  A basic y has
    independent support columns, so no y has a smaller support: its support
    is an irreducible infeasible subsystem (Gleeson-Ryan 1990)."""
    cons = system.constraints
    y = nonnegative_feasible([*zip(*cons), [1] * len(cons)], [0] * system.dim + [1])
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
    return Triangulation(config, placing_cells(config, order))


class Flip(NamedTuple):
    """A bistellar flip across a circuit.

    ``removed`` and ``inserted`` are the two parts of the circuit: the
    triangulation contains the pattern of cofaces Z minus {j} for j in
    ``removed``, joined with a common link; the flip installs the opposite
    pattern.  ``simplices`` is the result's canonical form, a key to check
    before building and validating the triangulation it names.  ``row`` is
    the cone row (``config.cone_row``) the circuit was read from, negative
    on ``removed``: its zero set is the wall between the two secondary
    cones.  Applying the resulting flip at the same circuit returns the
    original.
    """

    removed: tuple[int, ...]
    inserted: tuple[int, ...]
    simplices: Simplices
    row: tuple[int, ...]


def flips(tri: Triangulation, known: Collection[tuple[tuple[int, ...], tuple[int, ...]]] = ()) -> list[Flip]:
    """The supported bistellar flips of the triangulation, in circuit order,
    except at the circuits in ``known``, each given as (removed, inserted).

    Each row of ``tri.system``, a cell plus a point k outside it, is the
    dependence of a circuit Z, negative at k, and the cell holds the
    coface Z - k: the negative side is the one a flip removes.  No
    triangulation holds cofaces from both sides (Z's Radon point is interior
    to both hulls), so each circuit is tried once; its sides are read off
    the row by ``config.circuit_sides``, once per distinct row.  Every
    supported flip has a row.  A removed side holding i and j gives, for a
    link cell l, the interior wall (Z - {i, j}) + l, whose fold row is Z's
    (a cell plus one point has one dependence).  A removed side {p} has p
    interior to the face Z - p, so p is unused and its home cell holds
    Z - p.  ``known`` lets the flip search skip the flips it has already
    computed from their other end.
    """
    cells = [(frozenset(s), s) for s in tri.simplices]
    sides = tri.config.circuit_sides
    circuits: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
    for row in tri.system.constraints:
        circuit = sides(row)
        if circuit not in known:
            circuits.setdefault(circuit, row)
    out = []
    for (removed, inserted), row in sorted(circuits.items(), key=lambda item: _circuit_order(*item[0])):
        simplices = _try_flip(cells, removed, inserted)
        if simplices is not None:
            out.append(Flip(removed, inserted, simplices, row))
    return out


def _circuit_order(removed: tuple[int, ...], inserted: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sort key of a circuit, the same from either of its sides: the
    (plus, minus) order of affine_dependence, the side holding the smallest
    index first."""
    return min((removed, inserted), (inserted, removed))


def carry_witness(witness: Lifting, row: tuple[int, ...], system: LinearSystem) -> Optional[Lifting]:
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
    a = row
    aa = sum(x * x for x in a)
    al = sum(map(mul, a, lam))
    mu = [aa * h - al * x for h, x in zip(lam, a)]
    bounds = []
    for b in system.constraints:
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


def _try_flip(cells: Sequence[tuple[frozenset, tuple]], removed: tuple[int, ...], inserted: tuple[int, ...]) -> Optional[Simplices]:
    """The canonical simplices after the flip at the circuit (removed |
    inserted) if the triangulation supports it: the cells holding each
    coface on the removed side, found by subset tests on ``cells`` (vertex
    set, cell) in canonical order, share one link.  Kept cells are not
    sorted again."""
    circuit = frozenset(removed + inserted)
    link: Optional[frozenset[frozenset[int]]] = None
    to_remove: set[tuple[int, ...]] = set()
    for j in removed:
        coface = circuit - {j}
        owners = [(vs, s) for vs, s in cells if coface <= vs]
        if not owners:
            return None
        this_link = frozenset(vs - coface for vs, _ in owners)
        if link is None:
            link = this_link
        elif link != this_link:
            return None
        to_remove.update(s for _, s in owners)
    if link is None:
        raise RuntimeError("flip has an empty removed side")
    added = [tuple(sorted((circuit - {k}) | l)) for k in inserted for l in link]
    return tuple(sorted([s for _, s in cells if s not in to_remove] + added))


class EnumerationCaps(NamedTuple):
    max_triangulations: int = 1_000_000
    time_budget: Optional[float] = None


class EnumerationCapExceeded(RuntimeError):
    """Raised when enumeration would be incomplete; never a silent truncation."""

    def __init__(self, reason: str, found: int, rejected: int, lps: int, edges: int):
        counts = f"{found} triangulations, {rejected} rejected, {lps} strict-cone LPs, {edges} flip edges"
        super().__init__(f"incomplete enumeration ({reason}) after {counts}")
        self.reason = reason
        self.found = found
        self.rejected = rejected
        self.lps = lps
        self.edges = edges


class EnumeratedTriangulation(NamedTuple):
    id: int
    triangulation: Triangulation
    certificate: RegularityCertificate


Edge = tuple[int, int, tuple[int, ...]]


class Enumeration:
    """The regular triangulations of ``config``, as entries sorted by
    canonical form, and the flip edges between them: sorted (id, id', row)
    with id < id', where ``row`` is entry id's cone row for the flip's
    circuit, negative on the side the flip from id removes."""

    def __init__(self, config: PointConfiguration, entries: tuple[EnumeratedTriangulation, ...], edges: tuple[Edge, ...] = ()):
        self.config = config
        self.entries = entries
        self.edges = edges

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
    the vertices of the secondary polytope, flips its edges).  Each
    triangulation reached is built once, which builds its cone system
    (``tri.system``).  Flips are computed only for a kept triangulation,
    once, and each flip edge from the end kept first: every flip computed
    into a triangulation not yet built is filed under its key in an
    incoming index, and a kept triangulation skips the circuits filed
    there, whose flips lead back to triangulations already found.  A
    neighbour's witness is carried across a flip wall (``carry_witness``):
    first from the triangulation it was reached from, then from each other
    found triangulation in its incoming index, in the neighbour's circuit
    order, and only when every carry misses does the exact LP
    (``is_regular``) decide, as it does for the seed.  A rejected key
    computes no flips.  Entries are sorted by canonical form, so ids, like
    the canonical forms and the edges, do not depend on the seed ``order``;
    witness heights do.
    """
    caps = caps or EnumerationCaps()
    start = time.monotonic()
    seed = placing_triangulation(config, order)
    cert = is_regular(seed)
    if not cert.regular:
        raise RuntimeError("placing triangulation tested irregular; this is a bug")
    found: dict[Simplices, tuple[Triangulation, RegularityCertificate]] = {
        seed.simplices: (seed, cert)
    }
    rejected: set[Simplices] = set()
    # Flips already computed into each key not yet built: (found key, flip).
    incoming: dict[Simplices, list[tuple[Simplices, Flip]]] = {}
    walked: list[tuple[Simplices, Simplices, tuple[int, ...]]] = []
    lps = 1

    def expand(key: Simplices, tri: Triangulation, into: list[tuple[Simplices, Flip]]) -> list[Flip]:
        out = flips(tri, {(f.inserted, f.removed) for _, f in into})
        for flip in out:
            if flip.simplices not in rejected:
                incoming.setdefault(flip.simplices, []).append((key, flip))
        return out

    queue = deque([(seed.simplices, expand(seed.simplices, seed, []))])
    while queue:
        if len(found) > caps.max_triangulations:
            raise EnumerationCapExceeded("max triangulation cap", len(found), len(rejected), lps, len(walked))
        if caps.time_budget is not None and time.monotonic() - start > caps.time_budget:
            raise EnumerationCapExceeded("time budget", len(found), len(rejected), lps, len(walked))
        parent, parent_flips = queue.popleft()
        for flip in parent_flips:
            key = flip.simplices
            if key in found or key in rejected:
                continue
            nb = Triangulation(config, key)
            into = incoming.pop(key)
            carried = None
            for other, back in sorted(into, key=lambda e: (e[0] != parent, _circuit_order(e[1].removed, e[1].inserted))):
                carried = carry_witness(found[other][1].witness, back.row, nb.system)
                if carried is not None:
                    break
            lps += carried is None
            cert = is_regular(nb) if carried is None else RegularityCertificate(carried)
            if cert.regular:
                found[key] = (nb, cert)
                walked.extend((other, key, back.row) for other, back in into)
                queue.append((key, expand(key, nb, into)))
            else:
                rejected.add(key)
    ids = {key: i for i, key in enumerate(sorted(found))}
    entries = tuple(EnumeratedTriangulation(ids[key], *found[key]) for key in sorted(found))
    edges = []
    for a, b, row in walked:
        i, j = ids[a], ids[b]
        edges.append((i, j, row) if i < j else (j, i, tuple(-x for x in row)))
    return Enumeration(config, entries, tuple(sorted(edges)))
