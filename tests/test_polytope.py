import gc
import json
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import CUBE, DOUBLE_SIMPLEX, HEXAGON, NON_DELZANT, SEGMENT2, SQUARE, UNIT_SIMPLEX, config_of
import oracles
from test_triangulation import POLYGONS, POLYTOPES_3D
from toricweights import polytope
from toricweights.exact import det, lattice_index, primitive
from toricweights.functionals import PLFunction
from toricweights.pipeline import analyze
from toricweights.polytope import (
    Facet,
    LatticePolytope,
    extreme_point_indices,
    hull_facets,
    lattice_points,
    placing_cells,
)
from toricweights.triangulation import Triangulation
from toricweights.vectors import boundary_vector
from toricweights.weights import run_support_trials, verify_identities


def facet_set(q):
    return {(f.normal, f.offset) for f in q.facets}


def test_facets_unit_square():
    q = LatticePolytope.from_vertices(SQUARE)
    assert facet_set(q) == {((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)}


def test_facets_double_simplex():
    q = LatticePolytope.from_vertices(DOUBLE_SIMPLEX)
    assert facet_set(q) == {((1, 0), 0), ((0, 1), 0), ((-1, -1), 2)}


def test_facets_segment():
    q = LatticePolytope.from_vertices(SEGMENT2)
    assert facet_set(q) == {((1,), 0), ((-1,), 2)}


def test_facets_reduce_to_extreme_vertices():
    q = LatticePolytope.from_vertices([[0], [1], [2]])
    assert q.vertices == ((0,), (2,))


def test_constructor_derives_the_facets():
    # Facets were taken from the caller: with [Facet((1, 0), 5)] the
    # triangle contained (-3, 100).
    q = LatticePolytope([[0, 0], [1, 0], [0, 1]])
    assert facet_set(q) == {((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)}
    assert not q.contains((-3, 100))
    assert q == LatticePolytope.from_vertices([[0, 0], [1, 0], [0, 1]])


def test_constructor_keeps_only_the_extreme_vertices(monkeypatch):
    # (1, 0) lies on the edge from (0, 0) to (2, 0): it was listed as a
    # vertex, and the Delzant report covered it.
    q = LatticePolytope([[0, 0], [1, 0], [2, 0], [0, 1]])
    assert q.vertices == ((0, 0), (0, 1), (2, 0))
    rep = q.delzant
    assert [r.vertex for r in rep.vertices] == [(0, 0), (0, 1), (2, 0)]
    assert not rep.ok and [r.vertex for r in rep.vertices if not r.ok] == [(0, 1)]
    # from_vertices leaves the reduction to the constructor: one LP pass.
    calls = []
    original = polytope.extreme_point_indices
    monkeypatch.setattr(polytope, "extreme_point_indices", lambda pts: calls.append(pts) or original(pts))
    assert LatticePolytope.from_vertices([[0, 0], [1, 0], [2, 0], [0, 1], [1, 0]]) == q
    assert calls == [[(0, 0), (0, 1), (1, 0), (2, 0)]]


def test_degenerate_input_rejected():
    with pytest.raises(ValueError, match="full-dimensional"):
        LatticePolytope.from_vertices([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(ValueError, match="full-dimensional"):
        LatticePolytope.from_vertices([[0, 0], [1, 0]])


@pytest.mark.parametrize("vertices", [[[]], [[], []]])
def test_zero_length_vertices_rejected(vertices):
    # They reached hull_facets, whose hyperplane normal raised IndexError.
    with pytest.raises(ValueError, match="positive dimension"):
        LatticePolytope.from_vertices(vertices)


@pytest.mark.parametrize("coordinate", [2.7, 2.0, Fraction(5, 2), Fraction(2), True])
def test_non_integer_coordinates_rejected(coordinate):
    # Each would be truncated to an int vertex, a different polytope.
    with pytest.raises(ValueError, match="integers"):
        LatticePolytope.from_vertices([[0, 0], [coordinate, 0], [0, 2]])


NON_INT_CALLS = {
    "det-fraction": lambda: det([[Fraction(1, 2)]]),
    "det-float": lambda: det([[2.5]]),
    "det-bool": lambda: det([[True]]),
    "primitive": lambda: primitive([Fraction(3, 2), 3]),
    "lattice_index": lambda: lattice_index([[Fraction(1, 2), 0]]),
    "lattice_index-unread-minor": lambda: lattice_index([[1, 0.5]]),
    "hull_facets": lambda: hull_facets([[0, 0], [2.5, 0], [0, 2]]),
    "contains": lambda: LatticePolytope.from_vertices([[0, 0], [2, 0], [0, 2], [2, 2]]).contains([2.7, 0]),
    "LatticePolytope": lambda: LatticePolytope([[0, 0], [2.7, 0], [0, 2]]),
    "on_triangulation": lambda: PLFunction.on_triangulation(
        Triangulation(config_of(SEGMENT2), [(0, 1), (1, 2)]), {0: 1, 1.9: 5, 2: 3}
    ),
}


@pytest.mark.parametrize("call", NON_INT_CALLS.values(), ids=NON_INT_CALLS.keys())
def test_non_int_entries_raise_type_error(call):
    # Each entry was truncated to an int: a determinant of 0 or 2, (1, 3)
    # for the primitive of (3/2, 3), an index the last minor never read, a
    # facet through (2, 0), (2.7, 0) inside the square, the key 1.9 read as
    # point 1.
    with pytest.raises(TypeError):
        call()


def test_extreme_point_indices_rejects_bool_coordinates():
    # (True, False) was read as (1, 0), between (0, 0) and (2, 0).
    with pytest.raises(TypeError, match="bools"):
        extreme_point_indices([[True, False], [0, 0], [2, 0], [0, 2]])


def test_lattice_points_segment():
    cfg = config_of(SEGMENT2)
    assert cfg.points == ((0,), (1,), (2,))


def test_lattice_points_square():
    cfg = config_of(SQUARE)
    assert cfg.points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_lattice_points_double_simplex():
    cfg = config_of(DOUBLE_SIMPLEX)
    assert len(cfg) == 6
    assert cfg.points == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))


def test_delzant_square():
    assert LatticePolytope.from_vertices(SQUARE).delzant.ok


def test_delzant_double_simplex():
    assert LatticePolytope.from_vertices(DOUBLE_SIMPLEX).delzant.ok


def test_delzant_cube():
    assert LatticePolytope.from_vertices(CUBE).delzant.ok


def test_non_delzant_triangle_report():
    rep = LatticePolytope.from_vertices(NON_DELZANT).delzant
    assert not rep.ok
    bad = {r.vertex: r for r in rep.vertices if not r.ok}
    assert set(bad) == {(0, 1)}
    assert abs(bad[(0, 1)].determinant) == 2


DATA = Path(__file__).parent.parent / "data"
DATA_FILES = sorted(DATA.glob("*.json"))


def assert_delzant_matches_the_facet_value_oracle(vertices):
    try:
        q = LatticePolytope.from_vertices(vertices)
    except ValueError:  # not full-dimensional
        reject()
    assert q.delzant == oracles.delzant(q)


@pytest.mark.parametrize(
    "vertices",
    [json.loads(p.read_text())["vertices"] for p in DATA_FILES] + [HEXAGON],
    ids=[p.stem for p in DATA_FILES] + ["hexagon"],
)
def test_delzant_matches_the_facet_value_oracle(vertices):
    assert_delzant_matches_the_facet_value_oracle(vertices)


@settings(max_examples=60, deadline=None)
@given(POLYGONS)
def test_delzant_matches_the_facet_value_oracle_on_random_polygons(vertices):
    assert_delzant_matches_the_facet_value_oracle(vertices)


@settings(max_examples=40, deadline=None)
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
@given(POLYTOPES_3D)
def test_delzant_matches_the_facet_value_oracle_on_random_3d_polytopes(vertices):
    assert_delzant_matches_the_facet_value_oracle(vertices)


@pytest.mark.parametrize("vertices", [NON_DELZANT, CUBE, HEXAGON], ids=["non_delzant", "cube", "hexagon"])
def test_delzant_and_facet_vertices_read_the_hull_incidences(monkeypatch, vertices):
    # Edges were found by evaluating every facet at every vertex, per pair.
    q = LatticePolytope.from_vertices(vertices)
    calls = []
    original = Facet.value
    monkeypatch.setattr(Facet, "value", lambda f, p: calls.append(p) or original(f, p))
    q.delzant
    for f in q.facets:
        assert q.facet_vertices(f) == tuple(v for v in q.vertices if original(f, v) == 0)
    assert calls == []


def test_normalized_volume_standard_simplex():
    cfg = config_of(UNIT_SIMPLEX)
    assert cfg.normalized_volume([cfg.index[(0, 0)], cfg.index[(1, 0)], cfg.index[(0, 1)]]) == 1


def test_normalized_volume_full_dimensional():
    cfg = config_of(DOUBLE_SIMPLEX)
    s = [cfg.index[(0, 0)], cfg.index[(2, 0)], cfg.index[(0, 2)]]
    assert cfg.normalized_volume(s) == 4


def test_normalized_volume_lower_dimensional_edge():
    cfg = config_of(DOUBLE_SIMPLEX)
    assert cfg.normalized_volume([cfg.index[(2, 0)], cfg.index[(0, 2)]]) == 2


def test_normalized_volume_point():
    cfg = config_of(SEGMENT2)
    assert cfg.normalized_volume([1]) == 1


def test_normalized_volume_rejects_dependent():
    cfg = config_of(DOUBLE_SIMPLEX)
    with pytest.raises(ValueError):
        cfg.normalized_volume([cfg.index[(0, 0)], cfg.index[(0, 1)], cfg.index[(0, 2)]])


def test_normalized_volume_rejects_indices_outside_the_configuration():
    # On [0, 2], (-1, 0) gave 2 and (-2, 0) gave 1 by wrapping around, and
    # () and (5,) raised IndexError.  A refused key is not memoised, so it
    # raises on every call.
    cfg = config_of(SEGMENT2)
    for ids in [(-1, 0), (-2, 0), (), (5,), (1, 1), [0, 3]]:
        for _ in range(2):
            with pytest.raises(ValueError, match=r"distinct point indices in range\(3\)"):
                cfg.normalized_volume(ids)
    for _ in range(2):
        with pytest.raises(ValueError, match="affinely dependent"):
            cfg.normalized_volume((0, 1, 2))
    assert cfg.normalized_volume((0, 2)) == cfg.normalized_volume([2, 0]) == 2


def test_cone_row_rejects_a_point_of_the_cell():
    # cone_row((0,), 0) gave (1, 0, 0), a row that does not sum to 0.
    cfg = config_of(SEGMENT2)
    for cell, k in [((0,), 0), ((0, 2), 2)]:
        with pytest.raises(ValueError, match=f"point {k} is a vertex of the cell"):
            cfg.cone_row(cell, k)
    assert cfg.cone_row((0, 2), 1) == (1, -2, 1)


def test_cone_row_rejects_a_dependent_cell():
    # On 2Δ² the points 0, 1, 2 are collinear, so point 3 has no barycentric
    # coordinates on that cell; this raised RuntimeError, unlike every other
    # refused key.
    cfg = config_of(DOUBLE_SIMPLEX)
    assert cfg.points[:4] == ((0, 0), (0, 1), (0, 2), (1, 0))
    with pytest.raises(ValueError, match=r"^point 3 has no barycentric coordinates on the cell \(0, 1, 2\)$"):
        cfg.cone_row((0, 1, 2), 3)


def test_keyed_facts_computed_once_per_key(monkeypatch):
    # Over analyze and both verify suites on the double simplex, each keyed
    # fact of the configuration is computed once per key: one lattice_index
    # call per distinct simplex, one facet scan per boundary wall and one
    # split per cone row.  A configuration binds the module functions when
    # it is built, so patching them first sees only its cache misses.
    indices, volumes, scans, splits = [], [], [], []
    lattice = polytope.lattice_index
    monkeypatch.setattr(polytope, "lattice_index", lambda edges: indices.append(edges) or lattice(edges))
    for name, seen in [("_volume", volumes), ("_lies_in_facet", scans), ("_circuit_sides", splits)]:
        fact = getattr(polytope, name)
        monkeypatch.setattr(polytope, name, lambda *args, fact=fact, seen=seen: seen.append(args[-1]) or fact(*args))
    analysis = analyze(DOUBLE_SIMPLEX)
    assert verify_identities(analysis, trials=5, seed=3).passed
    assert run_support_trials(analysis, count=20, seed=3).passed
    tris = [entry.triangulation for entry in analysis.enumeration]
    assert len(indices) == len(volumes) == len({tuple(sorted(ids)) for ids in volumes}) > len(tris)
    assert sorted(scans) == sorted({wall for tri in tris for wall in tri.massive_walls})
    assert sorted(splits) == sorted({row for tri in tris for row in tri.system.constraints})


def test_a_dropped_configuration_is_freed_without_the_cycle_collector():
    # The memo wrappers hold the data they read, not the configuration, so
    # dropping its last reference frees it and its memos at once, and a
    # wrapper read from a temporary configuration still answers.
    cfg = config_of(SQUARE)
    assert cfg.cone_row((0, 1, 2), 3) == cfg.cone_row((0, 1, 2), 3)
    assert cfg.normalized_volume((0, 1, 2)) == 1
    ref = weakref.ref(cfg)
    gc.disable()
    try:
        del cfg
        assert ref() is None
    finally:
        gc.enable()
    assert config_of(SEGMENT2).cone_row((0, 2), 1) == (1, -2, 1)
    assert config_of(SEGMENT2).dependence((0, 1, 2)) == (1, -2, 1)


def test_a_configuration_pickles_with_empty_memos():
    # The memo wrappers do not pickle, so a configuration pickles as its
    # polytope and points and the copy computes its facts afresh.
    cfg = config_of(SQUARE)
    row = cfg.cone_row((0, 1, 2), 3)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and copy.cone_row.cache_info().currsize == 0
    assert copy.cone_row((0, 1, 2), 3) == row and copy.volume == cfg.volume == 2


@pytest.mark.parametrize(
    "vertices,vol,bvol",
    [(SEGMENT2, 2, 2), (SQUARE, 2, 4), (DOUBLE_SIMPLEX, 4, 6), (CUBE, 6, 12)],
)
def test_volumes(vertices, vol, bvol):
    cfg = config_of(vertices)
    assert cfg.volume == vol
    assert cfg.boundary_volume == bvol


def test_is_massive_square_boundary_edge():
    cfg = config_of(SQUARE)
    assert oracles.is_massive(cfg, [cfg.index[(0, 0)], cfg.index[(1, 0)]])


def test_is_massive_square_diagonal():
    cfg = config_of(SQUARE)
    assert not oracles.is_massive(cfg, [cfg.index[(0, 0)], cfg.index[(1, 1)]])


def test_is_massive_double_simplex_interior_edge():
    cfg = config_of(DOUBLE_SIMPLEX)
    assert not oracles.is_massive(cfg, [cfg.index[(1, 0)], cfg.index[(0, 1)]])


def test_is_massive_rejects_wrong_dimension():
    cfg = config_of(SQUARE)
    with pytest.raises(ValueError):
        oracles.is_massive(cfg, [0])
    with pytest.raises(ValueError):
        oracles.is_massive(cfg, [0, 1, 2])


def test_extreme_point_indices():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)]
    assert extreme_point_indices(pts) == [0, 1, 2]
    # Only the listed points are tested, each against all the others.
    assert extreme_point_indices(pts, [4, 2, 3]) == [2]


def test_extreme_point_indices_rejects_repeated_points():
    # Each copy of (0, 0) is a convex combination of the other, so the
    # vertex (0, 0) was lost: [2, 3] came back.
    with pytest.raises(ValueError, match="distinct"):
        extreme_point_indices([(0, 0), (0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="distinct"):
        extreme_point_indices([[0, 0], (1, 0), (0, 0), (0, 1)], [1])


@given(st.permutations(range(4)))
def test_placing_volume_is_order_independent(order):
    cfg = config_of(SQUARE)
    cells = placing_cells(cfg, order)
    assert sum(cfg.normalized_volume(c) for c in cells) == 2


def test_boundary_volume_matches_massive_walls(double_simplex):
    # Restricted to one facet, the massive walls of any triangulation tile it.
    q = double_simplex.polytope
    cfg = double_simplex.config
    for entry in double_simplex.enumeration:
        tri = entry.triangulation
        for facet in q.facets:
            walls = [
                w
                for w in tri.massive_walls
                if all(facet.value(cfg.points[i]) == 0 for i in w)
            ]
            total = sum(cfg.normalized_volume(w) for w in walls)
            facet_ids = [cfg.index[p] for p in q.facet_vertices(facet)]
            fvol = sum(cfg.normalized_volume(cell) for cell in placing_cells(cfg, facet_ids))
            assert total == fvol


def test_boundary_vector_totals(square):
    for entry in square.enumeration:
        bd = boundary_vector(entry.triangulation)
        assert sum(bd) == square.config.dim * square.config.boundary_volume


@given(
    st.lists(
        st.tuples(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4)),
        min_size=3,
        max_size=7,
    )
)
def test_volumes_against_pick_theorem(raw):
    # Independent 2d oracle: normalized volume = 2*interior + boundary - 2 and
    # normalized boundary volume = boundary lattice point count.
    try:
        q = LatticePolytope.from_vertices(raw)
    except ValueError:
        return
    cfg = lattice_points(q)
    boundary = sum(1 for p in cfg.points if any(f.value(p) == 0 for f in q.facets))
    interior = len(cfg) - boundary
    assert cfg.volume == 2 * interior + boundary - 2
    assert cfg.boundary_volume == boundary
