from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CUBE, DOUBLE_SIMPLEX, NON_DELZANT, SEGMENT2, SQUARE, UNIT_SIMPLEX, config_of
import oracles
from toricweights import polytope
from toricweights.exact import det, lattice_index, primitive
from toricweights.functionals import PLFunction
from toricweights.polytope import (
    LatticePolytope,
    extreme_point_indices,
    hull_facets,
    lattice_points,
    placing_cells,
)
from toricweights.triangulation import Triangulation
from toricweights.vectors import boundary_vector


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


@pytest.mark.parametrize(
    "vertices,vol,bvol",
    [(SEGMENT2, 2, 2), (SQUARE, 2, 4), (DOUBLE_SIMPLEX, 4, 6), (CUBE, 6, 12)],
)
def test_volumes(vertices, vol, bvol):
    q = LatticePolytope.from_vertices(vertices)
    assert q.volume == vol
    assert q.boundary_volume == bvol


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


@given(st.permutations(range(4)))
def test_placing_volume_is_order_independent(order):
    cfg = config_of(SQUARE)
    cells = placing_cells(cfg.points, order)
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
            facet_pts = q.facet_vertices(facet)
            fvol = sum(
                cfg.normalized_volume(
                    [cfg.index[p] for p in (facet_pts[i] for i in cell)]
                )
                for cell in placing_cells(facet_pts, range(len(facet_pts)))
            )
            assert total == fvol


def test_boundary_vector_totals(square):
    for entry in square.enumeration:
        bd = boundary_vector(entry.triangulation)
        assert sum(bd) == square.polytope.dim * square.polytope.boundary_volume


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
    assert q.volume == 2 * interior + boundary - 2
    assert q.boundary_volume == boundary
