from conftest import SEGMENT2, SQUARE, config_of
from toricweights.triangulation import Triangulation
from toricweights.vectors import boundary_vector, gkz_vector, hurwitz_vector


def test_gkz_segment_fine():
    cfg = config_of(SEGMENT2)
    assert gkz_vector(Triangulation(cfg, [(0, 1), (1, 2)])) == (1, 2, 1)


def test_gkz_segment_coarse():
    cfg = config_of(SEGMENT2)
    assert gkz_vector(Triangulation(cfg, [(0, 2)])) == (2, 0, 2)


def test_gkz_square_diagonal():
    cfg = config_of(SQUARE)
    # diagonal (0,0)-(1,1): indices 0 and 3 in lex order
    assert gkz_vector(Triangulation(cfg, [(0, 1, 3), (0, 2, 3)])) == (2, 1, 1, 2)


def test_boundary_segment_both():
    cfg = config_of(SEGMENT2)
    for cells in ([(0, 1), (1, 2)], [(0, 2)]):
        assert boundary_vector(Triangulation(cfg, cells)) == (1, 0, 1)


def test_boundary_square_both_diagonals():
    cfg = config_of(SQUARE)
    for cells in ([(0, 1, 3), (0, 2, 3)], [(0, 1, 2), (1, 2, 3)]):
        assert boundary_vector(Triangulation(cfg, cells)) == (2, 2, 2, 2)


def test_boundary_double_simplex_unit_edges(double_simplex):
    cfg = double_simplex.config
    for entry in double_simplex.enumeration:
        tri = entry.triangulation
        if all(cfg.normalized_volume(w) == 1 for w in tri.massive_walls):
            assert boundary_vector(tri) == (2, 2, 2, 2, 2, 2)


def test_hurwitz_segment():
    cfg = config_of(SEGMENT2)
    assert hurwitz_vector(Triangulation(cfg, [(0, 1), (1, 2)])) == (0, 2, 0)
    assert hurwitz_vector(Triangulation(cfg, [(0, 2)])) == (1, 0, 1)


def test_hurwitz_square():
    cfg = config_of(SQUARE)
    assert hurwitz_vector(Triangulation(cfg, [(0, 1, 3), (0, 2, 3)])) == (2, 0, 0, 2)
    assert hurwitz_vector(Triangulation(cfg, [(0, 1, 2), (1, 2, 3)])) == (0, 2, 2, 0)


def test_sum_invariants(double_simplex):
    cfg = double_simplex.config
    n = cfg.dim
    deg_h = (n + 1) * cfg.volume - cfg.boundary_volume
    for entry in double_simplex.enumeration:
        tri = entry.triangulation
        assert sum(gkz_vector(tri)) == (n + 1) * cfg.volume
        assert sum(boundary_vector(tri)) == n * cfg.boundary_volume
        assert sum(hurwitz_vector(tri)) == n * deg_h


def test_gkz_zero_exactly_at_unused_points(double_simplex):
    for entry in double_simplex.enumeration:
        tri = entry.triangulation
        used = set(tri.used_points)
        for i, e in enumerate(gkz_vector(tri)):
            assert (e == 0) == (i not in used)


def test_affine_pairings_are_triangulation_independent(double_simplex):
    cfg = double_simplex.config
    n = cfg.dim
    affine = [[1] * len(cfg)] + [[p[j] for p in cfg.points] for j in range(n)]
    reference = None
    for entry in double_simplex.enumeration:
        eta = gkz_vector(entry.triangulation)
        xi = hurwitz_vector(entry.triangulation)
        values = [
            (sum(e * a for e, a in zip(eta, fn)), sum(x * a for x, a in zip(xi, fn)))
            for fn in affine
        ]
        if reference is None:
            reference = values
        else:
            assert values == reference
