import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from conftest import CUBE, DOUBLE_SIMPLEX, HEXAGON, SEGMENT2, SEGMENT3, SQUARE, config_of
import oracles
from oracles import all_triangulations
from toricweights import exact, polytope, triangulation
from toricweights.lp import Constraint, LinearSystem, feasible_strict
from toricweights.triangulation import (
    EnumerationCapExceeded,
    EnumerationCaps,
    Lifting,
    Triangulation,
    carry_witness,
    cone_system,
    enumerate_regular,
    flips,
    is_regular,
    lower_hull_subdivision,
    placing_triangulation,
)


def test_triangulation_validates_volume():
    cfg = config_of(SEGMENT2)
    with pytest.raises(ValueError, match="volume"):
        Triangulation(cfg, [(0, 1)])


def test_triangulation_validates_walls():
    cfg = config_of(SQUARE)
    with pytest.raises(ValueError):
        Triangulation(cfg, [(0, 1, 3), (0, 1, 2)])  # overlapping pair


def test_placing_segment_fine():
    cfg = config_of(SEGMENT2)
    t = placing_triangulation(cfg, (0, 1, 2))
    assert t.simplices == ((0, 1), (1, 2))


def test_placing_segment_interior_point_last():
    # The midpoint, inserted last, lands inside an existing simplex and is
    # skipped by the placing rule.
    cfg = config_of(SEGMENT2)
    t = placing_triangulation(cfg, (0, 2, 1))
    assert t.simplices == ((0, 2),)


def test_placing_square_lex():
    # Lexicographic placing cones (1,1) over the edge {(0,1),(1,0)} it sees,
    # giving the triangulation with that diagonal.
    cfg = config_of(SQUARE)
    t = placing_triangulation(cfg)
    assert t.simplices == ((0, 1, 2), (1, 2, 3))


def test_placing_rejects_partial_order():
    cfg = config_of(SEGMENT2)
    with pytest.raises(ValueError):
        placing_triangulation(cfg, (0, 1))


def test_lower_hull_fine_triangulation():
    cfg = config_of(SEGMENT2)
    sub = lower_hull_subdivision(cfg, Lifting((0, -1, 0)))
    assert sub.cells == ((0, 1), (1, 2)) and sub.is_triangulation


def test_lower_hull_zero_lifting_coarse():
    cfg = config_of(SEGMENT2)
    sub = lower_hull_subdivision(cfg, Lifting((0, 0, 0)))
    assert sub.cells == ((0, 2),) and sub.is_triangulation


def test_lower_hull_point_lifted_above():
    cfg = config_of(SEGMENT2)
    sub = lower_hull_subdivision(cfg, Lifting.normalized((0, 1, 0)))
    assert sub.cells == ((0, 2),)


def test_lower_hull_cell_vertices_are_extreme_only():
    # Heights (0,-1,-2,-2) on [0,3]: the lift of point 1 lies on the segment
    # from lift 0 to lift 2, so it is not a vertex of that lower facet.
    cfg = config_of([[0], [3]])
    sub = lower_hull_subdivision(cfg, Lifting((0, -1, -2, -2)))
    assert sub.cells == ((0, 2), (2, 3))
    assert sub.is_triangulation


def test_lower_hull_non_simplicial_flag():
    cfg = config_of(SQUARE)
    sub = lower_hull_subdivision(cfg, Lifting((0, 0, 0, 0)))
    assert sub.cells == ((0, 1, 2, 3),)
    assert not sub.is_triangulation


def test_lifting_normalization():
    assert Lifting.normalized((3, 1, 2)).heights == (0, -2, -1)
    with pytest.raises(ValueError):
        Lifting((1, 0))
    # Non-integer heights are rejected, not truncated: [0, -1/2, 0] on [0, 2]
    # induces the fine triangulation, [0, 0, 0] the coarse one.
    for heights in ([0, Fraction(-1, 2), 0], [0, -0.5, 0], [0, Fraction(-1), 0]):
        with pytest.raises(ValueError, match="integers"):
            Lifting.normalized(heights)
        with pytest.raises(ValueError, match="integers"):
            lower_hull_subdivision(config_of(SEGMENT2), heights)


def test_lifting_rejects_bool_heights():
    # A bool passed as 0 or 1: [True, 0, 0, 0] on the square was read as
    # [1, 0, 0, 0] and gave a triangulation.
    with pytest.raises(ValueError, match="integers"):
        Lifting((False, -1))
    for heights in ([True, 0, 0, 0], [0, False, -1, -1]):
        with pytest.raises(ValueError, match="integers"):
            Lifting.normalized(heights)
        with pytest.raises(ValueError, match="integers"):
            lower_hull_subdivision(config_of(SQUARE), heights)


def test_certificate_keeps_its_repr_and_flips_are_plain_records():
    cfg = config_of(SQUARE)
    placing = placing_triangulation(cfg)
    assert repr(is_regular(placing)) == (
        "RegularityCertificate(witness=Lifting(heights=(0, -1, -1, -1)), system=None)"
    )
    (flip,) = flips(placing)
    assert flip == ((0, 3), (1, 2), ((0, 1, 3), (0, 2, 3)), Constraint((-1, 1, 1, -1), 1))
    assert flip._fields == ("removed", "inserted", "simplices", "row")


def test_is_regular_fine_segment():
    cfg = config_of(SEGMENT2)
    t = Triangulation(cfg, [(0, 1), (1, 2)])
    cert = is_regular(t)
    assert cert.regular
    h = cert.witness.heights
    assert 2 * h[1] < h[0] + h[2]


def test_is_regular_coarse_segment():
    cfg = config_of(SEGMENT2)
    cert = is_regular(Triangulation(cfg, [(0, 2)]))
    assert cert.regular
    h = cert.witness.heights
    # the unused midpoint must be lifted strictly above the envelope
    assert 2 * h[1] > h[0] + h[2]


SPIRAL_OUTER = [[0, 0], [4, 0], [0, 4]]


def spiral_triangulation():
    cfg = config_of(SPIRAL_OUTER)
    ix = cfg.index
    o1, o2, o3 = ix[(0, 0)], ix[(4, 0)], ix[(0, 4)]
    i1, i2, i3 = ix[(1, 1)], ix[(2, 1)], ix[(1, 2)]
    cells = [
        (i1, i2, i3),
        (o1, o2, i2), (o1, i1, i2),
        (o2, o3, i3), (o2, i2, i3),
        (o3, o1, i1), (o3, i1, i3),
    ]
    return cfg, Triangulation(cfg, cells)


def test_irreducible_subsystem_is_computed_on_first_read(monkeypatch):
    # Regularity needs one LP; the Gordan certificate is one more LP, solved
    # only when the infeasible subsystem is read, and only once.
    _, tri = spiral_triangulation()
    strict, gordan = [], []
    lp_strict, lp_gordan = triangulation.feasible_strict, triangulation.nonnegative_feasible
    monkeypatch.setattr(triangulation, "feasible_strict", lambda *args: strict.append(args) or lp_strict(*args))
    monkeypatch.setattr(triangulation, "nonnegative_feasible", lambda *args: gordan.append(args) or lp_gordan(*args))
    cert = is_regular(tri)
    assert not cert.regular and len(strict) == 1 and gordan == []
    sub = cert.infeasible_subsystem
    assert len(strict) == 1 and len(gordan) == 1
    assert cert.infeasible_subsystem is sub and len(strict) == 1 and len(gordan) == 1


def test_known_irregular_triangulation():
    # Nested triangles with all quadrilaterals split the same way around: the
    # classic non-regular triangulation.  The certificate carries an
    # irreducible infeasible subsystem (the three cyclic fold inequalities).
    cfg, tri = spiral_triangulation()
    cert = is_regular(tri)
    assert not cert.regular
    sub = cert.infeasible_subsystem
    assert feasible_strict(sub) is None
    for i in range(len(sub.constraints)):
        rest = sub.constraints[:i] + sub.constraints[i + 1 :]
        if rest:
            from toricweights.lp import LinearSystem

            assert feasible_strict(LinearSystem(rest, sub.dim)) is not None


def test_spiral_with_one_diagonal_flipped_is_regular():
    cfg, tri = spiral_triangulation()
    ix = cfg.index
    o1, o3 = ix[(0, 0)], ix[(0, 4)]
    i1, i3 = ix[(1, 1)], ix[(1, 2)]
    cells = [s for s in tri.simplices if s not in {tuple(sorted((o3, o1, i1))), tuple(sorted((o3, i1, i3)))}]
    cells += [tuple(sorted((o1, o3, i3))), tuple(sorted((o1, i1, i3)))]
    assert is_regular(Triangulation(cfg, cells)).regular


def test_irreducible_subsystems_of_spiral_flip_neighbours():
    # Each irregular neighbour's subsystem, read off a Gordan certificate, is
    # infeasible, and dropping any one of its rows makes it feasible.
    _, tri = spiral_triangulation()
    certs = [is_regular(Triangulation(tri.config, f.simplices)) for f in flips(tri)]
    irregular = [cert for cert in certs if not cert.regular]
    assert len(irregular) == 9
    for cert in irregular:
        rows, dim = cert.infeasible_subsystem.constraints, cert.infeasible_subsystem.dim
        assert feasible_strict(LinearSystem(rows, dim)) is None
        for i in range(len(rows)):
            assert feasible_strict(LinearSystem(rows[:i] + rows[i + 1 :], dim)) is not None


def test_certificate_round_trip(square, double_simplex):
    for analysis in (square, double_simplex):
        for entry in analysis.enumeration:
            sub = lower_hull_subdivision(analysis.config, entry.certificate.witness)
            assert sub.is_triangulation
            assert sub.cells == entry.triangulation.simplices


def test_flip_square_diagonal():
    cfg = config_of(SQUARE)
    t = Triangulation(cfg, [(0, 1, 3), (0, 2, 3)])
    fs = flips(t)
    assert len(fs) == 1
    assert fs[0].simplices == ((0, 1, 2), (1, 2, 3))


def test_flip_removes_interior_point():
    cfg = config_of(SEGMENT2)
    t = Triangulation(cfg, [(0, 1), (1, 2)])
    fs = flips(t)
    assert [(f.removed, f.inserted) for f in fs] == [((0, 2), (1,))]
    assert fs[0].simplices == ((0, 2),)


def test_enumerate_segment(segment):
    assert len(segment.enumeration) == 2
    assert segment.enumeration.canonical_forms() == {((0, 1), (1, 2)), ((0, 2),)}


def test_enumerate_square(square):
    assert len(square.enumeration) == 2


def test_enumerate_segment3(segment3):
    forms = segment3.enumeration.canonical_forms()
    assert forms == {
        ((0, 1), (1, 2), (2, 3)),
        ((0, 2), (2, 3)),
        ((0, 1), (1, 3)),
        ((0, 3),),
    }


def test_enumeration_cap_is_loud():
    cfg = config_of(SQUARE)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_regular(cfg, caps=EnumerationCaps(max_triangulations=1))


def test_enumeration_volume_partition(double_simplex):
    cfg = double_simplex.config
    vol = cfg.polytope.volume
    for entry in double_simplex.enumeration:
        assert sum(cfg.normalized_volume(s) for s in entry.triangulation.simplices) == vol


def test_enumeration_order_independent(double_simplex):
    cfg = double_simplex.config
    base = double_simplex.enumeration.canonical_forms()
    rng = random.Random(11)
    for _ in range(3):
        order = list(range(len(cfg)))
        rng.shuffle(order)
        assert enumerate_regular(cfg, order=order).canonical_forms() == base


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=0), min_size=6, max_size=6))
def test_simplicial_lower_hulls_are_enumerated(heights):
    cfg = config_of(DOUBLE_SIMPLEX)
    sub = lower_hull_subdivision(cfg, Lifting.normalized(heights))
    if not sub.is_triangulation:
        return
    forms = enumerate_regular(cfg).canonical_forms()
    assert sub.cells in forms


def test_cone_system_matches_hand_inequality():
    cfg = config_of(SEGMENT2)
    t = Triangulation(cfg, [(0, 1), (1, 2)])
    sys = cone_system(t)
    assert len(sys.constraints) == 1
    c = sys.constraints[0]
    # 2*l1 - l0 - l2 < 0, scaled to -1 at point 2, the point beyond the wall
    assert (c.nums, c.den) == ((-1, 2, -1), 1)


def test_brute_force_matches_bfs_on_double_simplex(double_simplex):
    brute = all_triangulations(double_simplex.config)
    regular = {
        c
        for c in brute
        if is_regular(Triangulation(double_simplex.config, c)).regular
    }
    assert regular == double_simplex.enumeration.canonical_forms()
    assert len(brute) == 14


def test_brute_force_matches_bfs_on_rectangle():
    # [0,2] x [0,1]: six points, mixed cell shapes, checks flips in a second
    # 2d geometry beyond the bundled acceptance polytopes.
    cfg = config_of([[0, 0], [2, 0], [0, 1], [2, 1]])
    brute = all_triangulations(cfg)
    regular = {c for c in brute if is_regular(Triangulation(cfg, c)).regular}
    assert regular == enumerate_regular(cfg).canonical_forms()
    assert len(brute) == len(regular)


def test_octahedron_with_center():
    # Octahedron plus its center: the three diagonal triangulations and the
    # star over the center; the star <-> diagonal flip has a 4-element link,
    # exercising insertion flips in dimension 3.
    cfg = config_of([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    enum = enumerate_regular(cfg)
    assert len(enum) == 4
    sizes = sorted(len(e.triangulation.simplices) for e in enum)
    assert sizes == [4, 4, 4, 8]
    brute = all_triangulations(cfg)
    assert brute == enum.canonical_forms()
    star = next(e.triangulation for e in enum if len(e.triangulation.simplices) == 8)
    center = cfg.index[(0, 0, 0)]
    assert center in star.used_points
    removals = [f for f in flips(star) if center not in {i for s in f.simplices for i in s}]
    assert len(removals) == 3


def test_brute_force_matches_bfs_on_hexagon():
    # Smooth hexagon (one interior point, 7 points total): 32 triangulations,
    # all regular.
    cfg = config_of([[0, 0], [1, 0], [0, 1], [2, 1], [1, 2], [2, 2]])
    brute = all_triangulations(cfg)
    assert len(brute) == 32
    regular = {c for c in brute if is_regular(Triangulation(cfg, c)).regular}
    assert regular == brute == enumerate_regular(cfg).canonical_forms()


def test_three_by_three_grid_has_only_regular_triangulations():
    # 387 is the known triangulation count of the 3x3 grid; with only one
    # interior point every one of them is regular, which is why the irregular
    # example above needs the nested-triangles configuration instead.
    cfg = config_of([[0, 0], [2, 0], [0, 2], [2, 2]])
    brute = all_triangulations(cfg)
    assert len(brute) == 387
    assert all(is_regular(Triangulation(cfg, c)).regular for c in brute)
    assert enumerate_regular(cfg).canonical_forms() == brute


GRID3X3 = [[0, 0], [2, 0], [0, 2], [2, 2]]
DATA = Path(__file__).resolve().parent.parent / "data"

# sha256 of the JSON list of [simplices, witness heights] over the entries of
# the enumeration with the default placing order, recorded when witnesses
# were first carried across flip walls (the LP only on a miss); the grid's
# again when the cone LP became a single simplex phase, which moved one
# carried witness there.  Witnesses are printed in machine output, so a
# changed pivot sequence or carry rule must show here.
WITNESS_DIGESTS = [
    (GRID3X3, 387, "b78b6c2e2f03ae790720b87c6a5f9eb199e078b328140b8b8b2aaa7bf940c579"),
    (CUBE, 74, "2b7a7c7eb425f77d43a4b75de4e4947bad25bad3be14536e38eccbf381e4c44b"),
    (HEXAGON, 32, "bad7d953b921bd3c622b8f5d065e80a38194c1577465ffcd0dad407d15211683"),
]


@pytest.mark.parametrize("vertices,count,digest", WITNESS_DIGESTS)
def test_witnesses_are_pinned(vertices, count, digest):
    enum = enumerate_regular(config_of(vertices))
    doc = [[e.triangulation.simplices, e.certificate.witness.heights] for e in enum]
    assert len(doc) == count
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


# sha256 of the JSON list of the entries' simplices, recorded while every
# witness was an LP solution: the canonical forms and their order do not
# depend on how the witnesses were found.
FORM_DIGESTS = [
    (GRID3X3, 387, "fdb21e527376549fd6e03dd6b2b235e84633ed8a18211b6eb9cdef04cac8630f"),
    (CUBE, 74, "3d5bfb2183dcd23667fe4bf56f3c3316cc445f5feab5ecb87807a57f6d0e1ffc"),
    (HEXAGON, 32, "4fec7ab48f0bf6b8e9b12fa22d0791f277480ae5d3e59543f7f3fba797c46ace"),
]


@pytest.mark.parametrize("vertices,count,digest", FORM_DIGESTS)
def test_canonical_forms_are_pinned(vertices, count, digest):
    doc = [e.triangulation.simplices for e in enumerate_regular(config_of(vertices))]
    assert len(doc) == count
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


def test_circuits_computed_once_per_point_set(monkeypatch):
    cfg = config_of(GRID3X3)
    seen = []
    original = polytope.affine_dependence

    def counting(points):
        seen.append(tuple(map(tuple, points)))
        return original(points)

    monkeypatch.setattr(polytope, "affine_dependence", counting)
    assert len(enumerate_regular(cfg)) == 387
    assert len(seen) == len(set(seen)) == 126


@pytest.mark.parametrize("vertices,lps,bits", [(GRID3X3, 119, 16), (CUBE, 18, 14)])
def test_enumeration_solves_the_cone_lp_only_on_a_miss(monkeypatch, vertices, lps, bits):
    # Witnesses are carried across flip walls; the LP runs for the seed and
    # for each neighbour the carried witness misses (387 and 74 LPs when
    # every triangulation had its own).  Carried witnesses stay small.
    calls = []
    monkeypatch.setattr(triangulation, "feasible_strict", lambda system: calls.append(system) or feasible_strict(system))
    enum = enumerate_regular(config_of(vertices))
    assert len(calls) == lps
    assert max(abs(h).bit_length() for e in enum for h in e.certificate.witness.heights) <= bits


def test_carried_witness_crosses_a_segment_wall():
    # Points 0..3 on a line.  The placing triangulation {01, 12, 23} has the
    # LP witness (0, -2, -3, -3); its first flip drops point 1, with row
    # a = (-1, 2, -1, 0): a.lambda = -1, a.a = 6, so mu = 6 lambda + a =
    # (-1, -10, -19, -18).  The neighbour's rows are (-1, 0, 3, -2)/2, with
    # b.mu = -20 and b.a = -2, so c > -1/10, and -a/2, with -a.mu = 0 and
    # -a.a = -6 < 0.  So c = 0 and the carried witness is a, shifted to
    # max 0.
    cfg = config_of(SEGMENT3)
    seed = placing_triangulation(cfg)
    system = cone_system(seed)
    flip = flips(seed, system)[0]
    lam = is_regular(seed, system).witness
    assert lam.heights == (0, -2, -3, -3) and flip.row.nums == (-1, 2, -1, 0)
    carried = carry_witness(lam, flip.row, cone_system(Triangulation(cfg, flip.simplices)))
    assert carried.heights == (-3, 0, -3, -2)
    assert lower_hull_subdivision(cfg, carried).cells == flip.simplices == ((0, 2), (2, 3))


def test_carried_witness_misses_when_the_wall_point_is_affine():
    # The square's liftings modulo affine functions form a line, so mu, on
    # the wall, is affine: no neighbour row bounds c, and the LP decides.
    cfg = config_of(SQUARE)
    seed = placing_triangulation(cfg)
    system = cone_system(seed)
    (flip,) = flips(seed, system)
    lam = is_regular(seed, system).witness
    assert carry_witness(lam, flip.row, cone_system(Triangulation(cfg, flip.simplices))) is None


def test_validation_makes_no_rank_call(monkeypatch):
    # Nonzero cell volumes already imply that every wall is independent.
    cfg = config_of(CUBE)
    cells = placing_triangulation(cfg).simplices
    calls = []
    original = polytope.rank
    monkeypatch.setattr(polytope, "rank", lambda m: calls.append(m) or original(m))
    tri = Triangulation(cfg, cells)
    assert tri.massive_walls and calls == []
    assert oracles.is_massive(cfg, tri.massive_walls[0])
    polytope.hull_facets(cfg.points)  # the patched rank is reached
    assert len(calls) == 1


def test_is_massive_rejects_dependent_wall():
    # Three collinear points on a facet: the facet test alone would accept
    # them, the public check must still refuse a dependent wall.
    cfg = config_of([[0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]])
    wall = [cfg.index[(0, 0, 0)], cfg.index[(1, 0, 0)], cfg.index[(2, 0, 0)]]
    assert cfg._lies_in_facet(tuple(wall))
    with pytest.raises(ValueError, match="independent"):
        oracles.is_massive(cfg, wall)


def test_cone_system_rejects_uncovered_point():
    # Built around validation, which would refuse it.
    broken = object.__new__(Triangulation)
    broken.config, broken.simplices = config_of(SEGMENT2), ((0, 1),)
    with pytest.raises(RuntimeError, match="lies in no cell"):
        cone_system(broken)


@pytest.mark.parametrize(
    "vertices",
    [json.loads(path.read_text())["vertices"] for path in sorted(DATA.glob("*.json"))] + [HEXAGON, GRID3X3],
)
def test_cone_system_matches_elimination_oracle(vertices):
    # Rows read from the configuration's dependences equal the rows that one
    # affine_combination per wall and unused point gives.
    for entry in enumerate_regular(config_of(vertices)):
        tri = entry.triangulation
        assert cone_system(tri).constraints == oracles.cone_system(tri).constraints


def test_cone_system_of_irregular_triangulation_matches_elimination_oracle():
    _, tri = spiral_triangulation()
    assert cone_system(tri).constraints == oracles.cone_system(tri).constraints


def test_cone_system_does_no_elimination(monkeypatch):
    enum = enumerate_regular(config_of(GRID3X3))
    calls = []
    original = exact.solve_linear
    monkeypatch.setattr(exact, "solve_linear", lambda m, b: calls.append(m) or original(m, b))
    for entry in enum:
        cone_system(entry.triangulation)
    assert calls == []


HULL_SHAPES = [json.loads(path.read_text())["vertices"] for path in sorted(DATA.glob("*.json"))] + [HEXAGON, GRID3X3]


@pytest.mark.parametrize("vertices", HULL_SHAPES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lower_hull_matches_facet_search_oracle(vertices, data):
    # Heights in [-1, 0] and [-2, 0] often give non-simplicial hulls; zero
    # and affine heights give the single cell.
    cfg = config_of(vertices)
    low = data.draw(st.sampled_from((-1, -2, -30)))
    heights = data.draw(st.lists(st.integers(low, 0), min_size=len(cfg), max_size=len(cfg)))
    assert lower_hull_subdivision(cfg, heights) == oracles.lower_hull_subdivision(cfg, heights)


@pytest.mark.parametrize("vertices", HULL_SHAPES)
def test_lower_hull_of_affine_heights_is_one_cell(vertices):
    cfg = config_of(vertices)
    for heights in ([0] * len(cfg), [-sum(p) for p in cfg.points]):
        sub = lower_hull_subdivision(cfg, heights)
        assert sub == oracles.lower_hull_subdivision(cfg, heights)
        assert sub.cells == (tuple(sorted(oracles.vertex_indices(cfg))),)


def test_lower_hull_makes_no_hull_facets_call(monkeypatch):
    cfg = config_of(GRID3X3)
    heights = [0, -1, -3, -1, -4, -2, 0, -5, -1]
    expected = oracles.lower_hull_subdivision(cfg, heights)
    calls = []
    original = polytope.hull_facets

    def counting(points):
        calls.append(points)
        return original(points)

    monkeypatch.setattr(polytope, "hull_facets", counting)
    monkeypatch.setattr(triangulation, "hull_facets", counting, raising=False)
    assert lower_hull_subdivision(cfg, heights) == expected
    assert calls == []


def test_lower_hull_tests_are_built_once_per_configuration(monkeypatch):
    # The side tests are memoised on the configuration: a second lifting's
    # lower hull reads no dependence.
    cfg = config_of(GRID3X3)
    lower_hull_subdivision(cfg, [0, -1, -3, -1, -4, -2, 0, -5, -1])
    heights = [-2, 0, -1, -3, -7, -1, 0, -2, -4]
    expected = oracles.lower_hull_subdivision(cfg, heights)
    calls = []
    original = cfg.dependence
    monkeypatch.setattr(cfg, "dependence", lambda ids: calls.append(ids) or original(ids))
    assert lower_hull_subdivision(cfg, heights) == expected
    assert calls == []


def placing_point_sets(vertices):
    """The point sets that get placed: the lattice points (the enumeration
    seed), the vertex set (``volume``) and each facet's vertex set
    (``boundary_volume``, placings of lower dimension)."""
    cfg = config_of(vertices)
    q = cfg.polytope
    return [cfg.points, q.vertices] + [q.facet_vertices(f) for f in q.facets]


@pytest.mark.parametrize("vertices", HULL_SHAPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_placing_matches_face_functional_oracle(vertices, data):
    # Visibility read from barycentric coordinates gives the cells that one
    # face functional per boundary face gives, in any insertion order.
    for points in placing_point_sets(vertices):
        order = data.draw(st.permutations(range(len(points))))
        assert polytope.placing_cells(points, order) == oracles.placing_cells(points, order)


def flip_triples(fs):
    return [(f.removed, f.inserted, f.simplices) for f in fs]


def oracle_flip_triples(fs):
    return [(f.removed, f.inserted, f.result.simplices) for f in fs]


@pytest.mark.parametrize("vertices", HULL_SHAPES)
def test_flips_match_scanning_oracle(vertices):
    # Key-first flips with a face index give the same flips, in the same
    # order, with the same results as scanning every simplex per coface.
    for entry in enumerate_regular(config_of(vertices)):
        tri = entry.triangulation
        assert flip_triples(flips(tri)) == oracle_flip_triples(oracles.flips(tri))


def test_flips_of_irregular_triangulation_match_scanning_oracle():
    _, tri = spiral_triangulation()
    fs = flips(tri)
    assert fs and flip_triples(fs) == oracle_flip_triples(oracles.flips(tri))
    for f in fs:
        nb = Triangulation(tri.config, f.simplices)
        assert flip_triples(flips(nb)) == oracle_flip_triples(oracles.flips(nb))


def test_enumeration_validates_each_triangulation_once(monkeypatch):
    # A flip result already found is discarded by its key, unbuilt: the 3x3
    # grid validates its 387 triangulations once each (scanning every flip
    # result validated 2,381).
    validated = []
    original = Triangulation._validate
    monkeypatch.setattr(Triangulation, "_validate", lambda self: validated.append(self.simplices) or original(self))
    assert len(enumerate_regular(config_of(GRID3X3))) == 387
    assert len(validated) == len(set(validated)) == 387


def test_grid_enumeration_builds_each_cone_system_once(monkeypatch):
    # A kept triangulation's cone system serves both its regularity LP and
    # its flips: 387 systems on the 3x3 grid (774 when each built its own).
    # Regular certificates still keep no rows.
    built = []
    original = triangulation.cone_system
    monkeypatch.setattr(triangulation, "cone_system", lambda tri: built.append(tri.simplices) or original(tri))
    enum = enumerate_regular(config_of(GRID3X3))
    assert len(enum) == 387
    assert len(built) == len(set(built)) == 387
    assert all(entry.certificate.system is None for entry in enum)


def test_grid_enumeration_tries_each_candidate_circuit_once(monkeypatch):
    # Candidate circuits are the cone system's rows, each tried once in the
    # orientation its row gives: 2,668 calls on the 3x3 grid (scanning every
    # cell and outside point made 10,164; trying both orientations 20,328).
    calls = []
    original = triangulation._try_flip
    monkeypatch.setattr(triangulation, "_try_flip", lambda *args: calls.append(args) or original(*args))
    assert len(enumerate_regular(config_of(GRID3X3))) == 387
    assert len(calls) == 2668


POLYGONS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=6, unique=True)
# Centred on the origin, so some draws (the octahedron) have an interior point.
POLYTOPES_3D = st.lists(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1)), min_size=4, max_size=6, unique=True
)


def small_config(vertices):
    try:
        cfg = config_of(vertices)
    except ValueError:  # not full-dimensional
        reject()
    assume(len(cfg) <= 8)
    return cfg


@settings(max_examples=25, deadline=None)
@example(SQUARE)
@example(DOUBLE_SIMPLEX)
@given(POLYGONS)
def test_flip_involution(vertices):
    # Every flip's simplices make a valid triangulation, whose flip at the
    # same circuit, read the other way, gives back the original.
    for entry in enumerate_regular(small_config(vertices)):
        t = entry.triangulation
        for f in flips(t):
            back = [g.simplices for g in flips(Triangulation(t.config, f.simplices))
                    if (g.removed, g.inserted) == (f.inserted, f.removed)]
            assert back == [t.simplices], f"flip {(f.removed, f.inserted)} of {t.simplices} is not reversible"


def check_bfs_against_brute_force(vertices):
    # Flip-BFS finds exactly the regular members of the brute-force set, and
    # each witness lifts back to its triangulation.
    cfg = small_config(vertices)
    enum = enumerate_regular(cfg)
    regular = {c for c in all_triangulations(cfg) if is_regular(Triangulation(cfg, c)).regular}
    assert enum.canonical_forms() == regular
    for entry in enum:
        sub = lower_hull_subdivision(cfg, entry.certificate.witness)
        assert sub.is_triangulation and sub.cells == entry.triangulation.simplices


@settings(max_examples=25, deadline=None)
@given(POLYGONS)
def test_flip_bfs_matches_brute_force_on_random_polygons(vertices):
    check_bfs_against_brute_force(vertices)


@settings(max_examples=20, deadline=None)
@given(POLYTOPES_3D)
def test_flip_bfs_matches_brute_force_on_random_3d_polytopes(vertices):
    check_bfs_against_brute_force(vertices)


def check_flips_against_scanning_oracle(vertices):
    # Every triangulation, irregular ones and those with unused points
    # included, has the scanning oracle's flips, in its order.
    cfg = small_config(vertices)
    for cells in all_triangulations(cfg):
        tri = Triangulation(cfg, cells)
        assert flip_triples(flips(tri)) == oracle_flip_triples(oracles.flips(tri))


@settings(max_examples=25, deadline=None)
@given(POLYGONS)
def test_flips_match_scanning_oracle_on_all_triangulations_of_random_polygons(vertices):
    check_flips_against_scanning_oracle(vertices)


@settings(max_examples=20, deadline=None)
@given(POLYTOPES_3D)
def test_flips_match_scanning_oracle_on_all_triangulations_of_random_3d_polytopes(vertices):
    check_flips_against_scanning_oracle(vertices)


def check_carried_witnesses_against_lp(vertices):
    # Every enumerated witness induces its triangulation, which the LP also
    # finds regular; across every flip wall of every entry, a carried
    # witness is found only for a neighbour the LP finds regular, and it
    # induces that neighbour.
    cfg = small_config(vertices)
    for entry in enumerate_regular(cfg):
        tri, lam = entry.triangulation, entry.certificate.witness
        sub = lower_hull_subdivision(cfg, lam)
        assert sub.is_triangulation and sub.cells == tri.simplices
        system = cone_system(tri)
        assert is_regular(tri, system).regular
        for flip in flips(tri, system):
            nb = Triangulation(cfg, flip.simplices)
            nb_system = cone_system(nb)
            carried = carry_witness(lam, flip.row, nb_system)
            if carried is not None:
                assert is_regular(nb, nb_system).regular
                sub = lower_hull_subdivision(cfg, carried)
                assert sub.is_triangulation and sub.cells == flip.simplices


@settings(max_examples=25, deadline=None)
@given(POLYGONS)
def test_carried_witnesses_agree_with_lp_on_random_polygons(vertices):
    check_carried_witnesses_against_lp(vertices)


@settings(max_examples=20, deadline=None)
@given(POLYTOPES_3D)
def test_carried_witnesses_agree_with_lp_on_random_3d_polytopes(vertices):
    check_carried_witnesses_against_lp(vertices)
