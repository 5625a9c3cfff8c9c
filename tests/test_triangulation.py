import hashlib
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from conftest import CUBE, DOUBLE_SIMPLEX, HEXAGON, SEGMENT2, SEGMENT3, SQUARE, config_of
import oracles
from oracles import all_triangulations
from toricweights import exact, polytope, triangulation
from toricweights.lp import LinearSystem, feasible_strict
from toricweights.pipeline import analyze
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


@pytest.mark.parametrize(
    "vertices, cells, message",
    [
        (SEGMENT2, [(0, 1, 2)], r"cell \(0, 1, 2\) is not an 1-simplex"),
        (SEGMENT2, [(0, 1), (1, 3)], r"cell \(1, 3\) has out-of-range vertex indices"),
        (SEGMENT3, [(0, 1), (1, 2), (1, 2)], r"wall \(1,\) shared by 3 simplices"),
        # Total volume 2 and every wall in two cells, but both are one cell.
        (SQUARE, [(0, 1, 2), (0, 1, 2)], r"cell \(0, 1, 2\) is repeated"),
        # Points 0-3 are the left unit square of [0,2] x [0,1]: its four
        # triangles cover it twice, with the right total volume, and leave
        # the right square bare; both cells on the wall (0, 1) lie right of it.
        (
            [[0, 0], [2, 0], [0, 1], [2, 1]],
            [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
            r"same side of their wall \(0, 1\)",
        ),
    ],
)
def test_triangulation_rejects_malformed_cells(vertices, cells, message):
    with pytest.raises(ValueError, match=message):
        Triangulation(config_of(vertices), cells)


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


def test_lifting_stores_a_tuple():
    # A list of heights was kept as given: unhashable, and unequal to the
    # same heights as a tuple.
    lifting = Lifting([0, -1])
    assert lifting.heights == (0, -1) and lifting == Lifting((0, -1))
    assert {lifting, Lifting((0, -1))} == {Lifting((0, -1))}


def test_lifting_reads_its_heights_once():
    # A generator was read three times (emptiness, the type scan, max), so
    # the scan exhausted it: "max() arg is an empty sequence", and
    # normalized reported an empty lifting.
    assert Lifting(h for h in (0, -1)) == Lifting((0, -1))
    assert Lifting.normalized(h for h in (3, 1, 2)) == Lifting((0, -2, -1))
    with pytest.raises(ValueError, match="empty lifting"):
        Lifting.normalized(h for h in ())


def test_normalizing_no_heights_is_an_empty_lifting():
    with pytest.raises(ValueError, match="empty lifting"):
        Lifting.normalized([])


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
        "RegularityCertificate(witness=Lifting(heights=(0, -1, -1, -1)), infeasible_subsystem=None)"
    )
    (flip,) = flips(placing)
    assert flip == ((0, 3), (1, 2), ((0, 1, 3), (0, 2, 3)), (-1, 1, 1, -1))
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


def test_irreducible_subsystem_is_computed_inside_is_regular(monkeypatch):
    # Irregularity costs one strict-cone LP and one Gordan LP, both inside
    # is_regular; reading the subsystem solves nothing and gives the same
    # object every time.
    _, tri = spiral_triangulation()
    strict, gordan = [], []
    lp_strict, lp_gordan = triangulation.feasible_strict, triangulation.nonnegative_feasible
    monkeypatch.setattr(triangulation, "feasible_strict", lambda *args: strict.append(args) or lp_strict(*args))
    monkeypatch.setattr(triangulation, "nonnegative_feasible", lambda *args: gordan.append(args) or lp_gordan(*args))
    cert = is_regular(tri)
    assert not cert.regular and len(strict) == 1 and len(gordan) == 1
    sub = cert.infeasible_subsystem
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


def nested_triangles():
    # The "mother of all examples": two nested triangles, the outer one 4
    # times the unit simplex, and no other point.
    return polytope.PointConfiguration(
        polytope.LatticePolytope.from_vertices(SPIRAL_OUTER),
        sorted([(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)]),
    )


def test_enumeration_rejects_the_irregular_flip_results(monkeypatch):
    # Of the 18 triangulations of the nested triangles the two spirals are
    # irregular, and both are flip results of regular ones, so the search
    # meets them, every carried witness misses, and the LP rejects them,
    # each with an infeasible subsystem.
    cfg = nested_triangles()
    brute = all_triangulations(cfg)
    regular = {c for c in brute if oracles.max_slack_feasible(oracles.cone_system(Triangulation(cfg, c)))}
    assert len(brute) == 18 and len(regular) == 16
    certs = {}
    original = triangulation.is_regular
    monkeypatch.setattr(
        triangulation, "is_regular", lambda tri, *args: certs.setdefault(tri.simplices, original(tri, *args))
    )
    assert enumerate_regular(cfg).canonical_forms() == regular
    rejected = {key: cert for key, cert in certs.items() if not cert.regular}
    assert set(rejected) == brute - regular
    for cert in rejected.values():
        assert cert.infeasible_subsystem.constraints
        assert feasible_strict(cert.infeasible_subsystem) is None


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
    with pytest.raises(EnumerationCapExceeded) as err:
        enumerate_regular(cfg, caps=EnumerationCaps(max_triangulations=1))
    assert (err.value.found, err.value.rejected, err.value.lps) == (2, 0, 2)
    assert "after 2 triangulations, 0 rejected, 2 strict-cone LPs" in str(err.value)


def test_enumeration_cap_reports_rejections_and_lps(monkeypatch):
    # The cap is checked before each dequeue: by then the seed's flips have
    # found three regular neighbours and one spiral, which a second LP
    # rejected.  The reported LP count is the number of strict-cone LPs.
    calls = []
    monkeypatch.setattr(triangulation, "feasible_strict", lambda system: calls.append(system) or feasible_strict(system))
    with pytest.raises(EnumerationCapExceeded) as err:
        enumerate_regular(nested_triangles(), caps=EnumerationCaps(max_triangulations=1))
    assert err.value.reason == "max triangulation cap"
    assert (err.value.found, err.value.rejected, err.value.lps) == (4, 1, 2) and len(calls) == 2
    # The three kept neighbours are joined to the seed and not to each other.
    assert err.value.edges == 3 and str(err.value).endswith("2 strict-cone LPs, 3 flip edges")


def test_enumeration_time_budget_is_loud():
    with pytest.raises(EnumerationCapExceeded) as err:
        enumerate_regular(config_of(SQUARE), caps=EnumerationCaps(time_budget=0))
    assert err.value.reason == "time budget"
    assert (err.value.found, err.value.rejected, err.value.lps) == (1, 0, 1)


def test_enumeration_volume_partition(double_simplex):
    cfg = double_simplex.config
    vol = cfg.volume
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
    # 2*l1 - l0 - l2 < 0: the primitive dependence, negative at point 2,
    # the point beyond the wall
    assert sys.constraints[0] == (-1, 2, -1)


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
TWICE_SIMPLEX3 = [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]]
DATA = Path(__file__).resolve().parent.parent / "data"

# sha256 of the JSON list of [simplices, witness heights] over the entries of
# the enumeration with the default placing order, recorded when witnesses
# were first carried across flip walls (the LP only on a miss); the grid's
# again when the cone LP became a single simplex phase, which moved one
# carried witness there; the grid's and the hexagon's again when cone rows
# became primitive int rows, solved as row·x <= -1 rather than as the
# barycentric row (-1 at k) <= -1, which moved LP witnesses; all three again
# when a missed carry was retried from the neighbour's other flip results
# already found, before the LP, which replaces most LP witnesses by carried
# ones.  Witnesses are printed in machine output, so a changed pivot
# sequence or carry rule must show here.
WITNESS_DIGESTS = [
    (GRID3X3, 387, "c115daf94b6dab456f35330e5af080e10b3c0e0f27ab7e3fdcbfdf1fe4572307"),
    (CUBE, 74, "8f9cc367bb93ea9de42257e85d1361686a7577c0e444a893557ea1bad6ce756f"),
    (HEXAGON, 32, "5abffad92af4750fa3169c936cddff71d9149d3ef0a5a9be0277c4130b243c55"),
]


# Named by input, so that re-recording a digest keeps the test's name.
@pytest.mark.parametrize("vertices,count,digest", WITNESS_DIGESTS, ids=["grid3x3", "cube", "hexagon"])
def test_witnesses_are_pinned(vertices, count, digest):
    enum = enumerate_regular(config_of(vertices))
    doc = [[e.triangulation.simplices, e.certificate.witness.heights] for e in enum]
    assert len(doc) == count
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


# sha256 of the JSON list of [simplices, witness heights] over the entries of
# four enumerations of each input, one per seeded placing order, recorded
# while every neighbour's flips were computed when it was built and a missed
# carry rescanned them for found neighbours.  Witness heights depend on the
# order and on the carry sequence, so this pins the search path beyond the
# default order: a change to the walk that keeps it must leave this digest.
ORDERED_WITNESS_DIGEST = "bd9209873bbe5502bff1abdf704c0221dd2b3ab2586b8e8fd8e49a97e8958e1a"


def test_witnesses_are_pinned_across_orders():
    doc = []
    for cfg in (config_of(CUBE), config_of(GRID3X3), config_of(HEXAGON), nested_triangles()):
        for seed in range(4):
            order = list(range(len(cfg)))
            random.Random(seed).shuffle(order)
            enum = enumerate_regular(cfg, order=order)
            doc.append([[e.triangulation.simplices, e.certificate.witness.heights] for e in enum])
    assert [len(d) for d in doc] == [74] * 4 + [387] * 4 + [32] * 4 + [16] * 4
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == ORDERED_WITNESS_DIGEST


# sha256 of the JSON list of the entries' simplices, recorded while every
# witness was an LP solution (2Δ³'s while the LP ran on every missed carry
# from the parent): the canonical forms and their order do not depend on
# how the witnesses were found.
FORM_DIGESTS = [
    (GRID3X3, 387, "fdb21e527376549fd6e03dd6b2b235e84633ed8a18211b6eb9cdef04cac8630f"),
    (CUBE, 74, "3d5bfb2183dcd23667fe4bf56f3c3316cc445f5feab5ecb87807a57f6d0e1ffc"),
    (HEXAGON, 32, "4fec7ab48f0bf6b8e9b12fa22d0791f277480ae5d3e59543f7f3fba797c46ace"),
    (TWICE_SIMPLEX3, 948, "378e2cda378f4b3681d2d94e4d3c081f9bf9a607fb377baf315f763b32eb1b31"),
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
    # 126 sets for the cone systems and flips, and 5 more that the placings
    # read: the seed placing's lower-dimensional steps and the placing of
    # the vertices behind the configuration's volume.
    assert len(seen) == len(set(seen)) == 131


@pytest.mark.parametrize(
    "vertices,dependences",
    [(GRID3X3, 134), (CUBE, 74), (TWICE_SIMPLEX3, 245)],
    ids=["grid3x3", "cube", "twice_simplex3"],
)
def test_analyze_reads_each_dependence_once_and_solves_nothing(monkeypatch, vertices, dependences):
    # The placings and both volumes read the configuration's memoised
    # integer dependences, like the cone systems: no Fraction solve is left
    # in the pipeline (32, 46 and 37 solve_linear calls when placing used
    # affine_combination), and no dependence is computed twice.
    seen, solves = [], []
    original = polytope.affine_dependence

    def counting(points):
        seen.append(tuple(map(tuple, points)))
        return original(points)

    monkeypatch.setattr(polytope, "affine_dependence", counting)
    monkeypatch.setattr(exact, "solve_linear", lambda m, b: solves.append(m))
    analyze(vertices)
    assert solves == []
    assert len(seen) == len(set(seen)) == dependences


def test_configuration_missing_a_vertex_is_rejected():
    # 2Δ² without its vertex (0, 2): the volume cannot be placed on the
    # configuration, and the enumeration says which vertex is missing.
    q = polytope.LatticePolytope.from_vertices(DOUBLE_SIMPLEX)
    cfg = polytope.PointConfiguration(q, [(0, 0), (1, 0), (2, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"misses the polytope vertex \(0, 2\)"):
        enumerate_regular(cfg)


@pytest.mark.parametrize(
    "vertices,lps,bits",
    [(GRID3X3, 35, 17), (CUBE, 13, 14), (TWICE_SIMPLEX3, 51, 23)],
    ids=["grid3x3", "cube", "twice_simplex3"],
)
def test_enumeration_solves_the_cone_lp_only_on_a_miss(monkeypatch, vertices, lps, bits):
    # Witnesses are carried across flip walls, from the parent and then from
    # the neighbour's other flip results already found; the LP runs for the
    # seed and for each neighbour every carry misses (387, 74 and 948 LPs
    # when every triangulation had its own; 123, 18 and 182 when only the
    # parent's witness was carried, with at most 16, 14 and 21 bits).
    # Carried witnesses stay small.
    calls = []
    monkeypatch.setattr(triangulation, "feasible_strict", lambda system: calls.append(system) or feasible_strict(system))
    enum = enumerate_regular(config_of(vertices))
    assert len(calls) == lps
    assert max(abs(h).bit_length() for e in enum for h in e.certificate.witness.heights) <= bits


def test_carried_witness_crosses_a_segment_wall():
    # Points 0..3 on a line.  The placing triangulation {01, 12, 23} has the
    # LP witness (0, -2, -3, -3); its first flip drops point 1, with row
    # a = (-1, 2, -1, 0): a.lambda = -1, a.a = 6, so mu = 6 lambda + a =
    # (-1, -10, -19, -18).  The neighbour's rows are b = (-1, 0, 3, -2), with
    # b.mu = -20 and b.a = -2, so c > -1/10, and -a, with -a.mu = 0 and
    # -a.a = -6 < 0.  So c = 0 and the carried witness is a, shifted to
    # max 0.
    cfg = config_of(SEGMENT3)
    seed = placing_triangulation(cfg)
    flip = flips(seed)[0]
    lam = is_regular(seed).witness
    assert lam.heights == (0, -2, -3, -3) and flip.row == (-1, 2, -1, 0)
    nb_system = cone_system(Triangulation(cfg, flip.simplices))
    assert nb_system.constraints == ((-1, 0, 3, -2), (1, -2, 1, 0))
    carried = carry_witness(lam, flip.row, nb_system)
    assert carried.heights == (-3, 0, -3, -2)
    assert lower_hull_subdivision(cfg, carried).cells == flip.simplices == ((0, 2), (2, 3))


def test_carried_witness_misses_when_the_wall_point_is_affine():
    # The square's liftings modulo affine functions form a line, so mu, on
    # the wall, is affine: no neighbour row bounds c, and the LP decides.
    cfg = config_of(SQUARE)
    seed = placing_triangulation(cfg)
    (flip,) = flips(seed)
    lam = is_regular(seed).witness
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


def test_cone_rows_are_primitive_negative_at_k_and_match_the_oracle(monkeypatch):
    # Every config.cone_row(cell, k) that cone_system reads is an int row in
    # lowest terms, so equal inequalities compare equal, negative at k, and
    # the integer form of k's barycentric coordinates on the cell minus 1
    # at k, as one affine_combination gives them.
    checked = 0
    for vertices in HULL_SHAPES:
        cfg = config_of(vertices)
        enum = enumerate_regular(cfg)
        used = set()
        cone_row = cfg.cone_row
        monkeypatch.setattr(cfg, "cone_row", lambda cell, k: used.add((cell, k)) or cone_row(cell, k))
        for entry in enum:
            cone_system(entry.triangulation)
        checked += len(used)
        for cell, k in used:
            row = cone_row(cell, k)
            assert len(row) == len(cfg) and all(type(x) is int for x in row)
            assert gcd(*row) == 1 and row[k] < 0
            coeffs = exact.affine_combination([cfg.points[i] for i in cell], cfg.points[k])
            expected = [Fraction(0)] * len(cfg)
            for i, c in zip(cell, coeffs):
                expected[i] = c
            expected[k] = Fraction(-1)
            assert list(row) == exact.integer_row(expected)[0]
    assert checked > 0


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


def placing_point_sets(cfg):
    """The point sets that get placed, as configuration indices: the lattice
    points (the enumeration seed), the vertex set (``volume``) and each
    facet's vertex set (``boundary_volume``, placings of lower dimension)."""
    q = cfg.polytope
    sets = [cfg.points, q.vertices] + [q.facet_vertices(f) for f in q.facets]
    return [[cfg.index[p] for p in points] for points in sets]


@pytest.mark.parametrize("vertices", HULL_SHAPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_placing_matches_face_functional_oracle(vertices, data):
    # Visibility read from the signs of cone rows gives the cells that one
    # face functional per boundary face gives, in any insertion order.
    cfg = config_of(vertices)
    for ids in placing_point_sets(cfg):
        order = data.draw(st.permutations(range(len(ids))))
        expected = oracles.placing_cells([cfg.points[i] for i in ids], order)
        got = polytope.placing_cells(cfg, [ids[k] for k in order])
        # ids increase with the points' lexicographic order, so the mapped
        # cells stay sorted.
        assert got == [tuple(ids[k] for k in cell) for cell in expected]


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
    # A triangulation builds its cone system when it is constructed and keeps
    # it for its regularity LP and its flips: 387 systems on the 3x3 grid
    # (774 when each built its own).  Regular certificates keep no rows.
    built = []
    original = triangulation.cone_system
    monkeypatch.setattr(triangulation, "cone_system", lambda tri: built.append(tri.simplices) or original(tri))
    enum = enumerate_regular(config_of(GRID3X3))
    assert len(enum) == 387
    assert len(built) == len(set(built)) == 387
    assert all(entry.certificate.infeasible_subsystem is None for entry in enum)


def test_built_triangulation_keeps_its_cone_system(monkeypatch):
    # Validation reads each wall's side off its fold row, so once the rows
    # are memoised building a triangulation looks up no dependence (the
    # sign test on config.dependence made 8 calls here), and is_regular and
    # flips read the kept system instead of building it again (2 calls).
    cfg = config_of(GRID3X3)
    cells = enumerate_regular(cfg).entries[0].triangulation.simplices
    dependences, systems = [], []
    dependence, system = cfg.dependence, triangulation.cone_system
    monkeypatch.setattr(cfg, "dependence", lambda ids: dependences.append(ids) or dependence(ids))
    tri = Triangulation(cfg, cells)
    monkeypatch.setattr(triangulation, "cone_system", lambda t: systems.append(t) or system(t))
    assert is_regular(tri).regular and flips(tri)
    assert dependences == [] and systems == []
    assert tri.system.constraints == oracles.cone_system(tri).constraints


def test_grid_enumeration_computes_each_triangulations_flips_once(monkeypatch):
    # A neighbour's flips are computed once it is kept, and queued with it
    # for its own turn; carries from found neighbours read the flips they
    # computed into it.
    computed = []
    original = triangulation.flips
    monkeypatch.setattr(triangulation, "flips", lambda tri, *args: computed.append(tri.simplices) or original(tri, *args))
    enum = enumerate_regular(config_of(GRID3X3))
    assert sorted(computed) == sorted(enum.canonical_forms())


def test_grid_enumeration_tries_each_candidate_circuit_once(monkeypatch):
    # Candidate circuits are the cone system's rows, each tried once in the
    # orientation its row gives, and a circuit whose flip was computed from
    # its other end is not tried again: 1,478 calls on the 3x3 grid, its
    # 1,190 flip edges and 288 unsupported circuits (2,668 when every flip
    # edge was computed from both ends; scanning every cell and outside
    # point made 10,164; trying both orientations 20,328).
    calls = []
    original = triangulation._try_flip
    monkeypatch.setattr(triangulation, "_try_flip", lambda *args: calls.append(args) or original(*args))
    assert len(enumerate_regular(config_of(GRID3X3))) == 387
    assert len(calls) == 1478



def test_enumeration_computes_no_flips_of_rejected_keys(monkeypatch):
    # The two irregular spirals of the nested triangles are built and
    # rejected, and their flips are never computed (every neighbour's flips
    # were, for the carries, before the incoming index).
    computed, certs = [], {}
    original_flips, original_is_regular = triangulation.flips, triangulation.is_regular
    monkeypatch.setattr(triangulation, "flips", lambda tri, *args: computed.append(tri.simplices) or original_flips(tri, *args))
    monkeypatch.setattr(triangulation, "is_regular", lambda tri: certs.setdefault(tri.simplices, original_is_regular(tri)))
    enum = enumerate_regular(nested_triangles())
    rejected = {key for key, cert in certs.items() if not cert.regular}
    assert len(rejected) == 2 and not rejected & set(computed)
    assert sorted(computed) == sorted(enum.canonical_forms())


@pytest.mark.parametrize(
    "vertices,count,edges",
    [(GRID3X3, 387, 1190), (CUBE, 74, 152), (DOUBLE_SIMPLEX, 14, 21), (HEXAGON, 32, 65)],
    ids=["grid3x3", "cube", "double_simplex", "hexagon"],
)
def test_enumeration_keeps_its_flip_edges(vertices, count, edges):
    enum = enumerate_regular(config_of(vertices))
    assert len(enum) == count and len(enum.edges) == edges
    assert list(enum.edges) == sorted(set(enum.edges))
    assert all(i < j for i, j, _ in enum.edges)


@pytest.mark.parametrize("vertices", [GRID3X3, CUBE], ids=["grid3x3", "cube"])
def test_edge_rows_are_cone_rows_of_both_ends(vertices):
    # An edge's row is a wall row of entry id, negative on the side the
    # flip from id removes; its negation is entry id''s row for the same
    # circuit, and the flip from id at that circuit gives entry id'.
    enum = enumerate_regular(config_of(vertices))
    entries = enum.entries
    for i, j, row in enum.edges:
        assert row in entries[i].triangulation.system.constraints
        assert tuple(-x for x in row) in entries[j].triangulation.system.constraints
        removed, inserted = enum.config.circuit_sides(row)
        (flip,) = [f for f in flips(entries[i].triangulation) if (f.removed, f.inserted) == (removed, inserted)]
        assert flip.row == row and flip.simplices == entries[j].triangulation.simplices

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
        assert is_regular(tri).regular
        for flip in flips(tri):
            nb = Triangulation(cfg, flip.simplices)
            carried = carry_witness(lam, flip.row, nb.system)
            if carried is not None:
                assert is_regular(nb).regular
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


def check_edges_against_scanning_oracle(vertices):
    # The walked edges are exactly the scanning oracle's flips between
    # entries, each oriented by its row from the lower id.
    cfg = small_config(vertices)
    enum = enumerate_regular(cfg)
    ids = {e.triangulation.simplices: e.id for e in enum}
    expected = set()
    for entry in enum:
        for f in oracles.flips(entry.triangulation):
            j = ids.get(f.result.simplices)
            if j is not None and entry.id < j:
                expected.add((entry.id, j, f.removed, f.inserted))
    assert {(i, j, *cfg.circuit_sides(row)) for i, j, row in enum.edges} == expected
    assert len(enum.edges) == len(expected)


@settings(max_examples=25, deadline=None)
@given(POLYGONS)
def test_edges_match_scanning_oracle_on_random_polygons(vertices):
    check_edges_against_scanning_oracle(vertices)


@settings(max_examples=20, deadline=None)
@given(POLYTOPES_3D)
def test_edges_match_scanning_oracle_on_random_3d_polytopes(vertices):
    check_edges_against_scanning_oracle(vertices)


@st.composite
def lifting_batches(draw, cfg):
    # A batch of one or of many liftings of cfg, heights in {-1, 0} or wider:
    # {-1, 0} forces ties (facets of more than n + 1 points) and includes
    # the affine liftings, such as all heights 0.
    low = draw(st.sampled_from((-1, -1, -30)))
    size = draw(st.sampled_from((1, 2, 13)))
    heights = st.lists(st.integers(low, 0), min_size=len(cfg), max_size=len(cfg))
    return draw(st.lists(heights, min_size=size, max_size=size))


def check_lower_hulls_against_oracles(vertices, data):
    cfg = small_config(vertices)
    batch = data.draw(lifting_batches(cfg))
    expected = [oracles.lower_hull_subdivision(cfg, heights) for heights in batch]
    assert triangulation.lower_hulls(cfg, batch) == expected
    assert [oracles.lower_hull_by_side_tests(cfg, heights) for heights in batch] == expected


@settings(max_examples=40, deadline=None)
@given(POLYGONS, st.data())
def test_lower_hulls_match_the_oracles_on_random_polygons(vertices, data):
    check_lower_hulls_against_oracles(vertices, data)


@settings(max_examples=25, deadline=None)
@given(POLYTOPES_3D, st.data())
def test_lower_hulls_match_the_oracles_on_random_3d_polytopes(vertices, data):
    check_lower_hulls_against_oracles(vertices, data)


@pytest.mark.parametrize("vertices", [GRID3X3, CUBE], ids=["grid3x3", "cube"])
def test_lower_hulls_at_the_lane_width_bound(vertices, monkeypatch):
    # top is the largest height with 2*top*norm + 1 < 2^87, so the lanes are
    # 88 bits wide.  The batch holds every witness scaled up towards -top,
    # whose hull is its triangulation, and liftings with heights 0 and
    # -top: each point pushed down alone, the {0, -1} liftings of the first
    # points, scaled, whose hulls have ties, and for each side test of
    # largest norm the two that make it largest in size, +-top*norm/2,
    # which would carry out of 80-bit lanes.
    cfg = config_of(vertices)
    tests = [(on, row) for _, side_tests in cfg.lower_hull_tests for _, on, row in side_tests]
    norm = max(sum(map(abs, row)) for _, row in tests)
    top = (2**87 - 2) // (2 * norm)
    assert top * norm // 2 >= 2**79
    enum = enumerate_regular(cfg)
    witnesses = [entry.certificate.witness.heights for entry in enum]
    batch = [[h * (top // -min(w)) for h in w] for w in witnesses]
    batch += [[-top * (i == k) for i in range(len(cfg))] for k in range(len(cfg))]
    batch += [[-top * ((b >> i) & 1) for i in range(len(cfg))] for b in range(16)]
    for on, row in tests:
        if sum(map(abs, row)) == norm:
            ids = on(range(len(cfg)))
            for sign in (1, -1):
                low = {i for i, c in zip(ids, row) if sign * c > 0}
                batch.append([-top * (i in low) for i in range(len(cfg))])
    made = []
    original = triangulation.Lanes
    monkeypatch.setattr(triangulation, "Lanes", lambda span, count: made.append(original(span, count)) or made[-1])
    subs = triangulation.lower_hulls(cfg, batch)
    assert [lanes.width for lanes in made] == [88]
    assert subs == [oracles.lower_hull_by_side_tests(cfg, heights) for heights in batch]
    assert [sub.cells for sub in subs[:len(enum)]] == [entry.triangulation.simplices for entry in enum]


def test_facets_of_one_circuit_make_no_hull_lp(monkeypatch):
    # A lower facet of n + 2 points has one affine dependence, and its
    # cell drops the point alone on its side; only larger facets go to the
    # hull-membership LP.  The double simplex at -1 on its bottom edge and
    # at (0, 1): that facet's cell drops the edge's midpoint (1, 0).
    square, double_simplex, segment3 = config_of(SQUARE), config_of(DOUBLE_SIMPLEX), config_of(SEGMENT3)
    cases = [(square, [0, 0, 0, 0]), (square, [0, 0, 0, -1]), (double_simplex, [-1, -1, 0, -1, 0, -1])]
    expected = [oracles.lower_hull_subdivision(cfg, heights) for cfg, heights in cases]
    assert expected[2].cells[0] == (0, 1, 5)
    calls = []
    original = polytope.nonnegative_feasible
    monkeypatch.setattr(polytope, "nonnegative_feasible", lambda rows, rhs: calls.append(rhs) or original(rows, rhs))
    assert [lower_hull_subdivision(cfg, heights) for cfg, heights in cases] == expected
    assert calls == []
    assert lower_hull_subdivision(segment3, [0, 0, 0, 0]).cells == ((0, 3),)
    assert len(calls) == 4
