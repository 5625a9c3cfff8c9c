import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import factorial
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import CUBE, DOUBLE_SIMPLEX
from toricweights import exact, functionals, polytope, triangulation, vectors, weights
from toricweights.pipeline import analyze
from toricweights.polytope import extreme_point_indices
from toricweights.triangulation import Enumeration, Lifting, Triangulation, lower_hull_subdivision
from toricweights.vectors import gkz_vector
from toricweights.weights import (
    CHOW,
    HURWITZ,
    build,
    certified_vertices,
    run_support_trials,
    support_checks,
    support_min,
    verify_identities,
)


def test_build_chow_segment(segment):
    assert set(segment.chow.vertices) == {(1, 2, 1), (2, 0, 2)}


def test_build_hurwitz_segment(segment):
    assert set(segment.hurwitz.vertices) == {(0, 2, 0), (1, 0, 1)}


def test_build_hurwitz_square(square):
    assert set(square.hurwitz.vertices) == {(2, 0, 0, 2), (0, 2, 2, 0)}


def test_build_rejects_unknown_kind(segment):
    with pytest.raises(ValueError):
        build("gkz", segment.enumeration)


def test_generators_satisfy_sum_constraints(double_simplex):
    n = double_simplex.polytope.dim
    deg = double_simplex.degrees
    for g in double_simplex.chow.generators:
        assert sum(g.vector) == (n + 1) * deg.chow
    for g in double_simplex.hurwitz.generators:
        assert sum(g.vector) == n * deg.hurwitz


def test_generators_satisfy_moment_constraints(double_simplex):
    # <generator, coordinate j of the points> is triangulation-independent.
    cfg = double_simplex.config
    for poly in (double_simplex.chow, double_simplex.hurwitz):
        for j in range(cfg.dim):
            coords = [p[j] for p in cfg.points]
            values = {sum(v * c for v, c in zip(g.vector, coords)) for g in poly.generators}
            assert len(values) == 1


def test_affine_dim_bound(segment, square, double_simplex):
    for analysis in (segment, square, double_simplex):
        n1 = len(analysis.config)
        n = analysis.config.dim
        assert analysis.chow.affine_dim <= n1 - 1 - n
        assert analysis.hurwitz.affine_dim <= n1 - 1 - n


def test_support_min_examples(segment):
    value, argmin = support_min(segment.hurwitz, (0, -1, 0))
    assert value == -2 and argmin == ((0, 2, 0),)
    value, argmin = support_min(segment.chow, (0, 0, 0))
    assert value == 0 and set(argmin) == set(segment.chow.vertices)
    value, argmin = support_min(segment.chow, (0, -1, 0))
    assert value == -2 and argmin == ((1, 2, 1),)


def test_support_min_equals_min_over_generators(double_simplex):
    lam = tuple(range(len(double_simplex.config)))
    lam = tuple(-x for x in lam)
    for poly in (double_simplex.chow, double_simplex.hurwitz):
        value, _ = support_min(poly, lam)
        gen_min = min(sum(v * l for v, l in zip(g.vector, lam)) for g in poly.generators)
        assert value == gen_min


def test_support_min_rejects_bad_lam_through_pairing(segment):
    # Every vertex is paired with lam through pairing, so a lam of the wrong
    # length, a bool or a float raises pairing's error on the first one.
    for lam, error, message in [
        ((0, True, 0), TypeError, "not bool"),
        ((0, -1.5, 0), TypeError, "int or Fraction entries"),
        ((0, -1), ValueError, "length mismatch: 3 vs 2"),
    ]:
        with pytest.raises(error, match=message):
            support_min(segment.chow, lam)
    assert support_min(segment.hurwitz, (0, Fraction(-1, 2), 0)) == (-1, ((0, 2, 0),))
    assert support_min(segment.chow, (0, -1, 0)) == (-2, ((1, 2, 1),))


def test_verify_chow_support_segment(segment):
    chk, _, aubin = support_checks(segment, Lifting((0, -1, 0)))
    assert chk.status == aubin.status == "pass"
    assert chk.minimum == chk.pairing_value == aubin.pairing_value == -2
    assert aubin.argmin == ()


def test_verify_hurwitz_support_segment(segment):
    chk = support_checks(segment, Lifting((0, -1, 0)))[1]
    assert chk.status == "pass"
    assert chk.minimum == -2


def test_verify_support_square_diagonal_lifting(square):
    chk = support_checks(square, Lifting((-1, 0, 0, -1)))[1]
    assert chk.status == "pass"
    assert chk.argmin == ((2, 0, 0, 2),)


def test_support_checks_none_for_non_simplicial_hull(square):
    assert support_checks(square, Lifting((0, 0, 0, 0))) is None


def test_verify_support_on_cone_boundary(segment):
    # An affine lifting lies on the boundary of every cone but still induces
    # the coarse (simplicial) subdivision of the segment, so the support
    # identity applies and the argmin is the whole polytope.
    chk = support_checks(segment, Lifting((0, -1, -2)))[0]
    assert chk.status == "pass"
    assert chk.minimum == -4
    assert set(chk.argmin) == {(1, 2, 1), (2, 0, 2)}


def test_support_checks_read_the_enumerated_triangulation(segment):
    for lam, tid in (((0, -1, 0), 0), ((0, -1, -2), 1)):
        entry = segment.enumeration.entries[tid]
        assert lower_hull_subdivision(segment.config, Lifting(lam)).cells == entry.triangulation.simplices
        assert {chk.triangulation_id for chk in support_checks(segment, Lifting(lam))} == {tid}


def test_support_checks_normalize_a_height_sequence(segment):
    # [0, -1, 0] raised AttributeError: 'list' object has no attribute 'heights'.
    expected = support_checks(segment, Lifting((0, -1, 0)))
    assert support_checks(segment, [0, -1, 0]) == support_checks(segment, (3, 2, 3)) == expected
    assert support_checks(segment, [0, -1, -2])[0].lifting == Lifting((0, -1, -2))


def test_suites_reject_negative_trial_counts(segment):
    # verify_identities(a, trials=-1) returned IdentityReport(trials=-1, ...)
    # and run_support_trials(a, count=-1) SupportTrialReport(requested=-1, ...).
    with pytest.raises(ValueError, match="trials must be nonnegative, got -1"):
        verify_identities(segment, trials=-1)
    with pytest.raises(ValueError, match="count must be nonnegative, got -1"):
        run_support_trials(segment, count=-1)
    assert verify_identities(segment, trials=0).passed
    assert run_support_trials(segment, count=0).requested == 0


def test_witness_cones_give_vertex_argmins(square, double_simplex):
    # For the Chow polytope the witness of T pins eta_T as unique argmin; for
    # the Hurwitz polytope every vertex is pinned by at least one source
    # triangulation's witness.
    for analysis in (square, double_simplex):
        by_id = {}
        for entry in analysis.enumeration:
            lam = entry.certificate.witness.heights
            eta = gkz_vector(entry.triangulation)
            value, argmin = support_min(analysis.chow, lam)
            assert argmin == (eta,)
            assert value == sum(e * l for e, l in zip(eta, lam))
            by_id[entry.id] = entry
        for vertex in analysis.hurwitz.vertices:
            gen = next(g for g in analysis.hurwitz.generators if g.vector == vertex)
            pinned = False
            for tid in gen.triangulation_ids:
                lam = by_id[tid].certificate.witness.heights
                value, argmin = support_min(analysis.hurwitz, lam)
                if argmin == (vertex,):
                    pinned = True
                    break
            assert pinned, f"no witness pins Hurwitz vertex {vertex}"


def test_every_chow_vertex_comes_from_a_triangulation(double_simplex):
    etas = {gkz_vector(e.triangulation) for e in double_simplex.enumeration}
    assert set(double_simplex.chow.vertices) <= etas


def test_verify_identities_passes(segment, square, double_simplex):
    for analysis in (segment, square, double_simplex):
        rep = verify_identities(analysis, trials=10, seed=3)
        assert rep.passed, rep.failures[:3]
        assert rep.checks > 0


def test_identities_build_no_triangulation_per_trial_function(monkeypatch):
    # Trial functions carry the enumerated triangulation, walls included.
    doc = json.loads((Path(__file__).resolve().parent.parent / "data" / "double_simplex.json").read_text())
    analysis = analyze(doc["vertices"])
    built = []
    monkeypatch.setattr(functionals, "Triangulation", lambda *a, **k: built.append(a))
    assert verify_identities(analysis, trials=5, seed=3).passed
    assert built == []


def test_identity_integrals_computed_once_per_trial_function(double_simplex, monkeypatch):
    # All trials of a triangulation are one packed function, so a passing run
    # integrates once per triangulation; a triangulation whose packed check
    # fails reruns its trials one by one, and only that one.
    calls = {"volume_total": 0, "boundary_total": 0}
    for name in calls:
        original = getattr(functionals, name)

        def counting(g, name=name, original=original):
            calls[name] += 1
            return original(g)

        monkeypatch.setattr(weights, name, counting)
        monkeypatch.setattr(functionals, name, counting)
    ntri = len(double_simplex.enumeration)
    rep = verify_identities(double_simplex, trials=5, seed=3)
    assert rep.passed
    assert calls == {"volume_total": ntri, "boundary_total": ntri}
    # Three sums per triangulation, the affine T-independence from the second
    # one on, and three pairings per trial function.
    assert rep.checks == ntri * (3 + 3 * 5) + ntri - 1

    # One entry of one GKZ vector off by one: only that triangulation's
    # checks fail, and only its own five trials are rerun.
    calls.update(volume_total=0, boundary_total=0)
    tid = 3
    faulty = list(double_simplex.chow.vectors)
    i = double_simplex.enumeration.entries[tid].triangulation.used_points[0]
    faulty[tid] = faulty[tid][:i] + (faulty[tid][i] + 1,) + faulty[tid][i + 1:]
    analysis = double_simplex._replace(chow=double_simplex.chow._replace(vectors=tuple(faulty)))
    rep = verify_identities(analysis, trials=5, seed=3)
    assert calls == {"volume_total": ntri + 5, "boundary_total": ntri + 5}
    assert rep.checks == ntri * (3 + 3 * 5) + ntri - 1
    assert {f.triangulation_id for f in rep.failures} == {tid}
    assert rep == oracles.verify_identities(analysis, trials=5, seed=3)


def test_characteristic_vectors_computed_once_per_entry(monkeypatch):
    # build computes each entry's GKZ and Hurwitz vectors once, the suites
    # read them off the polytopes, and the identity suite computes each
    # boundary vector once.  Computing them afresh in every suite made
    # 4, 3 and 2 calls per entry, and 2, 1 and 1 more per lifting.  Each
    # hurwitz_vector call reads one gkz_vector and one boundary_vector.
    calls = {"gkz_vector": 0, "boundary_vector": 0, "hurwitz_vector": 0}
    for name in calls:
        original = getattr(vectors, name)

        def counting(tri, name=name, original=original):
            calls[name] += 1
            return original(tri)

        monkeypatch.setattr(weights, name, counting)
        monkeypatch.setattr(vectors, name, counting)
    analysis = analyze(DOUBLE_SIMPLEX)
    assert verify_identities(analysis, trials=5, seed=3).passed
    assert run_support_trials(analysis, count=20, seed=3).passed
    ntri = len(analysis.enumeration)
    assert calls == {"gkz_vector": 2 * ntri, "boundary_vector": 2 * ntri, "hurwitz_vector": ntri}


def test_suites_build_their_functions_without_revalidation(double_simplex, monkeypatch):
    # The suites make their values themselves, ints at every used point, so
    # they skip the checks on_triangulation makes for outside callers.
    def checked(cls, tri, values):
        raise AssertionError("on_triangulation called by a suite")

    monkeypatch.setattr(functionals.PLFunction, "on_triangulation", classmethod(checked))
    assert verify_identities(double_simplex, trials=3, seed=1).passed
    assert run_support_trials(double_simplex, count=5, seed=1).passed


def test_identity_volumes_are_read_once_per_triangulation(monkeypatch):
    # Cell and wall volumes come from each triangulation's volume tables, so
    # the trial functions add no normalized_volume calls.
    counts = []
    for trials in (1, 4):
        analysis = analyze(DOUBLE_SIMPLEX)
        calls = []
        original = analysis.config.normalized_volume
        monkeypatch.setattr(analysis.config, "normalized_volume", lambda s: calls.append(s) or original(s))
        assert verify_identities(analysis, trials=trials, seed=3).passed
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_support_trials_pass(segment, square):
    for analysis in (segment, square):
        rep = run_support_trials(analysis, count=25, seed=1)
        assert rep.passed, rep.failures[:3]
        assert rep.applicable == 25


def test_support_trials_compute_one_lower_hull_per_lifting(segment, monkeypatch):
    # Every lower hull the suite takes is a lane of one lower_hulls batch.
    lanes = []
    original = triangulation.lower_hulls

    def counting(config, liftings):
        lanes.extend(liftings)
        return original(config, liftings)

    monkeypatch.setattr(triangulation, "lower_hulls", counting)
    monkeypatch.setattr(weights, "lower_hulls", counting)
    rep = run_support_trials(segment, count=20, seed=1)
    assert len(lanes) == rep.attempts == 20


def test_support_trials_report_chow_and_aubin_failures(segment):
    # Shifting the Chow polytope by (1, 1, 1) moves min <x, lam> by
    # sum(lam), which is negative for every lifting but the flat one.
    shifted = tuple(tuple(x + 1 for x in v) for v in segment.chow.vertices)
    broken = segment._replace(chow=segment.chow._replace(vertices=shifted))
    rep = run_support_trials(broken, count=20, seed=1)
    assert rep.failures
    assert all(f.kind == CHOW for f in rep.failures)
    assert all(f.minimum - f.pairing_value == sum(f.lifting.heights) != 0 for f in rep.failures)
    # Per lifting: the Chow support failure (with its argmin), then the Aubin one.
    support, aubin = rep.failures[0::2], rep.failures[1::2]
    assert [f.lifting for f in support] == [f.lifting for f in aubin]
    assert all(f.argmin for f in support)
    assert not any(f.argmin for f in aubin)


def test_support_trials_validate_no_triangulation(square, monkeypatch):
    # Every lower hull is looked up in the enumeration, whose triangulations
    # were validated when they were found.
    calls = []
    validate = Triangulation._validate
    monkeypatch.setattr(Triangulation, "_validate", lambda self: calls.append(self) or validate(self))
    rep = run_support_trials(square, count=25, seed=1)
    assert rep.passed and rep.applicable == 25
    assert calls == []


def test_support_trials_fail_on_a_triangulation_missing_from_the_enumeration(segment):
    missing = segment.enumeration.entries[0]
    enumeration = Enumeration(segment.enumeration.config, segment.enumeration.entries[1:])
    broken = segment._replace(enumeration=enumeration)
    rep = run_support_trials(broken, count=20, seed=1)
    assert not rep.passed
    assert rep.failures and all(f.pairing_value is None for f in rep.failures)
    # Each lifting that induces the missing triangulation fails all three
    # checks, in order: Chow support, Hurwitz support, Aubin.
    assert len(rep.failures) % 3 == 0
    for i in range(0, len(rep.failures), 3):
        triple = rep.failures[i:i + 3]
        assert [f.kind for f in triple] == [CHOW, HURWITZ, CHOW]
        assert len({f.lifting for f in triple}) == 1
    for f in rep.failures:
        cells = lower_hull_subdivision(segment.config, f.lifting).cells
        assert cells == missing.triangulation.simplices
        assert f.status == "fail" and f.triangulation_id is None
        poly = segment.chow if f.kind == CHOW else segment.hurwitz
        assert f.minimum == support_min(poly, f.lifting.heights)[0]


def test_lower_hull_triangulations_are_regular_members(double_simplex):
    # T_lam for an integral lifting with simplicial hull must appear among the
    # enumerated regular triangulations.
    forms = double_simplex.enumeration.canonical_forms()
    lam = Lifting.normalized([-3, -1, -4, -1, -5, -9])
    sub = lower_hull_subdivision(double_simplex.config, lam)
    if sub.is_triangulation:
        assert sub.cells in forms


def test_degenerate_unit_simplex_weights():
    # P^2 with the smallest polarization: a single triangulation, Hurwitz
    # degree 0, Hurwitz polytope one point at the origin.
    from toricweights.pipeline import analyze

    a = analyze([[0, 0], [1, 0], [0, 1]])
    assert len(a.enumeration) == 1
    assert a.enumeration.entries[0].certificate.witness.heights == (0, 0, 0)
    assert (a.degrees.chow, a.degrees.hurwitz) == (1, 0)
    assert a.chow.vertices == ((1, 1, 1),)
    assert a.hurwitz.vertices == ((0, 0, 0),)
    assert any("degree" in w for w in a.warnings)


def test_blowup_of_projective_plane():
    # conv{(0,0),(2,0),(1,1),(0,1)}: smooth, volume 3, boundary volume 5.  Its
    # variety has nonvanishing Futaki character: F(x_1) = 1/9 by direct
    # integration (4 - (10/3)*(7/6)), the same on every triangulation.
    from fractions import Fraction

    from toricweights.functionals import PLFunction, donaldson_f
    from toricweights.pipeline import analyze

    a = analyze([[0, 0], [2, 0], [1, 1], [0, 1]])
    assert a.polytope.delzant.ok
    assert a.config.volume == 3 and a.config.boundary_volume == 5
    assert (a.degrees.chow, a.degrees.hurwitz) == (3, 4)
    values = set()
    for entry in a.enumeration:
        tri = entry.triangulation
        g = PLFunction.on_triangulation(
            tri, {i: Fraction(a.config.points[i][0]) for i in tri.used_points}
        )
        values.add(donaldson_f(g))
    assert values == {Fraction(1, 9)}
    rep = verify_identities(a, trials=10, seed=2)
    assert rep.passed, rep.failures[:3]


DATA = Path(__file__).parent.parent / "data"
HEXAGON = [[1, 0], [2, 0], [2, 1], [1, 2], [0, 2], [0, 1]]
GRID3X3 = [[0, 0], [2, 0], [0, 2], [2, 2]]


@pytest.fixture(scope="module", params=sorted(p.name for p in DATA.glob("*.json")) + ["hexagon"])
def corpus_analysis(request):
    if request.param == "hexagon":
        return analyze(HEXAGON)
    return analyze(json.loads((DATA / request.param).read_text())["vertices"])


@pytest.mark.parametrize("kind", ["chow", "hurwitz"])
def test_certified_vertices_equal_lp_vertices(corpus_analysis, kind):
    poly = getattr(corpus_analysis, kind)
    vectors = [g.vector for g in poly.generators]
    assert poly.vertices == tuple(vectors[i] for i in extreme_point_indices(vectors))
    assert len(poly.certificates) == len(poly.vertices)


@pytest.mark.parametrize("kind", ["chow", "hurwitz"])
def test_vertex_certificates_pin_their_vertex(corpus_analysis, kind):
    # Checked in integers without the LP: the certificate is the witness of a
    # source triangulation and <v, lam> is strictly below every other generator.
    poly = getattr(corpus_analysis, kind)
    witnesses = {e.id: e.certificate.witness for e in corpus_analysis.enumeration}
    sources = {g.vector: g.triangulation_ids for g in poly.generators}
    for vertex, cert in zip(poly.vertices, poly.certificates):
        if cert is None:
            continue
        assert cert in {witnesses[t] for t in sources[vertex]}
        own = sum(x * l for x, l in zip(vertex, cert.heights))
        for g in poly.generators:
            if g.vector != vertex:
                assert own < sum(x * l for x, l in zip(g.vector, cert.heights))


@pytest.fixture
def lp_calls(monkeypatch):
    # The hull-membership LP of each point tested, recorded by that point.
    calls = []
    original = polytope.nonnegative_feasible

    def counting(rows, rhs):
        calls.append(tuple(rhs[:-1]))
        return original(rows, rhs)

    monkeypatch.setattr(polytope, "nonnegative_feasible", counting)
    return calls


def test_certified_vertices_tie_goes_to_lp(lp_calls):
    # lam = (0, -1) gives (0, 2) and (2, 2) the same minimum, so it pins neither.
    vectors = [(0, 2), (2, 2), (1, 0)]
    lam = Lifting((0, -1))
    assert certified_vertices(vectors, [[lam], [lam], []]) == [(0, None), (1, None), (2, None)]
    assert lp_calls == vectors


def test_certified_vertices_non_extreme_point_goes_to_lp(lp_calls):
    # (1, 0) between (0, 0) and (2, 0): lam = (-1, 0) pins only (2, 0), and the
    # LP drops the midpoint.
    vectors = [(0, 0), (2, 0), (1, 0)]
    lam = Lifting((-1, 0))
    assert certified_vertices(vectors, [[], [lam], [lam]]) == [(0, None), (1, lam)]
    assert lp_calls == [(0, 0), (1, 0)]


@st.composite
def pin_cases(draw):
    # 1-12 vectors of one length 1-5 with entries in [-50, 50], each with up
    # to 3 candidates from a pool of liftings whose heights reach -2^80.  Up
    # to two vectors are added: a repeat of a vector, or a tie, a copy of a
    # vector changed where one of its candidates is 0, so that this candidate
    # pairs equally with both.
    d = draw(st.integers(1, 5))
    entry = st.integers(-50, 50)
    vectors = draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=12))
    height = st.integers(-50, 0) | st.integers(-(2**80), 0) | st.just(-(2**80))
    pool = draw(st.lists(st.builds(Lifting.normalized, st.lists(height, min_size=d, max_size=d)), min_size=1, max_size=4))
    picks = st.lists(st.sampled_from(pool), max_size=3)
    candidates = draw(st.lists(picks, min_size=len(vectors), max_size=len(vectors)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(vectors) - 1))
        vector, cands = vectors[i], candidates[i]
        if cands and draw(st.booleans()):
            lam = draw(st.sampled_from(cands))
            zero = lam.heights.index(0)
            vector = vector[:zero] + (draw(entry),) + vector[zero + 1:]
            cands = [lam]
        k = draw(st.integers(0, len(vectors)))
        vectors.insert(k, vector)
        candidates.insert(k, cands)
    return vectors, candidates


@settings(max_examples=120, deadline=None)
@given(pin_cases())
def test_certified_vertices_match_the_scalar_oracle(case):
    vectors, candidates = case
    # With the LP stubbed to keep every index it is asked about, the output
    # shows every pin decision, on repeated vectors too.
    with mock.patch.object(weights, "extreme_point_indices", lambda points, indices: indices):
        assert certified_vertices(vectors, candidates) == list(enumerate(oracles.first_pins(vectors, candidates)))
    if len(set(vectors)) == len(vectors):
        assert certified_vertices(vectors, candidates) == oracles.certified_vertices(vectors, candidates)
    else:
        with pytest.raises(ValueError, match="distinct points"):
            certified_vertices(vectors, candidates)


@pytest.mark.parametrize("norm", [64, 128])
def test_certified_vertices_at_the_lane_width_bound(norm):
    # top = 2^80 - 1 and the l1 norm give pairings -top*norm, -top*norm + 1
    # and top*norm: the widest span the lanes admit, with a pin won by exactly
    # 1.  At norm 64, 2*top*norm + 1 is just below 2^87, so the 88-bit fields
    # come within 129 of overflowing; at norm 128 it needs one more byte.
    top = 2**80 - 1
    lam = Lifting((0, -top, 1 - top))
    vectors = [(0, norm, 0), (0, norm - 1, 1), (0, -norm, 0)]
    assert [sum(map(mul, v, lam.heights)) for v in vectors] == [-top * norm, 1 - top * norm, top * norm]
    expected = [(0, lam), (1, None), (2, None)]
    assert certified_vertices(vectors, [[lam]] * 3) == expected == oracles.certified_vertices(vectors, [[lam]] * 3)


def test_certified_vertices_with_zero_liftings_pack_wide_entries():
    # All heights 0: every pairing is 0, but the lanes must still hold the
    # entries themselves as they are packed.
    zero = Lifting((0, 0))
    assert certified_vertices([(0, 300)], [[zero]]) == [(0, zero)]
    assert certified_vertices([(0, 300), (-300, 0)], [[zero], [zero]]) == [(0, None), (1, None)]


def test_certified_vertices_reject_mismatched_shapes():
    lam = Lifting((0, 0))
    for vectors, candidates in [
        ([(0, 1), (1,)], [[], []]),  # vectors of two lengths
        ([(0, 1), (1, 0)], [[lam]]),  # one candidate list short
        ([(0, 1), (1, 0)], [[Lifting((0,))], []]),  # a lifting of another length
    ]:
        with pytest.raises(ValueError, match="one candidate list per vector"):
            certified_vertices(vectors, candidates)


@pytest.mark.parametrize("vertices", [GRID3X3, CUBE], ids=["grid3x3", "cube"])
def test_vertex_certificates_are_the_scalar_first_pins(vertices):
    # Every printed certificate is the lifting the scalar rule picks: the
    # first source witness that pins the vertex, or None for the LP.
    analysis = analyze(vertices)
    witnesses = [entry.certificate.witness for entry in analysis.enumeration]
    for poly in (analysis.chow, analysis.hurwitz):
        vectors = [g.vector for g in poly.generators]
        candidates = [[witnesses[t] for t in g.triangulation_ids] for g in poly.generators]
        first = dict(zip(vectors, oracles.first_pins(vectors, candidates)))
        assert poly.certificates == tuple(first[v] for v in poly.vertices)


def _failure_digest(report) -> str:
    doc = [[f.triangulation_id, f.trial, f.name, str(f.lhs), str(f.rhs)] for f in report.failures]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def test_identity_suite_reports_a_linear_fault_in_units_of_g(monkeypatch):
    # Doubling volume_total (that is, integral_q) is linear in g, so every
    # failure of the packed suite, divided back by the scale, has the lhs and
    # rhs that the one-at-a-time suite of tests/oracles.py reports under the
    # same fault (digest of the 84 failures recorded with it).
    analysis = analyze(json.loads((DATA / "double_simplex.json").read_text())["vertices"])
    original = weights.volume_total
    monkeypatch.setattr(weights, "volume_total", lambda g: 2 * original(g))
    report = verify_identities(analysis, trials=3, seed=0)
    assert (report.checks, len(report.failures)) == (181, 84)
    assert _failure_digest(report) == "a7f5ac371faa82ba52935a464f966fa79a9f8064c21b2017981f40001ed64280"


def test_identity_suite_catches_a_non_linear_fault(monkeypatch):
    # Adding a constant to integral_boundary (2! times it to boundary_total)
    # is not linear in g: the same 84 checks fail, but the reported values
    # are those of the scaled function divided by the scale, so the constant
    # shows up divided by it.
    analysis = analyze(json.loads((DATA / "double_simplex.json").read_text())["vertices"])
    original = weights.boundary_total
    monkeypatch.setattr(weights, "boundary_total", lambda g: original(g) + factorial(2) * Fraction(1, 7))
    report = verify_identities(analysis, trials=3, seed=0)
    assert (report.checks, len(report.failures)) == (181, 84)
    boundary = [f for f in report.failures if f.name == "boundary pairing"]
    assert boundary
    assert all(f.rhs - f.lhs == factorial(2) * Fraction(1, 7) / weights._TRIAL_SCALE for f in boundary)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_identity_suite_matches_the_scalar_oracle(corpus_analysis, data):
    # One entry of a GKZ or Hurwitz vector, or one cell or wall volume of
    # one triangulation, moved by a small or a huge amount: the packed suite
    # reports exactly the oracle's checks and failures, in its order.
    analysis = corpus_analysis
    trials, seed = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2**16))
    tid = data.draw(st.integers(0, len(analysis.enumeration) - 1))
    delta = data.draw(st.integers(-3, 3) | st.integers(-(2**70), 2**70))
    target = data.draw(st.sampled_from(["chow", "hurwitz", "cell_volumes", "massive_wall_volumes"]))
    if target in ("chow", "hurwitz"):
        poly = getattr(analysis, target)
        vector = list(poly.vectors[tid])
        vector[data.draw(st.integers(0, len(vector) - 1))] += delta
        vectors = poly.vectors[:tid] + (tuple(vector),) + poly.vectors[tid + 1:]
        faulty = analysis._replace(**{target: poly._replace(vectors=vectors)})
        assert verify_identities(faulty, trials, seed) == oracles.verify_identities(faulty, trials, seed)
        return
    tri = analysis.enumeration.entries[tid].triangulation
    table = getattr(tri, target)
    k = data.draw(st.integers(0, len(table) - 1))
    tri.__dict__[target] = table[:k] + ((table[k][0], table[k][1] + delta),) + table[k + 1:]
    try:
        assert verify_identities(analysis, trials, seed) == oracles.verify_identities(analysis, trials, seed)
    finally:
        tri.__dict__[target] = table


def _signed_lanes(packed: int, w: int, count: int) -> list[int]:
    """The ``count`` signed w-bit lanes of ``packed``, lowest first."""
    half, lanes = 1 << (w - 1), []
    for _ in range(count):
        lanes.append((packed + half) % (1 << w) - half)
        packed = (packed - lanes[-1]) >> w
    return lanes


@pytest.mark.parametrize("name", ["double_simplex.json", "octahedron.json"])
def test_trial_lanes_at_the_width_bound(name):
    # Every draw at +-3600, the largest trial value: all +, all -, and the
    # signs that make each pairing largest in size.  At the width w the
    # suite picks, every form compared on the packed function has each
    # trial's value in its own lane, and lane differences up to twice the
    # bound still fit; one byte narrower, twice the bound no longer fits a
    # signed lane, so an extreme difference carries into the next lane.  On
    # the double simplex the sides themselves already carry at that width.
    analysis = analyze(json.loads((DATA / name).read_text())["vertices"])
    config, n, deg = analysis.config, analysis.config.dim, analysis.degrees
    bound = weights._TRIAL_BOUND
    assert bound == 3600
    carried = False
    for entry in analysis.enumeration:
        tri, tid = entry.triangulation, entry.id
        gkz, hur, bd = analysis.chow.vectors[tid], analysis.hurwitz.vectors[tid], vectors.boundary_vector(tri)
        mixed = tuple(n * deg.hurwitz * e - (n + 1) * deg.chow * x for e, x in zip(gkz, hur))
        used = tri.used_points
        signs = [[1] * len(used)] + [[1 if v[i] >= 0 else -1 for i in used] for v in (gkz, bd, mixed)]
        draws = [[s * bound for s in row] for row in signs] + [[-s * bound for s in row] for row in signs]

        def forms(values):
            g = functionals.PLFunction(tri, dict(zip(used, values)))
            volume, boundary = functionals.volume_total(g), functionals.boundary_total(g)
            pairings = [functionals.char_pairing(v, g) for v in (gkz, bd, mixed)]
            return [volume, boundary, functionals.donaldson_total(config, boundary, volume), *pairings]

        scalar = [list(col) for col in zip(*map(forms, draws))]
        cells = sum(len(cell) * vol for cell, vol in tri.cell_volumes)
        walls = sum(len(wall) * vol for wall, vol in tri.massive_wall_volumes)
        weight = (n + 1) * config.volume * walls + n * config.boundary_volume * cells
        top = bound * max(cells, walls, weight, *(sum(map(abs, v)) for v in (gkz, bd, mixed)))
        assert max(abs(x) for col in scalar for x in col) <= top
        lanes = exact.Lanes(weights._trial_span(config, tri, (gkz, bd, mixed)), len(draws))
        w = lanes.width
        assert 2 * top + 1 < 2 ** (w - 1) and 2 * top + 1 >= 2 ** (w - 9)
        assert [_signed_lanes(v, w, len(draws)) for v in forms(lanes.pack(draws))] == scalar
        assert _signed_lanes(2 * top, w, 2) == [2 * top, 0]
        narrow = exact.Lanes(2 ** (w - 9) - 1, len(draws))
        assert narrow.width == w - 8
        assert _signed_lanes(2 * top, narrow.width, 2) != [2 * top, 0]
        carried |= [_signed_lanes(v, narrow.width, len(draws)) for v in forms(narrow.pack(draws))] != scalar
    assert carried == (name == "double_simplex.json")


SUPPORT_FAULTS = ["none", "chow vertices", "hurwitz vector", "dropped entry", "cell volumes"]


def _most_induced(analysis, count, seed):
    """The entry that most of the suite's first ``count`` liftings induce."""
    rng, n1 = random.Random(seed), len(analysis.config)
    liftings = [Lifting.normalized(rng.choices(range(-30, 1), k=n1)) for _ in range(count)]
    hits = Counter(sub.cells for sub in triangulation.lower_hulls(analysis.config, liftings) if sub.is_triangulation)
    return analysis.enumeration.by_simplices[hits.most_common(1)[0][0]]


@pytest.mark.parametrize("fault", SUPPORT_FAULTS)
@pytest.mark.parametrize("name", ["double_simplex.json", "octahedron.json", "segment3.json"])
def test_support_suite_matches_the_one_at_a_time_oracle(name, fault):
    # The packed suite reruns exactly the liftings that fail, so its report
    # equals, field for field, that of the suite that checks one lifting at
    # a time.  A Hurwitz vector moved by +1 at one point pairs below the
    # minimum wherever that height is negative (a check of d_x >= 0 alone
    # misses it); a wrong cell volume trips only the Aubin check.
    analysis = analyze(json.loads((DATA / name).read_text())["vertices"])
    count, seed = 30, 7
    entry = _most_induced(analysis, count, seed)
    tid = entry.id
    if fault == "chow vertices":
        shifted = tuple(tuple(x + 1 for x in v) for v in analysis.chow.vertices)
        analysis = analysis._replace(chow=analysis.chow._replace(vertices=shifted))
    elif fault == "hurwitz vector":
        vectors = list(analysis.hurwitz.vectors)
        vectors[tid] = tuple(x + (i == 1) for i, x in enumerate(vectors[tid]))
        analysis = analysis._replace(hurwitz=analysis.hurwitz._replace(vectors=tuple(vectors)))
    elif fault == "dropped entry":
        entries = analysis.enumeration.entries
        analysis = analysis._replace(enumeration=Enumeration(analysis.config, entries[:tid] + entries[tid + 1:]))
    elif fault == "cell volumes":
        tri = entry.triangulation
        (cell, vol), *rest = tri.cell_volumes
        tri.__dict__["cell_volumes"] = ((cell, vol + 1), *rest)
    report = run_support_trials(analysis, count, seed)
    assert report == oracles.run_support_trials(analysis, count, seed)
    assert bool(report.failures) == (fault != "none")
    if fault == "cell volumes":
        assert all(f.kind == CHOW and not f.argmin for f in report.failures)
