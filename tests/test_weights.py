import hashlib
import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from conftest import DOUBLE_SIMPLEX
from toricweights import functionals, polytope, vectors, weights
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
    assert calls == {"volume_total": 5 * ntri, "boundary_total": 5 * ntri}
    # Three sums per triangulation, the affine T-independence from the second
    # one on, and three pairings per trial function.
    assert rep.checks == ntri * (3 + 3 * 5) + ntri - 1


def test_characteristic_vectors_computed_once_per_entry(monkeypatch):
    # build computes each entry's GKZ and Hurwitz vectors once, the suites
    # read them off the polytopes, and the identity suite computes each
    # boundary vector once.  Computing them afresh in every suite made
    # 4, 3 and 2 calls per entry, and 2, 1 and 1 more per lifting.
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
    assert calls == {"gkz_vector": ntri, "boundary_vector": ntri, "hurwitz_vector": ntri}


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
    calls = []

    def counting(config, lifting):
        calls.append(lifting)
        return lower_hull_subdivision(config, lifting)

    monkeypatch.setattr(weights, "lower_hull_subdivision", counting)
    monkeypatch.setattr(functionals, "lower_hull_subdivision", counting)
    rep = run_support_trials(segment, count=20, seed=1)
    assert len(calls) == rep.attempts == 20


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
    assert a.polytope.volume == 3 and a.polytope.boundary_volume == 5
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


def _failure_digest(report) -> str:
    doc = [[f.triangulation_id, f.trial, f.name, str(f.lhs), str(f.rhs)] for f in report.failures]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def test_identity_suite_reports_a_linear_fault_in_units_of_g(monkeypatch):
    # Doubling volume_total (that is, integral_q) is linear in g, so every
    # failure of the scaled suite, divided back by the scale, has the lhs and
    # rhs that the Fraction suite reported (digest of the 84 failures
    # recorded with it).
    analysis = analyze(json.loads((DATA / "double_simplex.json").read_text())["vertices"])
    original = weights.volume_total
    monkeypatch.setattr(weights, "volume_total", lambda g: 2 * original(g))
    report = verify_identities(analysis, trials=3, seed=0)
    assert (report.checks, len(report.failures)) == (181, 84)
    assert _failure_digest(report) == "9b85c0aefb9b9f279fbf1ebf5015cda665ceee57da97a5dcafc7056c0c60fbbf"


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
