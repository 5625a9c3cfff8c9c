"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s``).  Every assertion is an exact
equality; the only tolerances are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from conftest import CUBE, DOUBLE_SIMPLEX, SEGMENT2, SEGMENT3, SQUARE
from oracles import OracleTimeout, all_triangulations
from toricweights.functionals import PLFunction, donaldson_f, pairing
from toricweights.pipeline import analyze
from toricweights.triangulation import (
    Triangulation,
    enumerate_regular,
    flips,
    is_regular,
    lower_hull_subdivision,
)
from toricweights.vectors import gkz_vector, hurwitz_vector
from toricweights.weights import run_support_trials, verify_identities


class Criterion:
    def __init__(self, number, budget=None):
        self.number = number
        self.budget = budget
        self.start = time.monotonic()

    def done(self, ok, detail=""):
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok else "FAIL"
        line = f"acceptance criterion {self.number}: {status} ({elapsed:.2f}s) {detail}"
        print(line)
        assert ok, line
        if self.budget is not None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s budget ({elapsed:.2f}s)"


def structural_invariants(analysis, orders=3, order_seed=17):
    """Criterion 6 invariant pack for one polytope."""
    cfg = analysis.config
    vol = cfg.volume
    for entry in analysis.enumeration:
        tri = entry.triangulation
        assert sum(cfg.normalized_volume(s) for s in tri.simplices) == vol
        sub = lower_hull_subdivision(cfg, entry.certificate.witness)
        assert sub.is_triangulation and sub.cells == tri.simplices
        for f in flips(tri):
            assert any(g.simplices == tri.simplices for g in flips(Triangulation(cfg, f.simplices)))
    base = analysis.enumeration.canonical_forms()
    rng = random.Random(order_seed)
    for _ in range(orders):
        order = list(range(len(cfg)))
        rng.shuffle(order)
        assert enumerate_regular(cfg, order=order).canonical_forms() == base


def test_criterion_1_segment():
    crit = Criterion(1, budget=1.0)
    a = analyze(SEGMENT2)
    ok = (
        len(a.enumeration) == 2
        and set(a.chow.vertices) == {(1, 2, 1), (2, 0, 2)}
        and set(a.hurwitz.vertices) == {(0, 2, 0), (1, 0, 1)}
        and a.degrees.chow == 2
        and a.degrees.hurwitz == 2
    )
    crit.done(ok, "segment [0,2]: 2 triangulations, Chow/Hurwitz vertices and degrees exact")


def test_criterion_2_unit_square():
    crit = Criterion(2, budget=1.0)
    a = analyze(SQUARE)
    xis = {hurwitz_vector(e.triangulation) for e in a.enumeration}
    n = a.polytope.dim
    ok = (
        len(a.enumeration) == 2
        and xis == {(2, 0, 0, 2), (0, 2, 2, 0)}
        and all(sum(x) == n * a.degrees.hurwitz == 4 for x in xis)
    )
    crit.done(ok, "unit square: 2 triangulations, Hurwitz vectors (2,0,0,2)/(0,2,2,0), sums 4")


def test_criterion_3_double_simplex_identities():
    crit = Criterion(3, budget=30.0)
    a = analyze(DOUBLE_SIMPLEX)
    ok = (
        a.config.volume == 4
        and a.config.boundary_volume == 6
        and a.degrees.hurwitz == 6
        and all(sum(hurwitz_vector(e.triangulation)) == 12 for e in a.enumeration)
    )
    report = verify_identities(a, trials=50, seed=0)
    ok = ok and report.passed
    crit.done(
        ok,
        f"doubled simplex: volumes/degrees exact; {report.checks} identity checks "
        f"over {len(a.enumeration)} triangulations x 50 rational g",
    )


def test_criterion_4_hand_traced_donaldson_value():
    crit = Criterion(4)
    a = analyze(SEGMENT2)
    tri = next(
        e.triangulation for e in a.enumeration if e.triangulation.simplices == ((0, 1), (1, 2))
    )
    g = PLFunction.on_triangulation(tri, {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)})
    direct = donaldson_f(g)
    n = 1
    eta = gkz_vector(tri)
    xi = hurwitz_vector(tri)
    mixed = tuple(
        n * a.degrees.hurwitz * e - (n + 1) * a.degrees.chow * x for e, x in zip(eta, xi)
    )
    via_pairing = Fraction(pairing(mixed, (0, 0, 1)), factorial(n + 1) * a.config.volume)
    ok = mixed == (2, -4, 2) and direct == via_pairing == Fraction(1, 2)
    crit.done(ok, f"F(max(0,x-1)) on [0,2]: direct {direct} == pairing {via_pairing} == 1/2")


def test_criterion_5_support_corollaries():
    crit = Criterion(5)
    total = 0
    for verts in (SEGMENT2, SEGMENT3, SQUARE, DOUBLE_SIMPLEX):
        a = analyze(verts)
        report = run_support_trials(a, count=100, seed=0)
        assert report.passed, report.failures[:3]
        total += report.applicable
    crit.done(True, f"{total} simplicial liftings: Chow and Hurwitz support minima match pairings")


def test_criterion_6_structural_invariants():
    crit = Criterion(6)
    counts = []
    for verts in (SEGMENT2, SEGMENT3, SQUARE, DOUBLE_SIMPLEX):
        a = analyze(verts)
        structural_invariants(a)
        counts.append(len(a.enumeration))
    crit.done(
        True,
        f"volume partition, certificate round-trip, flip involution, order independence "
        f"on {counts} triangulations",
    )


def test_criterion_7_brute_force_equivalence():
    crit = Criterion(7, budget=10.0)
    details = []
    for verts in (SEGMENT3, SQUARE):
        a = analyze(verts)
        brute = all_triangulations(a.config)
        regular = {
            c for c in brute if is_regular(Triangulation(a.config, c)).regular
        }
        assert regular == a.enumeration.canonical_forms()
        details.append(f"{len(brute)} total / {len(regular)} regular")
    crit.done(True, f"brute force == flip BFS on [0,3] ({details[0]}) and square ({details[1]})")


def test_criterion_8_cube_scale():
    crit = Criterion(8, budget=120.0)
    a = analyze(CUBE)
    assert a.config.volume == 6 and a.config.boundary_volume == 12
    report = verify_identities(a, trials=50, seed=0)
    assert report.passed, report.failures[:3]
    structural_invariants(a)
    cross = "invariants only (oracle over budget)"
    try:
        brute = all_triangulations(a.config, time_budget=60.0)
    except OracleTimeout:
        brute = None
    if brute is not None:
        regular = {
            c for c in brute if is_regular(Triangulation(a.config, c)).regular
        }
        assert regular == a.enumeration.canonical_forms()
        cross = f"brute force cross-check: {len(brute)} total, {len(regular)} regular"
    crit.done(
        True,
        f"3-cube: {len(a.enumeration)} regular triangulations, {report.checks} identity checks; {cross}",
    )
