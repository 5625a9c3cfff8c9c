"""Chow and Hurwitz weight polytopes and the identity/support cross-checks.

The Chow polytope is the convex hull of the GKZ vectors of all regular
triangulations (the secondary polytope); the Hurwitz polytope is the convex
hull of the Hurwitz vectors.  Each vertex is certified by the regularity
witness of one of its source triangulations: the witness lambda lies in the
open secondary cone of T, so gkz_T (and, by the Hurwitz support identity,
hurwitz_T) minimises <., lambda>, and a strict integer inequality against
every other generator proves it a vertex.  Only generators that no witness
pins this way are decided by the exact hull-membership LP.  The
verification suite asserts, with exact arithmetic:

  * (gkz, g)      == volume_total(g)   = (n+1)! * integral_q(g)
  * (boundary, g) == boundary_total(g) = n!     * integral_boundary(g)
  * (n*degHu*gkz - (n+1)*degCh*hurwitz, g)
      == donaldson_total(q, boundary_total(g), volume_total(g))
       = (n+1)! * vol * donaldson_f(g)

for every enumerated triangulation and seeded random rational g, plus the
support identities min <x,lam> over the polytopes against the lower-hull
triangulation of lam.  Each trial g has values a/b with 1 <= b <= 6; the
suite checks L*g, L = lcm(1..6), whose values are integers, so both sides
of every identity are ints, the totals read off the triangulation's volume
tables.  Every identity is linear in g, so it holds for L*g exactly when it
holds for g; a failure is reported divided by L, in the units of g.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Optional, Sequence

from .exact import rank
from .functionals import (
    PLFunction,
    aubin_l,
    boundary_total,
    char_pairing,
    donaldson_total,
    pairing,
    volume_total,
)
from .polytope import extreme_point_indices
from .triangulation import Enumeration, Lifting, Triangulation, lower_hull_subdivision
from .vectors import boundary_vector, gkz_vector, hurwitz_vector

CHOW = "chow"
HURWITZ = "hurwitz"

# Every trial denominator, rng.randrange(1, 7), divides the scale.
_TRIAL_SCALE = lcm(*range(1, 7))


@dataclass(frozen=True)
class Generator:
    vector: tuple[int, ...]
    triangulation_ids: tuple[int, ...]


@dataclass(frozen=True)
class WeightPolytope:
    """``certificates[k]`` is the lifting that pins ``vertices[k]`` as the
    unique minimiser of <., lambda> over the generators, or None when the
    hull-membership LP decided that vertex."""

    kind: str
    ambient_dim: int
    generators: tuple[Generator, ...]
    vertices: tuple[tuple[int, ...], ...]
    affine_dim: int
    certificates: tuple[Optional[Lifting], ...]


def _pins(vectors: Sequence[Sequence[int]], i: int, lam: Sequence[int]) -> bool:
    """Whether <vectors[i], lam> < <h, lam> for every other vector h, in
    integers.  The unique minimiser of a linear functional over a finite set
    is a vertex of its convex hull."""
    values = [pairing(v, lam) for v in vectors]
    return all(val > values[i] for j, val in enumerate(values) if j != i)


def certified_vertices(
    vectors: Sequence[Sequence[int]], candidates: Sequence[Sequence[Lifting]]
) -> list[tuple[int, Optional[Lifting]]]:
    """(index, certificate) for each vertex of conv(vectors), in index order.

    The certificate is the first lifting in ``candidates[i]`` that pins
    ``vectors[i]``.  Vectors that none pins (a tie, or a non-vertex) go to
    the exact LP test against all other vectors, and a vertex found that way
    has certificate None.
    """
    certs = [
        next((lam for lam in cands if _pins(vectors, i, lam.heights)), None)
        for i, cands in enumerate(candidates)
    ]
    decided = set(extreme_point_indices(vectors, [i for i, c in enumerate(certs) if c is None]))
    return [(i, c) for i, c in enumerate(certs) if c is not None or i in decided]


def build(kind: str, enumeration: Enumeration) -> WeightPolytope:
    """Assemble the weight polytope from an enumeration of all regular
    triangulations.  Distinct triangulations with the same vector are merged
    into one generator carrying all source ids."""
    if kind not in (CHOW, HURWITZ):
        raise ValueError(f"unknown weight polytope kind {kind!r}")
    fn = gkz_vector if kind == CHOW else hurwitz_vector
    grouped: dict[tuple[int, ...], list[int]] = {}
    for entry in enumeration:
        vec = fn(entry.triangulation).entries
        grouped.setdefault(vec, []).append(entry.id)
    generators = tuple(
        Generator(vec, tuple(sorted(ids))) for vec, ids in sorted(grouped.items())
    )
    vectors = [g.vector for g in generators]
    witness = {entry.id: entry.certificate.witness for entry in enumeration}
    candidates = [[witness[t] for t in g.triangulation_ids] for g in generators]
    certified = certified_vertices(vectors, candidates)
    vertices = tuple(vectors[i] for i, _ in certified)
    certificates = tuple(cert for _, cert in certified)
    base = vectors[0]
    adim = rank([[x - b for x, b in zip(v, base)] for v in vectors[1:]]) if len(vectors) > 1 else 0
    return WeightPolytope(kind, len(base), generators, vertices, adim, certificates)


def support_min(poly: WeightPolytope, lam: Sequence[int]) -> tuple[Fraction, tuple[tuple[int, ...], ...]]:
    """Exact minimum of <x, lam> over the polytope and the argmin vertex set."""
    values = [(pairing(v, lam), v) for v in poly.vertices]
    best = min(val for val, _ in values)
    return best, tuple(v for val, v in values if val == best)


@dataclass(frozen=True)
class SupportCheck:
    kind: str
    status: str  # "pass" | "fail" | "inapplicable"
    lifting: Optional[Lifting] = None
    minimum: Optional[Fraction] = None
    pairing_value: Optional[Fraction] = None
    argmin: tuple[tuple[int, ...], ...] = ()

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _support_check(analysis, lifting: Lifting, tri: Triangulation, kind: str) -> SupportCheck:
    """Compare min <x, lambda> over the polytope with the pairing of lambda
    and the vector of ``tri``, the lower-hull triangulation of ``lifting``."""
    vec = gkz_vector(tri) if kind == CHOW else hurwitz_vector(tri)
    poly = analysis.chow if kind == CHOW else analysis.hurwitz
    minimum, argmin = support_min(poly, lifting.heights)
    paired = pairing(vec, lifting.heights)
    status = "pass" if minimum == paired else "fail"
    return SupportCheck(kind, status, lifting, minimum, paired, argmin)


def _verify_support(analysis, lam, kind: str) -> SupportCheck:
    lifting = lam if isinstance(lam, Lifting) else Lifting.normalized(lam)
    sub = lower_hull_subdivision(analysis.config, lifting)
    if not sub.is_triangulation:
        return SupportCheck(kind, "inapplicable", lifting)
    return _support_check(analysis, lifting, sub.triangulation(analysis.config), kind)


def verify_chow_support(analysis, lam) -> SupportCheck:
    """min <x,lam> over the Chow polytope must equal <gkz(T_lam), lam> whenever
    the lower hull of lam is simplicial; 'inapplicable' otherwise."""
    return _verify_support(analysis, lam, CHOW)


def verify_hurwitz_support(analysis, lam) -> SupportCheck:
    """Same as the Chow check with the Hurwitz vector and polytope."""
    return _verify_support(analysis, lam, HURWITZ)


@dataclass
class IdentityFailure:
    triangulation_id: int
    trial: Optional[int]
    name: str
    lhs: object
    rhs: object


@dataclass
class IdentityReport:
    seed: int
    trials: int
    triangulations: int
    checks: int = 0
    failures: list[IdentityFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_identities(analysis, trials: int = 20, seed: int = 0) -> IdentityReport:
    """Exact identity suite over every enumerated triangulation with seeded
    random rational functions, checked as their integer multiples by
    ``_TRIAL_SCALE``; also asserts the constant-sum invariants and the
    T-independence of affine pairings."""
    config = analysis.config
    q = config.polytope
    n = q.dim
    deg = analysis.degrees
    rng = random.Random(seed)
    report = IdentityReport(seed, trials, len(analysis.enumeration))

    def check(tid, trial, name, lhs, rhs):
        report.checks += 1
        if lhs != rhs:
            if trial is not None:  # the values of _TRIAL_SCALE * g, in units of g
                lhs, rhs = Fraction(lhs, _TRIAL_SCALE), Fraction(rhs, _TRIAL_SCALE)
            report.failures.append(IdentityFailure(tid, trial, name, lhs, rhs))

    affine_reference: Optional[list[tuple[int, int]]] = None
    affine_fns = [[1] * len(config)] + [[p[j] for p in config.points] for j in range(n)]
    for entry in analysis.enumeration:
        tri = entry.triangulation
        gkz = gkz_vector(tri)
        bd = boundary_vector(tri)
        hur = hurwitz_vector(tri)
        tid = entry.id
        check(tid, None, "gkz sum", gkz.total(), (n + 1) * q.volume)
        check(tid, None, "boundary sum", bd.total(), n * q.boundary_volume)
        check(tid, None, "hurwitz sum", hur.total(), n * deg.hurwitz)
        affine_values = [
            (pairing(gkz, a), pairing(hur, a)) for a in affine_fns
        ]
        if affine_reference is None:
            affine_reference = affine_values
        else:
            check(tid, None, "affine pairing T-independence", affine_values, affine_reference)
        mixed = tuple(
            n * deg.hurwitz * e - (n + 1) * deg.chow * x
            for e, x in zip(gkz.entries, hur.entries)
        )
        for trial in range(trials):
            values = {
                i: rng.randrange(-60, 61) * (_TRIAL_SCALE // rng.randrange(1, 7))
                for i in tri.used_points
            }
            g = PLFunction.on_triangulation(tri, values)
            volume = volume_total(g)
            boundary = boundary_total(g)
            check(tid, trial, "volume pairing", char_pairing(gkz, g), volume)
            check(tid, trial, "boundary pairing", char_pairing(bd, g), boundary)
            check(tid, trial, "donaldson pairing", donaldson_total(q, boundary, volume), char_pairing(mixed, g))
    return report


@dataclass
class SupportTrialReport:
    seed: int
    requested: int
    applicable: int = 0
    attempts: int = 0
    failures: list[SupportCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def run_support_trials(analysis, count: int = 20, seed: int = 0) -> SupportTrialReport:
    """Seeded random integral liftings with simplicial lower hull, each checked
    against both support identities (plus the Aubin identity for the Chow
    side: min <x,lam> == (n+1)! * integral of the lower envelope)."""
    rng = random.Random(seed)
    n1 = len(analysis.config)
    fact = factorial(analysis.config.dim + 1)
    report = SupportTrialReport(seed, count)
    while report.applicable < count and report.attempts < 200 * count:
        report.attempts += 1
        lam = Lifting.normalized([rng.randrange(-30, 1) for _ in range(n1)])
        sub = lower_hull_subdivision(analysis.config, lam)
        if not sub.is_triangulation:
            continue
        report.applicable += 1
        tri = sub.triangulation(analysis.config)
        chow = _support_check(analysis, lam, tri, CHOW)
        for chk in (chow, _support_check(analysis, lam, tri, HURWITZ)):
            if chk.status != "pass":
                report.failures.append(chk)
        # The lower envelope, as pl_from_lifting gives it for a simplicial hull.
        envelope = PLFunction.on_triangulation(tri, {i: lam.heights[i] for i in tri.used_points})
        aubin = fact * aubin_l(envelope)
        if chow.minimum != aubin:
            report.failures.append(SupportCheck(CHOW, "fail", lam, chow.minimum, aubin))
    if report.applicable < count:
        raise RuntimeError(
            f"only {report.applicable} of {count} liftings had simplicial lower hulls "
            f"after {report.attempts} attempts"
        )
    return report
