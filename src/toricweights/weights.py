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
support identities min <x,lam> == <vector of T_lam, lam> over both
polytopes for seeded liftings lam with simplicial lower hull, where T_lam,
the lower-hull triangulation, is looked up among the enumerated
triangulations (one missing from them is a failure).  Each trial g has
values a/b with 1 <= b <= 6; the suite checks L*g, L = lcm(1..6), whose
values are integers, so both sides of every identity are ints, the totals
read off the triangulation's volume tables.  Every identity is linear in g,
so it holds for L*g exactly when it holds for g; a failure is reported
divided by L, in the units of g.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .exact import rank
from .functionals import (
    PLFunction,
    boundary_total,
    char_pairing,
    donaldson_total,
    pairing,
    volume_total,
)
from .polytope import extreme_point_indices
from .triangulation import Enumeration, Lifting, lower_hull_subdivision
from .vectors import boundary_vector, gkz_vector, hurwitz_vector

CHOW = "chow"
HURWITZ = "hurwitz"

# Every trial denominator, rng.randrange(1, 7), divides the scale.
_TRIAL_SCALE = lcm(*range(1, 7))


class Generator(NamedTuple):
    vector: tuple[int, ...]
    triangulation_ids: tuple[int, ...]


class _Polytope(NamedTuple):
    kind: str
    ambient_dim: int
    generators: tuple[Generator, ...]
    vertices: tuple[tuple[int, ...], ...]
    affine_dim: int
    certificates: tuple[Optional[Lifting], ...]


class WeightPolytope(_Polytope):
    """``certificates[k]`` is the lifting that pins ``vertices[k]`` as the
    unique minimiser of <., lambda> over the generators, or None when the
    hull-membership LP decided that vertex.  Instances keep a ``__dict__``
    for the ``vector_of`` cache."""

    @cached_property
    def vector_of(self) -> dict[int, tuple[int, ...]]:
        """Each source triangulation's id mapped to its vector, so the suites
        read the vectors ``build`` computed once per entry."""
        return {t: g.vector for g in self.generators for t in g.triangulation_ids}


def _pins(vectors: Sequence[Sequence[int]], i: int, lam: Sequence[int]) -> bool:
    """Whether <vectors[i], lam> < <h, lam> for every other vector h, in
    integers.  The unique minimiser of a linear functional over a finite set
    is a vertex of its convex hull.  ``lam`` is a ``Lifting``'s heights,
    checked ints, so the products are taken without ``pairing``'s checks."""
    values = [sum(map(mul, v, lam)) for v in vectors]
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
        vec = fn(entry.triangulation)
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


def support_min(poly: WeightPolytope, lam: Sequence[int]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact minimum of <x, lam> over the polytope and the argmin vertex set."""
    values = [(pairing(v, lam), v) for v in poly.vertices]
    best = min(val for val, _ in values)
    return best, tuple(v for val, v in values if val == best)


class SupportCheck(NamedTuple):
    """One support identity at ``lifting``: ``minimum`` over the polytope
    against ``pairing_value``, which is None when the lower-hull
    triangulation is missing from the enumeration.  ``triangulation_id`` is
    that triangulation's enumeration id."""

    kind: str
    status: str  # "pass" | "fail"
    lifting: Lifting
    minimum: int
    pairing_value: Optional[int]
    argmin: tuple[tuple[int, ...], ...] = ()
    triangulation_id: Optional[int] = None


def support_checks(analysis, lam: Lifting) -> Optional[tuple[SupportCheck, SupportCheck, SupportCheck]]:
    """The Chow and Hurwitz support checks and the Aubin check at ``lam``,
    or None when its lower hull is not simplicial.

    A simplicial lower hull is the regular triangulation T_lam, which is
    looked up in the enumeration by its canonical cells, and its vectors in
    the polytopes' ``vector_of``.  The support checks compare min <x, lam>
    over each polytope with <vector of T_lam, lam>; the Aubin check
    compares the Chow minimum with (n+1)! times the integral of the lower
    envelope, lam's heights on T_lam.  With T_lam missing every pairing is
    None, so all three fail.

    The Aubin value repeats the Chow one: ``volume_total`` of the envelope
    is the sum over cells of vol times the cell's heights, which regrouped
    by point is sum_i h_i gkz_T[i] = <gkz_T, lam>.  So the Aubin check fails
    exactly when the Chow support check does, unless ``gkz_vector`` and
    ``volume_total`` disagree; it is kept as a check of that agreement.
    """
    sub = lower_hull_subdivision(analysis.config, lam)
    if not sub.is_triangulation:
        return None
    h = lam.heights
    entry = analysis.enumeration.by_simplices.get(sub.cells)
    tid, values = None, (None, None, None)
    if entry is not None:
        tri = entry.triangulation
        envelope = PLFunction(tri, {i: h[i] for i in tri.used_points})
        tid = entry.id
        gkz, hur = analysis.chow.vector_of[tid], analysis.hurwitz.vector_of[tid]
        values = (pairing(gkz, h), pairing(hur, h), volume_total(envelope))
    chow_min, chow_argmin = support_min(analysis.chow, h)
    hurwitz_min, hurwitz_argmin = support_min(analysis.hurwitz, h)
    minima = ((CHOW, chow_min, chow_argmin), (HURWITZ, hurwitz_min, hurwitz_argmin), (CHOW, chow_min, ()))
    return tuple(
        SupportCheck(kind, "pass" if minimum == value else "fail", lam, minimum, value, argmin, tid)
        for (kind, minimum, argmin), value in zip(minima, values)
    )


class IdentityFailure(NamedTuple):
    triangulation_id: int
    trial: Optional[int]
    name: str
    lhs: object
    rhs: object


class IdentityReport(NamedTuple):
    seed: int
    trials: int
    triangulations: int
    checks: int
    failures: list[IdentityFailure]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_identities(analysis, trials: int = 20, seed: int = 0) -> IdentityReport:
    """Exact identity suite over every enumerated triangulation with seeded
    random rational functions, checked as their integer multiples by
    ``_TRIAL_SCALE``; also asserts the constant-sum invariants and the
    T-independence of affine pairings.  The GKZ and Hurwitz vectors are the
    ones the polytopes were built from (``vector_of``)."""
    config = analysis.config
    q = config.polytope
    n = q.dim
    deg = analysis.degrees
    rng = random.Random(seed)
    checks = 0
    failures = []

    def check(tid, trial, name, lhs, rhs):
        nonlocal checks
        checks += 1
        if lhs != rhs:
            if trial is not None:  # the values of _TRIAL_SCALE * g, in units of g
                lhs, rhs = Fraction(lhs, _TRIAL_SCALE), Fraction(rhs, _TRIAL_SCALE)
            failures.append(IdentityFailure(tid, trial, name, lhs, rhs))

    affine_reference: Optional[list[tuple[int, int]]] = None
    affine_fns = [[1] * len(config)] + [[p[j] for p in config.points] for j in range(n)]
    for entry in analysis.enumeration:
        tri = entry.triangulation
        tid = entry.id
        gkz, hur = analysis.chow.vector_of[tid], analysis.hurwitz.vector_of[tid]
        bd = boundary_vector(tri)
        check(tid, None, "gkz sum", sum(gkz), (n + 1) * q.volume)
        check(tid, None, "boundary sum", sum(bd), n * q.boundary_volume)
        check(tid, None, "hurwitz sum", sum(hur), n * deg.hurwitz)
        affine_values = [
            (pairing(gkz, a), pairing(hur, a)) for a in affine_fns
        ]
        if affine_reference is None:
            affine_reference = affine_values
        else:
            check(tid, None, "affine pairing T-independence", affine_values, affine_reference)
        mixed = tuple(
            n * deg.hurwitz * e - (n + 1) * deg.chow * x
            for e, x in zip(gkz, hur)
        )
        for trial in range(trials):
            values = {
                i: rng.randrange(-60, 61) * (_TRIAL_SCALE // rng.randrange(1, 7))
                for i in tri.used_points
            }
            g = PLFunction(tri, values)
            volume = volume_total(g)
            boundary = boundary_total(g)
            check(tid, trial, "volume pairing", char_pairing(gkz, g), volume)
            check(tid, trial, "boundary pairing", char_pairing(bd, g), boundary)
            check(tid, trial, "donaldson pairing", donaldson_total(q, boundary, volume), char_pairing(mixed, g))
    return IdentityReport(seed, trials, len(analysis.enumeration), checks, failures)


class SupportTrialReport(NamedTuple):
    seed: int
    requested: int
    applicable: int
    attempts: int
    failures: list[SupportCheck]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_support_trials(analysis, count: int = 20, seed: int = 0) -> SupportTrialReport:
    """Seeded random integral liftings with simplicial lower hull, each run
    through ``support_checks``; failures are reported per lifting in its
    order: Chow support, Hurwitz support, Aubin."""
    rng = random.Random(seed)
    n1 = len(analysis.config)
    applicable = attempts = 0
    failures = []
    while applicable < count and attempts < 200 * count:
        attempts += 1
        lam = Lifting.normalized([rng.randrange(-30, 1) for _ in range(n1)])
        checks = support_checks(analysis, lam)
        if checks is None:
            continue
        applicable += 1
        failures += [chk for chk in checks if chk.status != "pass"]
    if applicable < count:
        raise RuntimeError(
            f"only {applicable} of {count} liftings had simplicial lower hulls after {attempts} attempts"
        )
    return SupportTrialReport(seed, count, applicable, attempts, failures)
