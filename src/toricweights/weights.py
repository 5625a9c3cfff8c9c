"""Chow and Hurwitz weight polytopes and the identity/support cross-checks.

The Chow polytope is the convex hull of the GKZ vectors of all regular
triangulations (the secondary polytope); the Hurwitz polytope is the convex
hull of the Hurwitz vectors.  Each vertex is certified by the regularity
witness of one of its source triangulations: the witness lambda lies in the
open secondary cone of T, so gkz_T (and, by the Hurwitz support identity,
hurwitz_T) minimises <., lambda>; strict integer inequalities against all
other generators, taken at once on packed integer lanes, prove it a vertex.
Generators that no witness pins are decided by the exact hull-membership
LP.  The verification suite asserts, with exact arithmetic:

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
divided by L, in the units of g.  Linearity also lets one function carry
all trials of a triangulation, trial t in lane t of ``exact.Lanes``, so
one big-int equality per identity decides them all; the span comes from a
bound on every side read off the volume tables and the vectors.  Only a
failed packed equality reruns the trials one by one, to name the failing
trials with their lhs and rhs.  The support suite packs the same way: the
liftings with one lower-hull triangulation share each pairing, lifting b in
lane b, and only a lane that may fail is rerun one lifting at a time.  Both
suites draw with ``random.Random(seed).choices``, one ``random()`` per
value: a scaled trial value from ``_TRIAL_VALUES``, a height from
range(-30, 1).  One call for k values draws what k calls for one value
draw, so a triangulation's trials, or a batch of liftings, can be drawn at
once.  When every check passes, the reports do not depend on the draws.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .exact import Lanes, rank
from .functionals import (
    PLFunction,
    boundary_total,
    char_pairing,
    donaldson_total,
    pairing,
    volume_total,
)
from .polytope import extreme_point_indices
from .triangulation import (
    EnumeratedTriangulation,
    Enumeration,
    Lifting,
    Subdivision,
    lower_hull_subdivision,
    lower_hulls,
)
from .vectors import boundary_vector, gkz_vector, hurwitz_vector

CHOW = "chow"
HURWITZ = "hurwitz"

# A trial value is a/b with a in [-60, 60] and b in [1, 6], each (a, b)
# equally likely; every b divides the scale, so a value of a scaled trial
# function is a * (scale / b), one of _TRIAL_VALUES, and at most
# _TRIAL_BOUND in size.
_TRIAL_SCALE = lcm(*range(1, 7))
_TRIAL_BOUND = 60 * _TRIAL_SCALE
_TRIAL_VALUES = tuple(a * (_TRIAL_SCALE // b) for a in range(-60, 61) for b in range(1, 7))


class Generator(NamedTuple):
    vector: tuple[int, ...]
    triangulation_ids: tuple[int, ...]


class WeightPolytope(NamedTuple):
    """``certificates[k]`` is the lifting that pins ``vertices[k]`` as the
    unique minimiser of <., lambda> over the generators, or None when the
    hull-membership LP decided that vertex.  ``vectors[t]`` is the vector of
    the enumeration's entry with id t (ids are positions), computed once by
    ``build`` and read by the suites."""

    kind: str
    ambient_dim: int
    generators: tuple[Generator, ...]
    vertices: tuple[tuple[int, ...], ...]
    affine_dim: int
    certificates: tuple[Optional[Lifting], ...]
    vectors: tuple[tuple[int, ...], ...]


def certified_vertices(
    vectors: Sequence[Sequence[int]], candidates: Sequence[Sequence[Lifting]]
) -> list[tuple[int, Optional[Lifting]]]:
    """(index, certificate) for each vertex of conv(vectors), in index order.

    The certificate is the first lifting lam in ``candidates[i]`` that pins
    ``vectors[i]`` (<vectors[i], lam> < <h, lam> for every other vector h, so
    a vertex).  Vectors that none pins (a tie, or a non-vertex) go to the
    exact LP test against the others; a vertex it finds has certificate None.

    The pairings of one lam with all vectors are taken at once on
    ``Lanes``, vector k in lane k, with span max(2*top*norm + 1, norm)
    (top: the largest |height| of a candidate; norm: the largest l1 norm of
    a vector; every entry is at most norm, and every difference of two
    pairings at most 2*top*norm, in size).
    """
    dims = {len(v) for v in vectors} | {len(lam.heights) for cands in candidates for lam in cands}
    if len(candidates) != len(vectors) or len(dims) > 1:
        raise ValueError("certified_vertices needs one candidate list per vector, all of one length")
    norm = max((sum(map(abs, v)) for v in vectors), default=0)
    top = max((-min(lam.heights) for cands in candidates for lam in cands), default=0)
    lanes = Lanes(max(2 * top * norm + 1, norm), len(vectors))
    columns = lanes.pack(vectors)

    def pins(i: int, lam: Sequence[int]) -> bool:
        positive, _ = lanes.signs(sum(map(mul, lam, columns)) - sum(map(mul, vectors[i], lam)) * lanes.ones)
        return positive == lanes.tops ^ lanes.top(i)

    certs = [next((lam for lam in cands if pins(i, lam.heights)), None) for i, cands in enumerate(candidates)]
    decided = set(extreme_point_indices(vectors, [i for i, c in enumerate(certs) if c is None]))
    return [(i, c) for i, c in enumerate(certs) if c is not None or i in decided]


def build(kind: str, enumeration: Enumeration) -> WeightPolytope:
    """Assemble the weight polytope from an enumeration of all regular
    triangulations, whose ids are their positions.  Distinct triangulations
    with the same vector are merged into one generator carrying all source
    ids."""
    if kind not in (CHOW, HURWITZ):
        raise ValueError(f"unknown weight polytope kind {kind!r}")
    fn = gkz_vector if kind == CHOW else hurwitz_vector
    by_id = tuple(fn(entry.triangulation) for entry in enumeration)
    grouped: dict[tuple[int, ...], list[int]] = {}
    for tid, vec in enumerate(by_id):
        grouped.setdefault(vec, []).append(tid)
    generators = tuple(Generator(vec, tuple(ids)) for vec, ids in sorted(grouped.items()))
    vectors = [g.vector for g in generators]
    witnesses = [entry.certificate.witness for entry in enumeration]
    candidates = [[witnesses[t] for t in g.triangulation_ids] for g in generators]
    certified = certified_vertices(vectors, candidates)
    vertices = tuple(vectors[i] for i, _ in certified)
    certificates = tuple(cert for _, cert in certified)
    base = vectors[0]
    adim = rank([[x - b for x, b in zip(v, base)] for v in vectors[1:]]) if len(vectors) > 1 else 0
    return WeightPolytope(kind, len(base), generators, vertices, adim, certificates, by_id)


def support_min(poly: WeightPolytope, lam: Sequence[int]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact minimum of <x, lam> over the polytope and the argmin vertex set."""
    values = [pairing(v, lam) for v in poly.vertices]
    best = min(values)
    return best, tuple(v for val, v in zip(values, poly.vertices) if val == best)


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


def support_checks(
    analysis, lam: Lifting, sub: Optional[Subdivision] = None
) -> Optional[tuple[SupportCheck, SupportCheck, SupportCheck]]:
    """The Chow and Hurwitz support checks and the Aubin check at ``lam``,
    or None when its lower hull is not simplicial.  ``sub`` is that lower
    hull when the caller has already taken it.

    A simplicial lower hull is the regular triangulation T_lam, which is
    looked up in the enumeration by its canonical cells, and its vectors in
    the polytopes' ``vectors``.  The support checks compare min <x, lam>
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
    if sub is None:
        sub = lower_hull_subdivision(analysis.config, lam)
    if not sub.is_triangulation:
        return None
    h = lam.heights
    # support_min checks h, so the pairings below take it as it is.
    chow_min, chow_argmin = support_min(analysis.chow, h)
    hurwitz_min, hurwitz_argmin = support_min(analysis.hurwitz, h)
    entry = analysis.enumeration.by_simplices.get(sub.cells)
    tid, values = None, (None, None, None)
    if entry is not None:
        tri = entry.triangulation
        envelope = PLFunction(tri, {i: h[i] for i in tri.used_points})
        tid = entry.id
        gkz, hur = analysis.chow.vectors[tid], analysis.hurwitz.vectors[tid]
        values = (sum(map(mul, gkz, h)), sum(map(mul, hur, h)), volume_total(envelope))
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


def _trial_span(config, tri, vectors: Sequence[Sequence[int]]) -> int:
    """The trial lanes' span 2*bound + 1, where bound is _TRIAL_BOUND times
    the largest coefficient sum of a form the identities compare on
    ``tri``: ``volume_total`` and ``boundary_total`` (the cell and wall
    volume tables), ``donaldson_total`` of the two, and the pairings with
    ``vectors`` (their l1 norms).  Every side then lies in [-bound, bound]
    in each lane, so two sides agree lane by lane exactly when their packed
    ints are equal."""
    n = config.dim
    cells = sum(len(cell) * abs(vol) for cell, vol in tri.cell_volumes)
    walls = sum(len(wall) * abs(vol) for wall, vol in tri.massive_wall_volumes)
    donaldson = (n + 1) * abs(config.volume) * walls + n * abs(config.boundary_volume) * cells
    coefficients = max(cells, walls, donaldson, *(sum(map(abs, v)) for v in vectors))
    return 2 * _TRIAL_BOUND * coefficients + 1


def _identities(config, g: PLFunction, gkz, bd, mixed) -> tuple[tuple[str, object, object], ...]:
    """(name, lhs, rhs) of the three trial identities on g."""
    volume, boundary = volume_total(g), boundary_total(g)
    return (
        ("volume pairing", char_pairing(gkz, g), volume),
        ("boundary pairing", char_pairing(bd, g), boundary),
        ("donaldson pairing", donaldson_total(config, boundary, volume), char_pairing(mixed, g)),
    )


def verify_identities(analysis, trials: int = 20, seed: int = 0) -> IdentityReport:
    """Exact identity suite over every enumerated triangulation with seeded
    random rational functions, checked as their integer multiples by
    ``_TRIAL_SCALE``; also asserts the constant-sum invariants and the
    T-independence of affine pairings.  The GKZ and Hurwitz vectors are the
    ones the polytopes were built from (their ``vectors``).

    All trials of one triangulation are checked at once: its used point i
    carries draws[t][i] in lane t of ``Lanes`` with span ``_trial_span``,
    and each identity, linear in g, is one big-int equality.  Only when one
    fails are the trials rerun one by one, to name each failing trial with
    its lhs and rhs."""
    config = analysis.config
    n = config.dim
    deg = analysis.degrees
    rng = random.Random(seed)
    checks = 0
    failures = []

    def check(tid, name, lhs, rhs):
        nonlocal checks
        checks += 1
        if lhs != rhs:
            failures.append(IdentityFailure(tid, None, name, lhs, rhs))

    affine_reference: Optional[list[tuple[int, int]]] = None
    affine_fns = [[1] * len(config)] + [[p[j] for p in config.points] for j in range(n)]
    for entry in analysis.enumeration:
        tri = entry.triangulation
        tid = entry.id
        gkz, hur = analysis.chow.vectors[tid], analysis.hurwitz.vectors[tid]
        bd = boundary_vector(tri)
        check(tid, "gkz sum", sum(gkz), (n + 1) * config.volume)
        check(tid, "boundary sum", sum(bd), n * config.boundary_volume)
        check(tid, "hurwitz sum", sum(hur), n * deg.hurwitz)
        affine_values = [
            (pairing(gkz, a), pairing(hur, a)) for a in affine_fns
        ]
        if affine_reference is None:
            affine_reference = affine_values
        else:
            check(tid, "affine pairing T-independence", affine_values, affine_reference)
        if trials <= 0:
            continue
        mixed = tuple(
            n * deg.hurwitz * e - (n + 1) * deg.chow * x
            for e, x in zip(gkz, hur)
        )
        used = tri.used_points
        values = rng.choices(_TRIAL_VALUES, k=trials * len(used))
        draws = [values[t * len(used):(t + 1) * len(used)] for t in range(trials)]
        lanes = Lanes(_trial_span(config, tri, (gkz, bd, mixed)), trials)
        packed = PLFunction(tri, dict(zip(used, lanes.pack(draws))))
        checks += 3 * trials
        if all(lhs == rhs for _, lhs, rhs in _identities(config, packed, gkz, bd, mixed)):
            continue
        for trial, row in enumerate(draws):
            for name, lhs, rhs in _identities(config, PLFunction(tri, dict(zip(used, row))), gkz, bd, mixed):
                if lhs != rhs:  # the values of _TRIAL_SCALE * g, in units of g
                    failures.append(
                        IdentityFailure(tid, trial, name, Fraction(lhs, _TRIAL_SCALE), Fraction(rhs, _TRIAL_SCALE))
                    )
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


def _failing_lanes(analysis, entry: EnumeratedTriangulation, heights: Sequence[Sequence[int]]) -> list[int]:
    """The indices into ``heights``, liftings whose lower-hull triangulation
    is ``entry``'s, at which a support or Aubin check may fail: all of
    them when the packed Aubin equality fails, else those where some vertex
    x of a polytope has d_x = <x - v_T, lam> < 0 or none has d_x = 0, v_T
    the entry's vector.  Lifting b is lane b of ``Lanes`` with span
    2*top*norm + 1, top the largest |height| and norm the largest of the
    cell table's coefficient sum, the l1 norm of gkz_T and those of every
    x - v_T: every d_x and Aubin side is at most top*norm in size."""
    tri, tid = entry.triangulation, entry.id
    gkz = analysis.chow.vectors[tid]
    pairs = ((analysis.chow.vertices, gkz), (analysis.hurwitz.vertices, analysis.hurwitz.vectors[tid]))
    cells = sum(len(cell) * abs(vol) for cell, vol in tri.cell_volumes)
    norm = max(cells, sum(map(abs, gkz)), *(sum(abs(a - b) for a, b in zip(x, v)) for xs, v in pairs for x in xs))
    top = max(-min(h) for h in heights)
    lanes = Lanes(2 * top * norm + 1, len(heights))
    packed = lanes.pack(heights)
    envelope = PLFunction(tri, {i: packed[i] for i in tri.used_points})
    if volume_total(envelope) != sum(map(mul, gkz, packed)):
        return list(range(len(heights)))
    passing = lanes.tops
    for vertices, v in pairs:
        at_v = sum(map(mul, v, packed))
        nonnegative, zero = lanes.tops, 0
        for x in vertices:
            positive, at_zero = lanes.signs(sum(map(mul, x, packed)) - at_v)
            nonnegative &= positive | at_zero
            zero |= at_zero
        passing &= nonnegative & zero
    return lanes.indices(lanes.tops ^ passing)


def run_support_trials(analysis, count: int = 20, seed: int = 0) -> SupportTrialReport:
    """Seeded random integral liftings with simplicial lower hull, each run
    through the support and Aubin checks; failures are reported per lifting
    in its order: Chow support, Hurwitz support, Aubin.

    Liftings are drawn in batches of as many as may still be needed, so
    no more than one at a time would draw.  A batch's lower hulls are taken
    in one ``lower_hulls`` call, and the checks of all liftings with one
    lower-hull triangulation on packed lanes (``_failing_lanes``).  Only a lifting whose
    triangulation is missing from the enumeration, or whose lane may fail,
    is rerun through ``support_checks``, in lifting order, which names its
    failures."""
    config = analysis.config
    by_simplices = analysis.enumeration.by_simplices
    rng = random.Random(seed)
    n1 = len(config)
    applicable = attempts = 0
    failures = []
    while applicable < count and attempts < 200 * count:
        batch = min(count - applicable, 200 * count - attempts)
        attempts += batch
        draws = rng.choices(range(-30, 1), k=batch * n1)
        lams = [Lifting.normalized(draws[b * n1:(b + 1) * n1]) for b in range(batch)]
        subs = lower_hulls(config, lams)
        groups: dict[int, tuple[EnumeratedTriangulation, list[int]]] = {}
        rerun = []
        for b, sub in enumerate(subs):
            if not sub.is_triangulation:
                continue
            applicable += 1
            entry = by_simplices.get(sub.cells)
            if entry is None:
                rerun.append(b)
            else:
                groups.setdefault(entry.id, (entry, []))[1].append(b)
        for entry, lanes in groups.values():
            rerun += [lanes[i] for i in _failing_lanes(analysis, entry, [lams[b].heights for b in lanes])]
        for b in sorted(rerun):
            failures += [chk for chk in support_checks(analysis, lams[b], subs[b]) if chk.status != "pass"]
    if applicable < count:
        raise RuntimeError(
            f"only {applicable} of {count} liftings had simplicial lower hulls after {attempts} attempts"
        )
    return SupportTrialReport(seed, count, applicable, attempts, failures)
