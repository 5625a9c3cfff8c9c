#!/usr/bin/env python3
"""Stress the support identities with many random liftings.

For a given polytope file, draws seeded random integral liftings by the
support suite's rule (heights by ``choices``, one call per lifting), takes
all their lower hulls in one ``lower_hulls`` call, and runs
``support_checks`` on each: those with a simplicial lower hull have their
Chow and Hurwitz support minima checked against the pairings with the induced
triangulation's characteristic vectors, and the Chow minimum against the
integral of the lower envelope.  Prints the running tally and the
distribution of induced triangulations.
"""

import argparse
import json
import random
from collections import Counter
from pathlib import Path

from toricweights.pipeline import analyze
from toricweights.triangulation import Lifting, lower_hulls
from toricweights.weights import support_checks


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", type=Path, default=Path(__file__).parent.parent / "data" / "double_simplex.json")
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--height-range", type=int, default=30)
    args = parser.parse_args()

    vertices = json.loads(args.input.read_text())["vertices"]
    analysis = analyze(vertices)
    rng = random.Random(args.seed)
    npts = len(analysis.config)

    heights = range(-args.height_range, 1)
    liftings = [Lifting.normalized(rng.choices(heights, k=npts)) for _ in range(args.trials)]
    hit = Counter()
    simplicial = failures = 0
    for lam, sub in zip(liftings, lower_hulls(analysis.config, liftings)):
        checks = support_checks(analysis, lam, sub)
        if checks is None:
            continue
        simplicial += 1
        hit[checks[0].triangulation_id] += 1
        for chk in checks:
            if chk.status != "pass":
                failures += 1
                print(f"FAIL {chk.kind}: lifting {lam.heights}, min {chk.minimum} != pairing {chk.pairing_value}")

    print(f"{args.input.stem}: {args.trials} liftings, {simplicial} simplicial, {failures} failures")
    print(f"{len(hit)} of {len(analysis.enumeration)} regular triangulations induced:")
    for tid, count in hit.most_common():
        print(f"  triangulation {tid!s:>3}: {count:>5} liftings")


if __name__ == "__main__":
    main()
