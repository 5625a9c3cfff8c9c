"""Regenerate reference.json, the answers the benchmark checks against.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs each workload once in this process on its default inputs (identity
placing order, CLI seed 0) and records the facts that check.summarize
extracts.  None of them depends on the order or the seed.  Run it only when
a change is meant to alter the answers, and say so where the change is
described.
"""

from __future__ import annotations

import json
import sys

from check import REFERENCE, summarize
from workloads import CORPUS, CUBE, GRID3X3, SRC, parse_result, run_operation

PROVENANCE = {
    "enumerate-grid3x3": (
        "enumerate_regular on the 9 lattice points of [0,2]^2, identity order. "
        "387 triangulations, all regular, agrees with the published count for "
        "the 3x3 grid (De Loera, Rambau, Santos, Triangulations, 2010)."
    ),
    "analyze-cube": (
        "analyze on the unit 3-cube, identity order. 74 triangulations, all "
        "regular, as in the literature and as the brute-force oracle of "
        "tests/oracles.py finds (acceptance criterion 8)."
    ),
    "verify-corpus": (
        "cli verify --trials 200 --seed 0 --format machine on each file; "
        "counts, identity check totals and vertex sets do not depend on --seed."
    ),
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from toricweights import LatticePolytope, lattice_points

    ref = {"provenance": PROVENANCE}
    for workload, jobs in (
        ("enumerate-grid3x3", [{"vertices": GRID3X3, "order": list(range(9))}]),
        ("analyze-cube", [{"vertices": CUBE, "order": list(range(8))}]),
        ("verify-corpus", [{"input": f"data/{name}", "seed": 0} for name in CORPUS]),
    ):
        outputs = []
        for job in jobs:
            config = None
            if "vertices" in job:
                config = lattice_points(LatticePolytope.from_vertices(job["vertices"]))
            outputs.append(parse_result(workload, run_operation(workload, job, config)))
        ref[workload] = summarize(workload, outputs)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
