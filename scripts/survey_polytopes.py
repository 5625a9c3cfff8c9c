#!/usr/bin/env python3
"""Survey the bundled example polytopes.

Runs the full pipeline on every JSON file in data/ and prints one summary row
per polytope: lattice point count, volumes, degrees, number of regular
triangulations, and how many distinct Chow/Hurwitz generators are vertices.
"""

import argparse
import json
import time
from pathlib import Path

from toricweights.pipeline import analyze
from toricweights.triangulation import EnumerationCapExceeded, EnumerationCaps


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=Path(__file__).parent.parent / "data", type=Path)
    parser.add_argument("--max-triangulations", type=int, default=EnumerationCaps().max_triangulations)
    parser.add_argument("--time-budget", type=float, default=None)
    args = parser.parse_args()

    header = f"{'polytope':24} {'n':>2} {'|A|':>4} {'vol':>4} {'bvol':>4} {'degCh':>5} {'degHu':>5} {'#tri':>5} {'Ch v/g':>7} {'Hu v/g':>7} {'time':>7}"
    print(header)
    print("-" * len(header))
    for path in sorted(args.data_dir.glob("*.json")):
        vertices = json.loads(path.read_text())["vertices"]
        start = time.monotonic()
        try:
            a = analyze(vertices, caps=EnumerationCaps(args.max_triangulations, args.time_budget))
        except EnumerationCapExceeded as e:
            print(f"{path.stem:24} capped: {e}")
            continue
        elapsed = time.monotonic() - start
        row = (
            f"{path.stem:24} {a.polytope.dim:>2} {len(a.config):>4} "
            f"{a.config.volume:>4} {a.config.boundary_volume:>4} "
            f"{a.degrees.chow:>5} {a.degrees.hurwitz:>5} {len(a.enumeration):>5} "
            f"{f'{len(a.chow.vertices)}/{len(a.chow.generators)}':>7} "
            f"{f'{len(a.hurwitz.vertices)}/{len(a.hurwitz.generators)}':>7} "
            f"{elapsed:>6.2f}s"
        )
        print(row)
        for w in a.warnings:
            print(f"{'':24} warning: {w}")


if __name__ == "__main__":
    main()
