"""The three workloads: inputs made from the harness seed, the public call a
worker makes for one operation, and the parsed output it hands back.

Imported by both the harness and the worker; it imports nothing from the
package at module level, so the harness can run its checks in a tree that
has no ``src/``.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

GRID3X3 = [[0, 0], [2, 0], [0, 2], [2, 2]]
CUBE = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
# Every data/*.json except the cube, fixed here so that a data file added
# later does not change the workload.
CORPUS = (
    "double_simplex.json",
    "non_delzant_triangle.json",
    "octahedron.json",
    "segment2.json",
    "segment3.json",
    "unit_simplex.json",
    "unit_square.json",
)
VERIFY_TRIALS = 200

WORKLOADS = ("enumerate-grid3x3", "analyze-cube", "verify-corpus")


def operation_jobs(workload: str, rng: random.Random) -> list[dict]:
    """Worker jobs for one operation; the program sees only `order` or the
    CLI `--seed` drawn here."""
    if workload == "enumerate-grid3x3":
        return [{"vertices": GRID3X3, "order": rng.sample(range(9), 9)}]
    if workload == "analyze-cube":
        return [{"vertices": CUBE, "order": rng.sample(range(8), 8)}]
    if workload == "verify-corpus":
        seed = rng.randrange(2**31)
        return [{"input": f"data/{name}", "seed": seed} for name in CORPUS]
    raise ValueError(f"unknown workload {workload!r}")


def setup_inputs(workload: str) -> list[dict]:
    """The inputs one operation sets up, for a set-up-only probe."""
    if workload == "verify-corpus":
        return [{"input": f"data/{name}"} for name in CORPUS]
    return operation_jobs(workload, random.Random(0))


def load_vertices(job: dict) -> list[list[int]]:
    if "vertices" in job:
        return job["vertices"]
    return json.loads((ROOT / job["input"]).read_text())["vertices"]


def _entries(enumeration) -> list[list]:
    return [
        [[list(s) for s in e.triangulation.simplices], list(e.certificate.witness.heights)]
        for e in enumeration
    ]


def run_operation(workload: str, job: dict, config):
    """The timed public call.  Returns the raw result; `parse_result` turns
    it into plain JSON outside the timed region."""
    import toricweights
    from toricweights import cli

    if workload == "enumerate-grid3x3":
        return toricweights.enumerate_regular(config, order=job["order"])
    if workload == "analyze-cube":
        return toricweights.analyze(job["vertices"], order=job["order"])
    argv = [
        "verify", "--input", job["input"], "--trials", str(VERIFY_TRIALS),
        "--seed", str(job["seed"]), "--format", "machine",
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def parse_result(workload: str, result) -> dict:
    if workload == "enumerate-grid3x3":
        return {"entries": _entries(result)}
    if workload == "analyze-cube":
        return {
            "entries": _entries(result.enumeration),
            "chow_vertices": [list(v) for v in result.chow.vertices],
            "hurwitz_vertices": [list(v) for v in result.hurwitz.vertices],
            "chow_affine_dim": result.chow.affine_dim,
            "hurwitz_affine_dim": result.hurwitz.affine_dim,
        }
    code, text = result
    return {"exit": code, "report": json.loads(text) if text.strip() else None}
