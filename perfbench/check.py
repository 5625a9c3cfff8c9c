"""Untimed checks of one operation's outputs against reference.json.

Values are compared after parsing, never as output bytes, so a new key in
the CLI's machine format does not count as a failure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import CORPUS, VERIFY_TRIALS

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def digest(items) -> str:
    """sha256 of the sorted JSON rendering of a collection of lists."""
    canon = sorted(json.dumps(x, separators=(",", ":")) for x in items)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def _canonical(simplices) -> list:
    return sorted(sorted(s) for s in simplices)


def _check(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["name"] == name)


def summarize(workload: str, outputs: list[dict]) -> dict:
    """The facts the reference pins, from the parsed outputs of one
    operation (one per worker process)."""
    if workload == "verify-corpus":
        polytopes = {}
        for name, out in zip(CORPUS, outputs):
            rep = out["report"]
            polytopes[name] = {
                "exit": out["exit"],
                "count": rep["count"],
                "all_pass": rep["all_pass"],
                "identity_checks": _check(rep, "identities")["checks"],
                "liftings_eq_trials": _check(rep, "support corollaries")["liftings"] == VERIFY_TRIALS,
                "chow_vertices": sorted(rep["chow_vertices"]),
                "hurwitz_vertices": sorted(rep["hurwitz_vertices"]),
            }
        return {"polytopes": polytopes}
    (out,) = outputs
    got = {
        "count": len(out["entries"]),
        "canonical_digest": digest(_canonical(s) for s, _ in out["entries"]),
    }
    if workload == "analyze-cube":
        got |= {
            "chow_vertices": len(out["chow_vertices"]),
            "chow_vertices_digest": digest(out["chow_vertices"]),
            "hurwitz_vertices": len(out["hurwitz_vertices"]),
            "hurwitz_vertices_digest": digest(out["hurwitz_vertices"]),
            "chow_affine_dim": out["chow_affine_dim"],
            "hurwitz_affine_dim": out["hurwitz_affine_dim"],
        }
    return got


def round_trip_errors(vertices, entries) -> list[str]:
    """Each witness lifting must induce its triangulation as lower hull."""
    from toricweights import LatticePolytope, lattice_points, lower_hull_subdivision

    config = lattice_points(LatticePolytope.from_vertices(vertices))
    errors = []
    for simplices, witness in entries:
        sub = lower_hull_subdivision(config, witness)
        if not sub.is_triangulation or _canonical(sub.cells) != _canonical(simplices):
            errors.append(f"witness {witness} does not induce {simplices}")
    return errors


def check(workload: str, jobs: list[dict], outputs: list[dict], reference: dict) -> list[str]:
    """Error messages for one operation; empty when every output is right."""
    try:
        got = summarize(workload, outputs)
    except (KeyError, TypeError, ValueError, StopIteration) as e:
        return [f"malformed output: {e!r}"]
    expected = reference[workload]
    errors = []
    for key, want in expected.items():
        if key == "polytopes":
            for name, facts in want.items():
                for fact, value in facts.items():
                    have = got["polytopes"].get(name, {}).get(fact)
                    if have != value:
                        errors.append(f"{name}: {fact} is {have!r}, expected {value!r}")
        elif got.get(key) != want:
            errors.append(f"{key} is {got.get(key)!r}, expected {want!r}")
    if workload != "verify-corpus":
        try:
            errors += round_trip_errors(jobs[0]["vertices"], outputs[0]["entries"])
        except (TypeError, ValueError) as e:
            errors.append(f"malformed witness: {e!r}")
    return errors
