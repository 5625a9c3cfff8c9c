"""Command-line front end.

Subcommands: check, triangulations, vectors, polytope, verify.  Input is a
JSON document {"vertices": [[int, ...], ...]}; dimension is inferred from the
vector length.  Machine-format output is deterministic for identical
(input, seed, trials): sorted keys, rationals rendered as "p/q" strings.
Exit codes: 0 pass, 1 verification failure, 2 input error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .functionals import degrees
from .pipeline import Analysis, analyze, polytope_warnings
from .polytope import LatticePolytope, lattice_points
from .triangulation import EnumerationCapExceeded, EnumerationCaps
from .vectors import boundary_vector
from .weights import run_support_trials, verify_identities

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3


class InputError(Exception):
    pass


def frac_str(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def load_vertices(path: str) -> list[list[int]]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise InputError(f'{path}: expected a single object {{"vertices": [[int, ...], ...]}}')
    vertices = doc["vertices"]
    if (
        not isinstance(vertices, list)
        or not vertices
        or not all(isinstance(v, list) and v and all(type(x) is int for x in v) for v in vertices)
    ):
        raise InputError(f"{path}: vertices must be a nonempty list of integer vectors")
    return vertices


def _common(args: argparse.Namespace) -> dict:
    return {
        "command": args.command,
        "input": args.input,
        "seed": args.seed,
        "trials": args.trials,
        "caps": {
            "max_triangulations": args.max_triangulations,
            "time_budget": args.time_budget,
        },
    }


def cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    vertices = load_vertices(args.input)
    try:
        q = LatticePolytope.from_vertices(vertices)
    except ValueError as e:
        raise InputError(f"{args.input}: {e}") from None
    config = lattice_points(q)
    deg = degrees(config)
    delzant = None if args.skip_delzant_check else q.delzant
    report = _common(args) | {
        "polytope": {
            "dim": q.dim,
            "vertices": q.vertices,
            "facets": [f._asdict() for f in q.facets],
        },
        "delzant": None if delzant is None else delzant.ok,
        "delzant_report": None if delzant is None else [r._asdict() for r in delzant.vertices],
        "volume": config.volume,
        "boundary_volume": config.boundary_volume,
        "deg_chow": deg.chow,
        "deg_hurwitz": deg.hurwitz,
        "num_lattice_points": len(config),
        "warnings": polytope_warnings(config, delzant),
    }
    return report, EXIT_PASS


def _analyze(args: argparse.Namespace) -> Analysis:
    vertices = load_vertices(args.input)
    try:
        return analyze(vertices, caps=EnumerationCaps(args.max_triangulations, args.time_budget))
    except ValueError as e:
        raise InputError(f"{args.input}: {e}") from None


def _triangulation_entry(entry) -> dict:
    return {
        "id": entry.id,
        "simplices": entry.triangulation.simplices,
        "witness": entry.certificate.witness.heights,
        "used_points": entry.triangulation.used_points,
    }


def _certificates(poly) -> list:
    """Certifying lifting heights per vertex; null where the LP decided."""
    return [None if c is None else c.heights for c in poly.certificates]


def cmd_triangulations(args: argparse.Namespace) -> tuple[dict, int]:
    analysis = _analyze(args)
    report = _common(args) | {
        "count": len(analysis.enumeration),
        "triangulations": [_triangulation_entry(e) for e in analysis.enumeration],
        "warnings": analysis.warnings,
    }
    return report, EXIT_PASS


def cmd_vectors(args: argparse.Namespace) -> tuple[dict, int]:
    analysis = _analyze(args)
    # The polytopes hold each entry's GKZ and Hurwitz vector, by id.
    built = {"gkz": analysis.chow.vectors, "hurwitz": analysis.hurwitz.vectors}.get(args.kind)
    rows = [
        {
            "id": e.id,
            "simplices": e.triangulation.simplices,
            "vector": boundary_vector(e.triangulation) if built is None else built[e.id],
        }
        for e in analysis.enumeration
    ]
    report = _common(args) | {"kind": args.kind, "vectors": rows, "warnings": analysis.warnings}
    return report, EXIT_PASS


def cmd_polytope(args: argparse.Namespace) -> tuple[dict, int]:
    analysis = _analyze(args)
    poly = analysis.chow if args.kind == "chow" else analysis.hurwitz
    report = _common(args) | {
        "kind": poly.kind,
        "ambient_dim": poly.ambient_dim,
        "affine_dim": poly.affine_dim,
        "vertices": poly.vertices,
        "vertex_certificates": _certificates(poly),
        "generators": [
            {"vector": g.vector, "triangulations": g.triangulation_ids}
            for g in poly.generators
        ],
        "warnings": analysis.warnings,
    }
    return report, EXIT_PASS


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    analysis = _analyze(args)
    identities = verify_identities(analysis, trials=args.trials, seed=args.seed)
    supports = run_support_trials(analysis, count=args.trials, seed=args.seed)
    checks = [
        {
            "name": "identities",
            "pass": identities.passed,
            "checks": identities.checks,
            "failures": [
                {"triangulation": f.triangulation_id, "trial": f.trial, "name": f.name,
                 "lhs": str(f.lhs), "rhs": str(f.rhs)}
                for f in identities.failures
            ],
        },
        {
            "name": "support corollaries",
            "pass": supports.passed,
            "liftings": supports.applicable,
            "failures": [
                {"kind": f.kind, "lifting": f.lifting.heights, "minimum": frac_str(f.minimum),
                 "pairing": None if f.pairing_value is None else frac_str(f.pairing_value)}
                for f in supports.failures
            ],
        },
    ]
    all_pass = identities.passed and supports.passed
    report = _common(args) | {
        "count": len(analysis.enumeration),
        "triangulations": [_triangulation_entry(e) for e in analysis.enumeration],
        "chow_vertices": analysis.chow.vertices,
        "hurwitz_vertices": analysis.hurwitz.vertices,
        "chow_vertex_certificates": _certificates(analysis.chow),
        "hurwitz_vertex_certificates": _certificates(analysis.hurwitz),
        "deg_chow": analysis.degrees.chow,
        "deg_hurwitz": analysis.degrees.hurwitz,
        "checks": checks,
        "all_pass": all_pass,
        "warnings": analysis.warnings,
    }
    return report, EXIT_PASS if all_pass else EXIT_FAIL


def _print_human(report: dict) -> None:
    def emit(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                parts = ", ".join(f"{k}={json.dumps(v)}" for k, v in item.items())
                print(f"{pad}  - {parts}")
        else:
            print(f"{pad}{key}: {json.dumps(value)}")

    for key, value in report.items():
        emit(key, value)


COMMANDS = {
    "check": cmd_check,
    "triangulations": cmd_triangulations,
    "vectors": cmd_vectors,
    "polytope": cmd_polytope,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toricweights", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="polytope JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=20)
        p.add_argument("--max-triangulations", type=int, default=1_000_000)
        p.add_argument("--time-budget", type=float, default=None, help="enumeration budget in seconds")
        p.add_argument("--format", choices=("human", "machine"), default="human")
        if name == "check":
            p.add_argument("--skip-delzant-check", action="store_true")
        if name == "vectors":
            p.add_argument("--kind", choices=("gkz", "boundary", "hurwitz"), default="gkz")
        if name == "polytope":
            p.add_argument("--kind", choices=("chow", "hurwitz"), default="chow")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in ("trials", "max_triangulations", "time_budget"):
            if not (getattr(args, name) or 0) >= 0:  # negative or NaN; None is no budget
                raise InputError(f"--{name.replace('_', '-')} must be nonnegative, got {getattr(args, name)}")
        report, code = COMMANDS[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except EnumerationCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    if args.format == "machine":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_human(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
