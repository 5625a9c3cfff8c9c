"""Command-line front end.

Subcommands: check, triangulations, vectors, polytope, verify.  ``OPTIONS``
is the one table of the options each command takes, as (flag, type,
default, choices) rows: every command takes --input, a JSON document
{"vertices": [[int, ...], ...]} whose dimension is the vector length, and
--format; check no other, as it always reports the Delzant verdict; the
others --max-triangulations and --time-budget; vectors and polytope --kind;
only verify --seed and --trials.  ``parse_args`` reads argv against that
table in the usual long-option forms: ``--name value``, ``--name=value`` and
unique prefixes of a name; the last of repeated options wins, negative
numbers are values, and -h/--help, a flag of type bool that takes no value,
prints the usage and the options.  It returns a namespace holding the
command and one attribute per option.  A usage error prints the usage and
the reason to stderr and raises SystemExit(2).  Machine-format output is
deterministic for identical arguments: sorted keys, rationals rendered as
"p/q" strings.  Exit codes: 0 pass, 1 verification failure, 2 input or
usage error, 3 cap exceeded.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (OSError, ValueError, RecursionError) as e:  # ValueError: not UTF-8, or an int too long
        raise InputError(f"cannot read {path}: {e}") from None
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


def _common(args: SimpleNamespace) -> dict:
    """The command, its input, and the seed, trials and caps where it takes them."""
    given = vars(args)
    report = {key: given[key] for key in ("command", "input", "seed", "trials") if key in given}
    if "max_triangulations" in given:
        report["caps"] = {key: given[key] for key in ("max_triangulations", "time_budget")}
    return report


def cmd_check(args: SimpleNamespace) -> tuple[dict, int]:
    vertices = load_vertices(args.input)
    try:
        q = LatticePolytope.from_vertices(vertices)
    except ValueError as e:
        raise InputError(f"{args.input}: {e}") from None
    config = lattice_points(q)
    deg = degrees(config)
    report = _common(args) | {
        "polytope": {
            "dim": q.dim,
            "vertices": q.vertices,
            "facets": [f._asdict() for f in q.facets],
        },
        "delzant": q.delzant.ok,
        "delzant_report": [r._asdict() for r in q.delzant.vertices],
        "volume": config.volume,
        "boundary_volume": config.boundary_volume,
        "deg_chow": deg.chow,
        "deg_hurwitz": deg.hurwitz,
        "num_lattice_points": len(config),
        "warnings": polytope_warnings(config),
    }
    return report, EXIT_PASS


def _analyze(args: SimpleNamespace) -> Analysis:
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


def cmd_triangulations(args: SimpleNamespace) -> tuple[dict, int]:
    analysis = _analyze(args)
    report = _common(args) | {
        "count": len(analysis.enumeration),
        "triangulations": [_triangulation_entry(e) for e in analysis.enumeration],
        "warnings": analysis.warnings,
    }
    return report, EXIT_PASS


def cmd_vectors(args: SimpleNamespace) -> tuple[dict, int]:
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


def cmd_polytope(args: SimpleNamespace) -> tuple[dict, int]:
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


def cmd_verify(args: SimpleNamespace) -> tuple[dict, int]:
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


PROG = "toricweights"
REQUIRED = ...  # the default of an option that must be given
_INPUT = ("--input", str, REQUIRED, None)
_CAPS = (
    ("--max-triangulations", int, EnumerationCaps().max_triangulations, None),
    ("--time-budget", float, None, None),  # seconds
)
_FORMAT = ("--format", str, "human", ("human", "machine"))
# Each command's options, in usage order, as (flag, type, default, choices).
OPTIONS = {
    "check": (_INPUT, _FORMAT),
    "triangulations": (_INPUT, *_CAPS, _FORMAT),
    "vectors": (_INPUT, *_CAPS, _FORMAT, ("--kind", str, "gkz", ("gkz", "boundary", "hurwitz"))),
    "polytope": (_INPUT, *_CAPS, _FORMAT, ("--kind", str, "chow", ("chow", "hurwitz"))),
    "verify": (_INPUT, ("--seed", int, 0, None), ("--trials", int, 20, None), *_CAPS, _FORMAT),
}
_HELP = ("-h/--help", bool, False, None)
_TOP = {"-h": _HELP, "--help": _HELP}


def _spelling(flag: str, kind: type, default, choices) -> str:
    if kind is not bool:
        flag += " {" + ",".join(choices) + "}" if choices else " " + flag[2:].upper().replace("-", "_")
    return flag if default is REQUIRED else f"[{flag}]"


def _usage(command: Optional[str]) -> str:
    if command is None:
        return f"usage: {PROG} [-h] {{{','.join(OPTIONS)}}} ..."
    return " ".join([f"usage: {PROG} {command} [-h]", *(_spelling(*row) for row in OPTIONS[command])])


def _exit(command: Optional[str], error: Optional[str] = None):
    """Print the usage and the options and exit 0, or, given an error, print
    the usage and the error to stderr and exit 2."""
    if error is not None:
        prog = f"{PROG} {command}" if command else PROG
        print(f"{_usage(command)}\n{prog}: error: {error}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    if command is None:
        rows = ["commands:", *(_usage(name).removeprefix("usage: ") for name in OPTIONS)]
    else:
        rows = ["options:", "-h, --help", *(f"{flag}: {'required' if default is REQUIRED else f'default {default}'}"
                                            for flag, _, default, _ in OPTIONS[command])]
    print(_usage(command), "", rows[0], *("  " + row for row in rows[1:]), sep="\n")
    raise SystemExit(0)


def _option(arg: str, table: dict, command: Optional[str]):
    """How ``arg`` reads against ``table`` (flag -> row): None for a value,
    else (row, explicit value or None), with row None for an unknown option."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in table:
        return table[arg], None
    name, eq, value = arg.partition("=")
    if eq and name in table:
        return table[name], value
    if arg.startswith("--") and arg != "--":
        matches = [flag for flag in table if flag.startswith(name)]
        if len(matches) > 1:
            _exit(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return table[matches[0]], value if eq else None
    if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg:  # a negative number is a value
        return None
    return None, None


def _read(args: list, table: dict, command: Optional[str], values: dict) -> list:
    """Read ``args`` into ``values`` (flag -> value); returns the unknown
    options and stray values."""
    reads = [_option(arg, table, command) for arg in args]  # an ambiguous prefix is refused first
    extras, i = [], 0
    while i < len(args):
        read, i = reads[i], i + 1
        if read is None or read[0] is None:
            extras.append(args[i - 1])
            continue
        row, value = read
        flag, kind, _, choices = row
        if kind is bool:
            if value is not None:
                _exit(command, f"argument {flag}: ignored explicit argument {value!r}")
            if row is _HELP:
                _exit(command)
            values[flag] = True
            continue
        if value is None:
            if i == len(args) or reads[i] is not None:
                _exit(command, f"argument {flag}: expected one argument")
            value, i = args[i], i + 1
        try:
            values[flag] = kind(value)
        except ValueError:
            _exit(command, f"argument {flag}: invalid {kind.__name__} value: {value!r}")
        if choices and value not in choices:
            _exit(command, f"argument {flag}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
    return extras


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command and its options read from ``argv`` against ``OPTIONS``:
    a namespace with the command and one attribute per option."""
    argv = list(argv)
    at = next((i for i, arg in enumerate(argv) if _option(arg, _TOP, None) is None), None)
    extras = _read(argv[:at], _TOP, None, {})
    if at is None:
        _exit(None, "the following arguments are required: command")
    command = argv[at]
    if command not in OPTIONS:
        _exit(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, OPTIONS))})")
    values = {flag: default for flag, _, default, _ in OPTIONS[command]}
    extras += _read(argv[at + 1:], _TOP | {row[0]: row for row in OPTIONS[command]}, command, values)
    missing = [flag for flag, value in values.items() if value is REQUIRED]
    if missing:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _exit(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        for name in ("trials", "max_triangulations", "time_budget"):
            if not (getattr(args, name, None) or 0) >= 0:  # negative or NaN; None is no budget or option
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
