"""Benchmark harness for toricweights.

Usage (from the repository root):

    python3 perfbench/run.py --workload enumerate-grid3x3 --seed 1 --seconds 45 --trace 0

Closed loop, one client: each operation runs in fresh worker processes
started one at a time, so no module-level cache survives from one operation
to the next.  The seed makes every input (the placing order, or the CLI
``--seed``); the program sees only those.  Each operation's outputs are
checked against reference.json outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (wall_s, setup_s, peak_rss_mb; the two times rescaled
to the reference CPU speed of speed.py, so that a shared host's changing
speed does not show as a change of the program); with ``--trace 1`` they
are the per-layer metrics of tracing.py plus the tracing overhead, and all
spans are written to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import REFERENCE, check
from tracing import metric_names
from workloads import ROOT, SRC, WORKLOADS, operation_jobs, setup_inputs

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_PROBES = 4  # set-up probes before each operation of an untraced run
RUN_LIMIT_S = 170  # hard cap on one run, below the 180 s the harness is allowed


class WorkerError(RuntimeError):
    pass


def spawn(job: dict, timeout: float) -> dict:
    """Run one worker to completion and return its parsed result line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    job = dict(job, t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise WorkerError(f"unreadable worker output: {e}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toricweights" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE.read_text())

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    def remaining() -> float:
        return deadline - time.monotonic()

    # Set-up probes: fresh workers that stop when the inputs are ready.  The
    # first one warms the byte-code cache and the page cache and is dropped;
    # the rest run between operations, so they sample the whole run.
    probe_job = {"workload": args.workload, "inputs": setup_inputs(args.workload), "probe": True}

    def probe() -> dict:
        return spawn(probe_job, remaining())

    setups = []
    try:
        probe()
    except WorkerError as e:
        print(f"error: set-up probe failed: {e}", file=sys.stderr)
        return 2

    rng = random.Random(f"{args.workload}/{args.seed}")
    ops = []  # per operation: {"traced", "wall_s", "rss_mb", "layers", "ok"}
    spans = []
    op_seconds = []
    min_ops = 2 if args.trace else 1
    while True:
        elapsed = time.monotonic() - start
        if len(ops) >= min_ops and elapsed + statistics.median(op_seconds) > args.seconds:
            break
        if remaining() <= 0:
            break
        traced = bool(args.trace) and len(ops) % 2 == 0
        jobs = operation_jobs(args.workload, rng)
        op_start = time.monotonic()
        record = {"traced": traced, "ok": False}
        try:
            if not args.trace:
                setups += [probe() for _ in range(SETUP_PROBES)]
            results = [
                spawn({"workload": args.workload, "inputs": [job], "trace": traced}, remaining())
                for job in jobs
            ]
        except WorkerError as e:
            print(f"operation {len(ops)} failed: {e}", file=sys.stderr)
        else:
            errors = check(args.workload, jobs, [r["output"] for r in results], reference)
            for msg in errors[:5]:
                print(f"operation {len(ops)} wrong: {msg}", file=sys.stderr)
            record |= {
                "ok": not errors,
                "wall_s": sum(r["wall_s"] for r in results),
                "rss_mb": max(r["rss_mb"] for r in results),
            }
            if not traced:
                record["wall_ref_s"] = sum(r["wall_ref_s"] for r in results)
            if traced:
                layers: dict[str, float] = {}
                for proc, r in enumerate(results):
                    for key, value in r["layers"].items():
                        layers[key] = layers.get(key, 0) + value
                    spans += [
                        {"op": len(ops), "proc": proc, "id": i, "name": n, "start": s, "end": e, "parent": p}
                        for i, (n, s, e, p) in enumerate(r["spans"])
                    ]
                record["layers"] = layers
        ops.append(record)
        op_seconds.append(time.monotonic() - op_start)

    failed = sum(not op["ok"] for op in ops)
    good = [op for op in ops if op["ok"]]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "operations": len(ops),
        "failed_frac": failed / len(ops),
    }
    if args.trace:
        metrics = trace_metrics([op for op in good if op["traced"]], [op for op in good if not op["traced"]])
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}.jsonl"
        with path.open("w") as fh:
            for span in spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        summary["spans_file"] = str(path.relative_to(ROOT))
        summary["spans"] = len(spans)
    else:
        metrics = {
            "wall_s": (_median(good, "wall_ref_s"), "s"),
            "setup_s": (_median(setups, "setup_ref_s"), "s"),
            "peak_rss_mb": (_median(good, "rss_mb"), "MB"),
        }
        summary["wall_raw_s"] = f"{_median(good, 'wall_s'):.6g} s"
        summary["setup_raw_s"] = f"{_median(setups, 'setup_s'):.6g} s"
    for name, (value, unit) in metrics.items():
        summary[name] = f"{value:.6g} {unit}"
    summary["wall_s_per_operation"] = [round(op.get("wall_ref_s", op["wall_s"]), 4) for op in good]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": None if v != v else v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _median(ops: list[dict], key: str) -> float:
    values = [op[key] for op in ops]
    return statistics.median(values) if values else float("nan")


def trace_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics (median over traced operations) and the tracing
    overhead: traced minus untraced median wall seconds."""
    out = {}
    for name in metric_names():
        values = [op["layers"].get(name, 0) for op in traced]
        value = statistics.median(values) if values else float("nan")
        unit = "s" if name.rsplit(".", 1)[1] in ("s", "self_s") else "count"
        out[name] = (value, unit)
    traced_wall, untraced_wall = _median(traced, "wall_s"), _median(untraced, "wall_s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
