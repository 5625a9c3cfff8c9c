"""One benchmark operation in a fresh process.

Usage: python3 perfbench/worker.py '<job JSON>'

The job names the workload, the inputs and the monotonic time at which the
harness started this process.  The worker imports the package from the
checkout's ``src/``, sets up its inputs (``LatticePolytope.from_vertices`` and
``lattice_points``), makes the public call once, and prints one JSON line:
set-up seconds, call seconds, peak resident memory and the parsed output.
With ``"probe": true`` it stops after set-up.  With ``"trace": true`` it
installs the span wrappers before set-up and also returns spans and
per-layer metrics.  Untraced, it also reports set-up and call seconds
rescaled to the reference CPU speed of speed.py (``setup_ref_s``,
``wall_ref_s``): the set-up probe calibrates right after set-up, and the
call runs with the speed sampler on, whose own time is taken out of
``wall_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import speed
from workloads import SRC, load_vertices, parse_result, run_operation


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import toricweights

    if not toricweights.__file__.startswith(str(SRC)):
        print(f"worker: imported toricweights from {toricweights.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # Called through the package so that installed wrappers see the calls.
    configs = [
        toricweights.lattice_points(toricweights.LatticePolytope.from_vertices(load_vertices(j)))
        for j in job["inputs"]
    ]
    setup_s = time.monotonic() - job["t_spawn"]
    out = {"setup_s": setup_s}
    if job.get("probe"):
        out["setup_ref_s"] = speed.scaled(setup_s, speed.calibrate())
    else:
        (inp,), (config,) = job["inputs"], configs
        sampler = None if tracer else speed.Sampler()
        if sampler:
            sampler.start()
        start = time.perf_counter()
        result = run_operation(job["workload"], inp, config)
        out["wall_s"] = time.perf_counter() - start
        if sampler:
            samples = sampler.stop()
            out["wall_s"] -= sum(samples)
            # A short call gets few timer samples; top them up right after.
            samples += speed.calibrate(max(0, speed.MIN_SAMPLES - len(samples)))
            out["wall_ref_s"] = speed.scaled(out["wall_s"], samples)
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.restore()
            from tracing import aggregate

            out["layers"] = aggregate(tracer.spans, tracer.counters)
            out["spans"] = tracer.spans
        out["output"] = parse_result(job["workload"], result)
    print(json.dumps(out, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
