"""Smoke runs of the experiment scripts in scripts/, which use the public
API (``analyze``, ``support_checks``) but are not imported by any test, of
README's library quick tour, a check that the benchmark's span tracer
still finds what it wraps, and a run of the benchmark's own tests."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import toricweights
from conftest import SQUARE, config_of
from toricweights.triangulation import enumerate_regular

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run_script(name, *args):
    src = str(Path(toricweights.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_support_probe_segment():
    lines = run_script("support_probe.py", "--input", str(DATA / "segment2.json"), "--trials", "20")
    assert lines[0] == "segment2: 20 liftings, 20 simplicial, 0 failures"
    assert not any(line.startswith("FAIL") for line in lines)


def test_survey_polytopes_one_row_per_data_file():
    lines = run_script("survey_polytopes.py")
    rows = [line.split()[0] for line in lines[2:] if not line.startswith(" ")]
    assert rows == sorted(path.stem for path in DATA.glob("*.json"))


def test_readme_quick_tour_runs():
    # The tour imports the public API with *, so a name it uses that leaves
    # the package fails here; its comments state what the lines return.
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    namespace = {}
    exec(block, namespace)
    a, entry = namespace["a"], namespace["entry"]
    count = int(re.search(r"len\(a\.enumeration\) +# (\d+) regular triangulations", block).group(1))
    assert len(a.enumeration) == count == 14
    induced = eval(block.strip().splitlines()[-1], namespace)
    assert induced == entry.triangulation.simplices


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve():
    tracing = load_tracing()
    for name, module, attr, _hook in tracing.TARGETS:
        owner = importlib.import_module(f"toricweights.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_tracer_sees_the_enumeration_layers():
    # The tracer rebinds module globals, so a call through a captured
    # reference would go unseen.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        enumeration = enumerate_regular(config_of(SQUARE))
    finally:
        tracer.restore()
    assert len(enumeration) == 2
    metrics = tracing.aggregate(tracer.spans, tracer.counters)
    for name in ("flips", "is_regular", "cone_system"):
        assert metrics[f"triangulation.{name}.calls"] > 0
    # flips runs on every triangulation found, and the square's one flip
    # edge is computed once, from the seed.
    assert metrics["triangulation.flips.results"] == 1
    assert metrics["lp.feasible_strict.calls"] == metrics["triangulation.is_regular.calls"]
    assert metrics["exact.affine_dependence.calls"] == metrics["exact.affine_dependence.distinct"] > 0


def test_tracer_hooks_read_the_verify_results(monkeypatch, capsys):
    # The counter hooks read the return values of the suites and of build,
    # so a reshaped return type would break them only under the tracer.
    from toricweights import cli

    monkeypatch.chdir(ROOT)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--input", "data/unit_square.json", "--trials", "3", "--format", "machine"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    metrics = tracing.aggregate(tracer.spans, tracer.counters)
    for name in (
        "weights.build",
        "weights.verify_identities",
        "weights.run_support_trials",
        "vectors.gkz_vector",
        "vectors.hurwitz_vector",
        "functionals.char_pairing",
    ):
        assert metrics[f"{name}.calls"] > 0, name
    assert metrics["weights.build.vertices"] > 0
    assert metrics["weights.verify_identities.checks"] > 0
    assert metrics["weights.run_support_trials.applicable"] == 3


def test_benchmark_suite_passes():
    # perfbench/tests pins tracer counters and hook reads on this package's
    # return types.  It has its own conftest.py, and tests/* import from
    # theirs by name, so the two suites are not collected in one session.
    src = str(Path(toricweights.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
