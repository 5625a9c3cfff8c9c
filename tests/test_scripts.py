"""Smoke runs of the experiment scripts in scripts/, which use the public
API (``analyze``, ``verify_*_support``) but are not imported by any test."""

import os
import subprocess
import sys
from pathlib import Path

import toricweights

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
