"""Start-up cost: the package builds its records as NamedTuples and plain
classes, so importing it loads neither ``dataclasses`` nor ``inspect`` (with
``ast``, ``dis`` and ``tokenize`` behind it), which every CLI run and worker
process would pay for."""

import json
import subprocess
import sys
from pathlib import Path

import toricweights

SCRIPT = r"""
import json
import sys

sys.path.insert(0, sys.argv[1])
import toricweights
import toricweights.cli

print(json.dumps({
    "file": toricweights.__file__,
    "loaded": [name for name in ("dataclasses", "inspect") if name in sys.modules],
}))
"""


def test_import_loads_no_dataclasses_or_inspect():
    # -S: no site module, whose .pth hooks may import either on their own.
    src = str(Path(toricweights.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT, src], capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["file"].startswith(src)
    assert result["loaded"] == []
