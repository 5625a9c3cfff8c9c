"""Start-up cost: the package builds its records as NamedTuples and plain
classes, so importing it loads neither ``dataclasses`` nor ``inspect`` (with
``ast``, ``dis`` and ``tokenize`` behind it), and the CLI reads its arguments
from its own option table, so a command loads neither ``argparse`` nor the
``gettext`` and ``locale`` behind it; every CLI run and worker process would
pay for them."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import toricweights

SEGMENT = Path(__file__).parent.parent / "data" / "segment2.json"

SCRIPT = r"""
import io
import json
import sys
from contextlib import redirect_stdout

sys.path.insert(0, sys.argv[1])
import toricweights
import toricweights.cli

imported = [name for name in ("dataclasses", "inspect") if name in sys.modules]
with redirect_stdout(io.StringIO()) as out:
    code = toricweights.cli.main(["check", "--input", sys.argv[2], "--format", "machine"])
print(json.dumps({
    "file": toricweights.__file__,
    "loaded": imported,
    "check": [code, json.loads(out.getvalue())["num_lattice_points"]],
    "loaded by check": [name for name in ("argparse", "gettext", "locale") if name in sys.modules],
}))
"""


@pytest.fixture(scope="module")
def bare_run():
    # -S: no site module, whose .pth hooks may import any of them on their own.
    src = str(Path(toricweights.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, src, str(SEGMENT)], capture_output=True, text=True, check=True
    )
    result = json.loads(proc.stdout)
    assert result["file"].startswith(src)
    return result


def test_import_loads_no_dataclasses_or_inspect(bare_run):
    assert bare_run["loaded"] == []


def test_a_command_loads_no_argparse_gettext_or_locale(bare_run):
    assert bare_run["check"] == [0, 3]
    assert bare_run["loaded by check"] == []


def test_exported_records_keep_no_dict():
    # The records are plain NamedTuples (or validating subclasses with empty
    # __slots__), so no instance carries a __dict__ cache beside its fields.
    records = [obj for obj in vars(toricweights).values() if isinstance(obj, type) and issubclass(obj, tuple)]
    assert records
    assert [cls.__name__ for cls in records if cls.__dictoffset__ != 0] == []
