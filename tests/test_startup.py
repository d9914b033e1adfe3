"""Commands that never simulate run without importing numpy.

Each case runs in a fresh interpreter, since this one has numpy loaded
already.  Before the first draw, ``sys.modules`` may hold the not yet loaded
module under the name ``numpy``, but none of its submodules: importing numpy
imports dozens of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaincap
from chaincap.cli import PAPER_CAPACITY_PATH

SRC = Path(chaincap.__file__).resolve().parents[1]

REPORT = """
import json, sys
print(json.dumps({"exit": code,
                  "numpy": sorted(m for m in sys.modules if m.startswith("numpy."))}))
"""

RUN_MAIN = """
from chaincap.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:  # argparse's --version
    code = exc.code
"""


def fresh_run(code: str) -> dict:
    """Exit code and numpy submodules after ``code`` runs in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code + REPORT],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_main(argv: list[str]) -> dict:
    return fresh_run(RUN_MAIN.format(argv=argv))


@pytest.mark.parametrize("module", ["chaincap", "chaincap.cli"])
def test_import_loads_no_numpy(module):
    assert fresh_run(f"import {module}\ncode = 0\n")["numpy"] == []


def test_package_import_loads_no_submodule():
    # the package exports only __version__; names come from their modules
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\nimport chaincap\n"
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith('chaincap.'))))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["scenarios", "list"],
    ["scenarios", "show", "aaa", "--json"],
])
def test_catalog_commands_load_no_numpy(argv):
    assert run_main(argv) == {"exit": 0, "numpy": []}


def test_assess_on_a_capacity_file_loads_no_numpy(tmp_path):
    result = run_main(["assess", "--scenario", "all", "--capacity", str(PAPER_CAPACITY_PATH),
                       "--out", str(tmp_path / "out")])
    assert result == {"exit": 0, "numpy": []}


def test_input_error_loads_no_numpy(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("not ini\n")
    result = run_main(["simulate", "--kind", "write", "--lambda", "10", "--cluster", str(bad),
                       "--out", str(tmp_path / "out")])
    assert result == {"exit": 2, "numpy": []}


def test_simulate_loads_numpy_at_its_first_draw(tmp_path):
    result = run_main(["simulate", "--kind", "write", "--lambda", "10", "--duration", "10",
                       "--out", str(tmp_path / "out")])
    assert result["exit"] == 0
    assert "numpy.random" in result["numpy"]
