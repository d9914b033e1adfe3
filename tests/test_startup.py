"""chaincap starts without the modules that only some commands use.

Commands that never simulate run without importing numpy.  Before the first
draw, ``sys.modules`` may hold the not yet loaded module under the name
``numpy``, but none of its submodules: importing numpy imports dozens of
them.  ``hashlib``, ``difflib``, ``configparser``, ``statistics`` and
``chaincap.assess`` load in the one function that uses each, so importing
``chaincap.cli`` loads none of them, and each command that needs one still
runs with it.

Each case runs in a fresh interpreter, since this one has every module loaded
already; a deferred module counts only if the case itself loaded it, not a
site hook that ran before.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaincap
from chaincap.cli import PAPER_CAPACITY_PATH

SRC = Path(chaincap.__file__).resolve().parents[1]
ASYMMETRIC_CLUSTER = Path(__file__).parent / "data" / "asymmetric_cluster.ini"

DEFERRED = ("hashlib", "difflib", "configparser", "statistics", "chaincap.assess")

PRELUDE = """
import sys
before = set(sys.modules)
"""

REPORT = f"""
import json
print(json.dumps({{"exit": code,
                  "numpy": sorted(m for m in sys.modules if m.startswith("numpy.")),
                  "deferred": [m for m in {DEFERRED!r} if m in sys.modules and m not in before]}}))
"""

RUN_MAIN = """
from chaincap.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:  # argparse's --version
    code = exc.code
"""


def fresh_run(code: str) -> dict:
    """Exit code, numpy submodules, the deferred modules ``code`` loaded and
    stderr, after ``code`` runs in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code + REPORT],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    return dict(json.loads(proc.stdout.splitlines()[-1]), stderr=proc.stderr)


def run_main(argv: list[str]) -> dict:
    return fresh_run(RUN_MAIN.format(argv=argv))


@pytest.mark.parametrize("module", ["chaincap", "chaincap.cli"])
def test_import_loads_no_numpy_and_no_deferred_module(module):
    result = fresh_run(f"import {module}\ncode = 0\n")
    assert (result["numpy"], result["deferred"]) == ([], [])


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
    # a read capacity is a closed form, with no probe to simulate
    ["capacity", "--kind", "read"],
    ["capacity", "--kind", "read", "--nodes", "4,1000", "--duration", "10"],
])
def test_commands_that_simulate_nothing_load_no_numpy_and_no_deferred_module(argv):
    result = run_main(argv)
    assert (result["exit"], result["numpy"], result["deferred"]) == (0, [], [])


def test_an_unknown_scenario_loads_difflib_for_its_hint():
    result = run_main(["scenarios", "show", "aab"])
    assert (result["exit"], result["numpy"], result["deferred"]) == (2, [], ["difflib"])
    assert "did you mean 'aaa'" in result["stderr"]


def test_assess_on_a_capacity_file_loads_no_numpy(tmp_path):
    out = tmp_path / "out"
    result = run_main(["assess", "--scenario", "all", "--capacity", str(PAPER_CAPACITY_PATH),
                       "--out", str(out)])
    assert (result["exit"], result["numpy"]) == (0, [])
    assert result["deferred"] == ["hashlib", "chaincap.assess"]
    assert json.loads((out / "verdict_aaa.json").read_text())["scenario"] == "aaa"
    assert (out / "summary.csv").read_text().startswith("scenario,")


@pytest.mark.parametrize("text,error", [
    ("not ini\n", "line 1: 'not ini' comes before the first [section] header"),
    ("[config]\nschema_version = 1\n\n[cluster]\nnode_count = 4\nnode_count = 5\n",
     "line 6: key 'node_count' repeated in [cluster]"),
], ids=["no-header", "repeated-key"])
def test_input_error_loads_no_numpy(tmp_path, text, error):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    result = run_main(["simulate", "--kind", "write", "--lambda", "10", "--cluster", str(bad),
                       "--out", str(tmp_path / "out")])
    assert (result["exit"], result["numpy"]) == (2, [])
    assert result["deferred"] == ["hashlib", "configparser"]
    assert error in result["stderr"]


def test_simulate_loads_numpy_at_its_first_draw(tmp_path):
    result = run_main(["simulate", "--kind", "write", "--lambda", "10", "--duration", "10",
                       "--out", str(tmp_path / "out")])
    assert result["exit"] == 0
    assert "numpy.random" in result["numpy"]


def test_simulate_records_the_cluster_file_digest(tmp_path):
    out = tmp_path / "out"
    result = run_main(["simulate", "--kind", "write", "--lambda", "10", "--duration", "10",
                       "--cluster", str(ASYMMETRIC_CLUSTER), "--out", str(out)])
    assert result["exit"] == 0
    digests = json.loads((out / "manifest.json").read_text())["input_digests"]
    assert digests == {str(ASYMMETRIC_CLUSTER): hashlib.sha256(
        ASYMMETRIC_CLUSTER.read_bytes()).hexdigest()}


def test_a_write_search_loads_no_statistics():
    result = run_main(["capacity", "--kind", "write", "--duration", "10", "--seed", "1"])
    assert result["exit"] == 0
    assert "statistics" not in result["deferred"]


def test_campaign_aggregates_its_trials(tmp_path):
    out = tmp_path / "out"
    result = run_main(["campaign", "--kind", "write", "--rates", "400,800", "--trials", "1",
                       "--duration", "10", "--out", str(out)])
    assert result["exit"] == 0
    assert "statistics" in result["deferred"]
    aggregates = json.loads((out / "campaign.json").read_text())["aggregates"]
    assert [a["lambda_offered"] for a in aggregates] == [400.0, 800.0]
