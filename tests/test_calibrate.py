"""scripts/calibrate.py ends every failure with one error line and its exit code.

No other test imports the script, so it is loaded from its file, as
tests/test_perfbench_contract.py loads perfbench/spans.py.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from chaincap.arrival import TxKind
from chaincap.chainsim import load_cluster
from chaincap.cli import main

CALIBRATE_PATH = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"


def _load_calibrate():
    spec = importlib.util.spec_from_file_location("calibrate_script", CALIBRATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


calibrate = _load_calibrate()


@pytest.mark.parametrize("duration,code,message", [
    # the shipped profile's first write probe at seed 0 reads 96.44 tps
    ("10", 3, "error: no steady operating point at the smallest probe rate 100.0"),
    ("5", 2, "error: duration must cover at least 10 windows of 1.0 s, got 5.0"),
])
def test_failure_exits_with_one_error_line(capsys, duration, code, message):
    assert calibrate.main(["--duration", duration]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.strip().split("\n")) == 1


def test_measure_is_the_capacity_commands_search(tmp_path, capsys):
    # the script tunes against the maximum that `capacity` reports
    profile = tmp_path / "small.ini"
    profile.write_text("[config]\nschema_version = 1\n\n[cluster]\nblock_tx_capacity = 70\n")
    assert main(["capacity", "--kind", "write", "--cluster", str(profile),
                 "--duration", "20"]) == 0
    reported = json.loads(capsys.readouterr().out)["max_lambda_write"]
    cluster = load_cluster(profile.read_text())
    assert calibrate.measure(cluster, TxKind.WRITE, 20.0, 0) == reported
