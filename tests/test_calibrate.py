"""scripts/calibrate.py ends every failure with one error line and its exit code.

No other test imports the script, so it is loaded from its file, as
tests/test_perfbench_contract.py loads perfbench/spans.py.
"""

import importlib.util
import json
import re
from dataclasses import replace
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


def test_shipped_profile_within_tolerance_is_printed_unchanged(capsys):
    # 1374.6 write/s and 20813.6 read/s lie within 2% of 1400 and 20500, so
    # one search per kind runs and neither knob moves
    assert calibrate.main([]) == 0
    out = capsys.readouterr().out
    assert "  write_exec_us = 540.0   (capacity 1374.6)\n" in out
    assert "  read_service_us = 195.0   (capacity 20813.6)\n" in out
    assert out.count(" -> capacity ") == 2


def test_knob_off_target_is_bisected(capsys, monkeypatch):
    # at 800 us per write the capacity is far below 1400: the script bisects
    # that knob from the shipped value and leaves the read knob as it is
    shipped = calibrate.default_cluster()
    monkeypatch.setattr(calibrate, "default_cluster",
                        lambda: replace(shipped, write_exec_us=800.0))
    assert calibrate.main(["--duration", "20"]) == 0
    out = capsys.readouterr().out
    tuned = [line for line in out.split("\n") if line.startswith("  write_exec_us = ")]
    value, cap = (float(x) for x in re.findall(r"[\d.]+", tuned[0]))
    assert value < 800.0 and abs(cap - 1400.0) / 1400.0 <= calibrate.REL_TOL
    assert out.count("  write_exec_us=") > 2
    assert "  read_service_us = 195.0   " in out
