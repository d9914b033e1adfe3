"""scripts/calibrate.py checks each knob against ``model.capacity_bound``.

No other test imports the script, so it is loaded from its file, as
tests/test_perfbench_contract.py loads perfbench/spans.py.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import pytest

from chaincap import bench
from chaincap.arrival import TxKind
from chaincap.cli import PAPER_CAPACITY_PATH, main
from chaincap.model import capacity_bound

CALIBRATE_PATH = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"


def _load_calibrate():
    spec = importlib.util.spec_from_file_location("calibrate_script", CALIBRATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


calibrate = _load_calibrate()


@pytest.mark.parametrize("option", [["--seed", "0"], ["--duration", "60"]])
def test_any_option_is_a_usage_error(capsys, option):
    with pytest.raises(SystemExit) as exc:
        calibrate.main(option)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def _no_simulation(*args, **kwargs):
    raise AssertionError("the calibrator runs no simulation")


def test_shipped_profile_within_tolerance_is_printed_unchanged(capsys, monkeypatch):
    # bounds of 1375.2 write/s and 20512.8 read/s lie within 2% of 1400 and
    # 20500, so neither knob moves, and two runs print the same bytes
    monkeypatch.setattr(bench, "run_trial", _no_simulation)
    assert calibrate.main([]) == 0
    out = capsys.readouterr().out
    assert "  write_exec_us=540.000 -> bound 1375.2\n" in out
    assert "  write_exec_us = 540.0   (bound 1375.2)\n" in out
    assert "  read_service_us = 195.0   (bound 20512.8)\n" in out
    assert out.count(" -> bound ") == 2
    assert calibrate.main([]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("field,value,frozen,other", [
    ("write_exec_us", 800.0, "  write_exec_us = 527.1   (bound 1400.0)\n",
     "  read_service_us = 195.0   (bound 20512.8)\n"),
    ("read_service_us", 300.0, "  read_service_us = 195.1   (bound 20500.0)\n",
     "  write_exec_us = 540.0   (bound 1375.2)\n"),
], ids=["write", "read"])
def test_knob_off_target_is_solved(capsys, monkeypatch, field, value, frozen, other):
    # far off target, the knob is solved so that its bound meets the target;
    # the other knob is left as it is
    shipped = calibrate.default_cluster()
    monkeypatch.setattr(calibrate, "default_cluster",
                        lambda: replace(shipped, **{field: value}))
    assert calibrate.main([]) == 0
    out = capsys.readouterr().out
    assert f"  {field}={value:.3f} -> bound " in out
    assert out.count(f"  {field}=") == 2
    assert frozen in out and other in out


def test_solved_knob_that_misses_its_target_exits_3(capsys, monkeypatch):
    # a 520 ms block interval paces the solved knob's round, so 1/bound is not
    # affine across the solve: 527.1 gives 700 writes per 520 ms, not 1400/s
    shipped = calibrate.default_cluster()
    paced = replace(shipped, write_exec_us=600.0, block_interval_ms=520.0)
    assert capacity_bound(paced, TxKind.WRITE) == pytest.approx(1270.4, abs=0.05)
    monkeypatch.setattr(calibrate, "default_cluster", lambda: paced)
    assert calibrate.main([]) == 3
    err = capsys.readouterr().err
    assert err == ("error: write_exec_us = 527.1, solved from capacity_bound for a target "
                   "of 1400, gives bound 1346.2, more than 2% off\n")


def test_simulated_endpoints_lie_within_tolerance(tmp_path, capsys):
    # the capacity searches on the shipped profile read 1374.6 write/s and
    # 20307.7 read/s at seed 0; a change to the arrival stream, the simulator
    # or the search that takes either more than 2% off its target fails here
    paper = json.loads(PAPER_CAPACITY_PATH.read_text())
    assert main(["capacity", "--kind", "both", "--seed", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    simulated = json.loads((tmp_path / "capacity.json").read_text())
    for key in ("max_lambda_write", "max_lambda_read"):
        assert abs(simulated[key] - paper[key]) / paper[key] <= calibrate.REL_TOL, key
