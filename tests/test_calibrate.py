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
from chaincap.model import capacity_bound

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
    ("10.5", 2, "error: duration must be a whole number of 1.0 s windows, got 10.5"),
])
def test_failure_exits_with_one_error_line(capsys, duration, code, message):
    assert calibrate.main(["--duration", duration]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.strip().split("\n")) == 1


@pytest.mark.parametrize("kind", [TxKind.WRITE, TxKind.READ])
def test_measure_is_the_capacity_commands_search(tmp_path, capsys, kind):
    # the script measures and confirms each knob with the maximum that
    # `capacity` reports on that axis
    profile = tmp_path / "small.ini"
    profile.write_text("[config]\nschema_version = 1\n\n[cluster]\nblock_tx_capacity = 70\n")
    assert main(["capacity", "--kind", kind.value, "--cluster", str(profile),
                 "--duration", "20"]) == 0
    reported = json.loads(capsys.readouterr().out)[f"max_lambda_{kind.value}"]
    cluster = load_cluster(profile.read_text())
    assert calibrate.measure(cluster, kind, 20.0, 0) == reported


def test_shipped_profile_within_tolerance_is_printed_unchanged(capsys):
    # 1374.6 write/s and 20307.7 read/s lie within 2% of 1400 and 20500, so
    # one search per kind runs and neither knob moves
    assert calibrate.main([]) == 0
    out = capsys.readouterr().out
    assert "  write_exec_us = 540.0   (capacity 1374.6)\n" in out
    assert "  read_service_us = 195.0   (capacity 20307.7)\n" in out
    assert out.count(" -> capacity ") == 2


@pytest.mark.parametrize("field,value,kind,target,other", [
    ("write_exec_us", 800.0, TxKind.WRITE, 1400.0, "  read_service_us = 195.0   "),
    ("read_service_us", 300.0, TxKind.READ, 20500.0, "  write_exec_us = 540.0   "),
], ids=["write", "read"])
def test_knob_off_target_is_solved_and_confirmed(capsys, monkeypatch, field, value, kind,
                                                 target, other):
    # far off target, the knob is solved from the bound and confirmed by one
    # more search on the solved profile; the other knob is left as it is
    shipped = calibrate.default_cluster()
    monkeypatch.setattr(calibrate, "default_cluster",
                        lambda: replace(shipped, **{field: value}))
    searched = []
    measure = calibrate.measure

    def recording(cluster, kind_, duration, seed):
        searched.append((cluster, kind_))
        return measure(cluster, kind_, duration, seed)

    monkeypatch.setattr(calibrate, "measure", recording)
    assert calibrate.main(["--duration", "20"]) == 0
    out = capsys.readouterr().out
    lines = out.split("\n")
    assert sum(line.startswith(f"  {field}=") and " -> capacity " in line
               for line in lines) == 2
    measured, solved = [cluster for cluster, k in searched if k is kind]
    assert getattr(measured, field) == value
    assert capacity_bound(solved, kind) == pytest.approx(target, rel=1e-9)
    tuned = [line for line in lines if line.startswith(f"  {field} = ")]
    printed, cap = (float(x) for x in re.findall(r"[\d.]+", tuned[0]))
    assert printed == round(getattr(solved, field), 1)
    assert abs(cap - target) / target <= calibrate.REL_TOL
    assert other in out


def test_solved_knob_that_misses_its_target_exits_3(capsys):
    # at seed 80 the write search stops near 170/s on the shipped and the
    # solved knob alike, so the confirming search misses the target
    assert calibrate.main(["--seed", "80"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: write_exec_us = 527.1, solved from capacity_bound "
                          "for a target of 1400, gives capacity 170.0")
    assert len(err.strip().split("\n")) == 1
