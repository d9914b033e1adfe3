"""Golden outputs: whole CLI runs compared byte for byte with committed files.

Each case runs one command at a fixed seed; it must exit 0 and write exactly
the files under ``tests/golden/<case>/``, byte for byte.  Those are every
file the command writes except ``manifest.json``, which carries wall-clock
times; the ``--text`` and ``scenarios`` cases instead pin what is printed
to stdout, which no file holds, as ``stdout.txt``.  A change that moves any
simulated number, or the format it is written in, fails here with a diff.
A refactor must leave every file as it is; a change that means to move the
numbers re-pins them by copying the directory of new outputs that the
failure names over ``tests/golden/<case>/``, and is reviewed with
``git diff``.
"""

import difflib
from pathlib import Path

import pytest

from chaincap.cli import PAPER_CAPACITY_PATH, main

GOLDEN = Path(__file__).parent / "golden"
# per-pair RTTs and non-integer costs: the shipped profile's integer-valued
# costs add up to the same cpu work in any order, so only this case pins the
# order of those additions
ASYMMETRIC_CLUSTER = Path(__file__).parent / "data" / "asymmetric_cluster.ini"
PAPER = str(PAPER_CAPACITY_PATH)
DIFF_LINES = 40

CASES = {
    "simulate-write-poisson": ["simulate", "--kind", "write", "--lambda", "1400",
                               "--duration", "30", "--seed", "3"],
    "simulate-read-poisson": ["simulate", "--kind", "read", "--lambda", "15000",
                              "--duration", "20", "--seed", "2"],
    "simulate-write-deterministic": ["simulate", "--kind", "write", "--lambda", "1200",
                                     "--arrival", "deterministic", "--duration", "30"],
    "simulate-write-asymmetric": ["simulate", "--kind", "write", "--cluster",
                                  str(ASYMMETRIC_CLUSTER), "--lambda", "1500", "--window", "0.7"],
    "simulate-zero-rate": ["simulate", "--kind", "write", "--lambda", "0", "--duration", "10"],
    "campaign-write": ["campaign", "--kind", "write", "--rates", "400,800,1200,1400,2800",
                       "--seed", "0"],
    "capacity-write": ["capacity", "--kind", "write", "--seed", "0"],
    "capacity-both-nodes": ["capacity", "--kind", "both", "--nodes", "4,5", "--duration", "20",
                            "--seed", "0"],
    "assess-all": ["assess", "--scenario", "all", "--capacity", PAPER],
    "assess-explicit-eta": ["assess", "--scenario", "resource_sharing", "--eta", "50",
                            "--capacity", PAPER],
    # zero demand: both headrooms are written as "inf"
    "assess-zero-eta": ["assess", "--scenario", "aaa", "--eta", "0", "--capacity", PAPER],
    # the rendered methodology reports and summary lines
    "assess-all-text": ["assess", "--scenario", "all", "--capacity", PAPER, "--text"],
    "assess-explicit-eta-text": ["assess", "--scenario", "resource_sharing", "--eta", "50",
                                 "--capacity", PAPER, "--text"],
    # the catalog commands, which write no files
    "scenarios-list": ["scenarios", "list"],
    "scenarios-list-json": ["scenarios", "list", "--json"],
    "scenarios-show": ["scenarios", "show", "aaa"],
    "scenarios-show-json": ["scenarios", "show", "data_mgmt_trading", "--json"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path, capsys):
    argv = CASES[case]
    prints = argv[0] == "scenarios" or "--text" in argv
    got = tmp_path / case  # the new outputs, laid out as tests/golden/<case>/
    out = tmp_path / "out" if prints else got
    assert main(argv + ([] if argv[0] == "scenarios" else ["--out", str(out)])) == 0
    if prints:
        got.mkdir()
        (got / "stdout.txt").write_bytes(capsys.readouterr().out.encode())
    else:
        (got / "manifest.json").unlink()
    repin = f"new outputs of {case} are in {got}"
    want = GOLDEN / case
    names = {p.name for p in got.iterdir()}
    pinned = {p.name for p in want.iterdir()}
    if names != pinned:
        pytest.fail(f"{case}: written, not pinned: {sorted(names - pinned)}; pinned, not "
                    f"written: {sorted(pinned - names)}\n{repin}", pytrace=False)
    for name in sorted(names):
        new, old = (got / name).read_bytes(), (want / name).read_bytes()
        if new != old:
            diff = list(difflib.unified_diff(
                old.decode(errors="replace").splitlines(),
                new.decode(errors="replace").splitlines(),
                f"tests/golden/{case}/{name}", str(got / name), lineterm=""))
            pytest.fail(f"{case}: {name} differs from tests/golden/{case}/{name}\n"
                        + "\n".join(diff[:DIFF_LINES])
                        + (f"\n... {len(diff) - DIFF_LINES} more diff lines"
                           if len(diff) > DIFF_LINES else "")
                        + f"\n{repin}", pytrace=False)
