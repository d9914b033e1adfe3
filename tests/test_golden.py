"""Golden outputs: pinned digests of whole CLI runs.

Each case runs one command at a fixed seed and hashes its exit code and
every file it writes except ``manifest.json``, which carries wall-clock
times; the ``--text`` and ``scenarios`` cases hash what is printed to
stdout, which no file holds.  A change that moves any simulated number, or the format it is
written in, changes a digest.  A refactor must leave every digest as it is;
a change that means to move the numbers must say so and re-pin them.
"""

import hashlib
from pathlib import Path

import pytest

from chaincap.cli import PAPER_CAPACITY_PATH, main

# per-pair RTTs and non-integer costs: the shipped profile's integer-valued
# costs add up to the same cpu work in any order, so only this case pins the
# order of those additions
ASYMMETRIC_CLUSTER = Path(__file__).parent / "data" / "asymmetric_cluster.ini"

CASES = {
    "simulate-write-poisson": (
        ["simulate", "--kind", "write", "--lambda", "1400", "--duration", "30",
         "--seed", "3"],
        "95b99c6eab97119e9aa1fd760a0900ee8618b63e22bb289edd0d8aa3ebe23998"),
    "simulate-read-poisson": (
        ["simulate", "--kind", "read", "--lambda", "15000", "--duration", "20",
         "--seed", "2"],
        "7b646a10f1f919a0a0e8817d82770976ef434048f83295a44473b2a03a1edc19"),
    "simulate-write-deterministic": (
        ["simulate", "--kind", "write", "--lambda", "1200", "--arrival", "deterministic",
         "--duration", "30"],
        "5c333299b7c9d328839fba55588fd06a01133f037b43faf1e41b9ec03a3de085"),
    "simulate-write-asymmetric": (
        ["simulate", "--kind", "write", "--cluster", str(ASYMMETRIC_CLUSTER),
         "--lambda", "1500", "--window", "0.7"],
        "106b755810db93f25664e30754a851b9a6d975bace4fac6048a63bd8394ce0e9"),
    "simulate-zero-rate": (
        ["simulate", "--kind", "write", "--lambda", "0", "--duration", "10"],
        "9dca89678a027cebc516edf9a33f78613d15b21f2fca69ea5abf69c21718acb6"),
    "campaign-write": (
        ["campaign", "--kind", "write", "--rates", "400,800,1200,1400,2800", "--seed", "0"],
        "4dab3d97f479261dd7e13bb25c091da2f46c1493a9875c71478bf0e0516b78f1"),
    "capacity-write": (
        ["capacity", "--kind", "write", "--seed", "0"],
        "057542fb6b218e66e6a8f2649f02c35822d9e620e240f2dba13a8f27e84ec780"),
    "capacity-both-nodes": (
        ["capacity", "--kind", "both", "--nodes", "4,5", "--duration", "20", "--seed", "0"],
        "88c54a847afd717f042dd396af6f599d964901846ea6867949d76ac47aeadd37"),
    "assess-all": (
        ["assess", "--scenario", "all", "--capacity", str(PAPER_CAPACITY_PATH)],
        "b9be2436463d0f7445b9dd6bc8b178f1fd073e1a899968a39a95fdf37183c5f9"),
    "assess-explicit-eta": (
        ["assess", "--scenario", "resource_sharing", "--eta", "50",
         "--capacity", str(PAPER_CAPACITY_PATH)],
        "bbc63b7aba0c26f7f305729f136080ed48a7cfe34eeb0f73f7ea042e2b71756c"),
    # zero demand: both headrooms are written as "inf"
    "assess-zero-eta": (
        ["assess", "--scenario", "aaa", "--eta", "0", "--capacity", str(PAPER_CAPACITY_PATH)],
        "33b40771350ccd95a7caea8e536150ebfef2f7a3a3608c6a709b182abf493ab5"),
}

# stdout of assess --text: the rendered methodology reports and summary lines
TEXT_CASES = {
    "assess-all-text": (
        ["assess", "--scenario", "all", "--capacity", str(PAPER_CAPACITY_PATH), "--text"],
        "574af44e17a4c29efdc587c973816f031ec2f91be0cf29467536615dcb9896e8"),
    "assess-explicit-eta-text": (
        ["assess", "--scenario", "resource_sharing", "--eta", "50",
         "--capacity", str(PAPER_CAPACITY_PATH), "--text"],
        "2a1be5777621c80d5a6aff1c7c49612c4023cae630c996184990800b41515f4c"),
}


# stdout of the catalog commands, which write no files
SCENARIOS_CASES = {
    "scenarios-list": (
        ["scenarios", "list"],
        "87523d7ee0012877e09af15ba1fe54f9efaefcc766e63ea5746d569d77e13d4a"),
    "scenarios-list-json": (
        ["scenarios", "list", "--json"],
        "cb20dd5354c903db8faa7dede7b29d01daf89993fdd8c84167998d55288384a2"),
    "scenarios-show": (
        ["scenarios", "show", "aaa"],
        "8b87f5c0dcabea9f865389f6fb4e878dc1d7345fb9064919fe34664e29ebc6f3"),
    "scenarios-show-json": (
        ["scenarios", "show", "data_mgmt_trading", "--json"],
        "82bd64265eea1ce4992e34965a02f3b2da85480777ae75344a039fbf4117f560"),
}


def output_digest(code: int, out: Path) -> str:
    h = hashlib.sha256(f"exit={code}\n".encode())
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    argv, expected = CASES[name]
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out)])
    assert code == 0
    assert output_digest(code, out) == expected


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_golden_text(name, tmp_path, capsys):
    argv, expected = TEXT_CASES[name]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(SCENARIOS_CASES))
def test_golden_scenarios(name, capsys):
    argv, expected = SCENARIOS_CASES[name]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected
