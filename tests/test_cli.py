import json
from pathlib import Path

import pytest

from chaincap.arrival import ArrivalProcess
from chaincap.chainsim import MAX_WINDOWS
from chaincap.cli import PAPER_CAPACITY_PATH, main


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}


class TestScenariosCommand:
    def test_list_has_seven_rows(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 8  # header + 7 scenarios

    def test_show_aaa_multiplicities(self, capsys):
        assert main(["scenarios", "show", "aaa", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reads_per_event"] == 5
        assert doc["writes_per_event"] == 1

    def test_show_unknown_id_exits_2_with_suggestion(self, capsys):
        assert main(["scenarios", "show", "aab"]) == 2
        assert "aaa" in capsys.readouterr().err

    def test_show_includes_why_what_when(self, capsys):
        assert main(["scenarios", "show", "public_key_mgmt"]) == 0
        out = capsys.readouterr().out
        assert "Why on-chain" in out
        assert "when:" in out


class TestSimulateCommand:
    def test_zero_rate_gives_zero_tps(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--kind", "write", "--lambda", "0",
                     "--duration", "10", "--out", str(out)]) == 0
        lines = (out / "timeline.csv").read_text().strip().split("\n")
        assert len(lines) == 11
        assert all(line.split(",")[2] == "0.0" for line in lines[1:])

    def test_deterministic_sub_saturation(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--kind", "write", "--lambda", "1000",
                     "--arrival", "deterministic", "--duration", "30",
                     "--out", str(out)]) == 0
        rows = (out / "timeline.csv").read_text().strip().split("\n")[1:]
        tps = [float(r.split(",")[2]) for r in rows[3:]]
        assert abs(sum(tps) / len(tps) - 1000.0) / 1000.0 < 0.05

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--kind", "write", "--lambda", "400", "--duration",
                "15", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_outputs(a) == read_outputs(b)

    def test_missing_cluster_file(self, tmp_path, capsys):
        assert main(["simulate", "--kind", "write", "--lambda", "10",
                     "--cluster", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--kind", "read", "--lambda", "100", "--duration", "10",
              "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["timeline.csv"]
        assert manifest["seeds"] == {"seed": 0}
        assert manifest["tool"] == "chaincap"

    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINCAP_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--kind", "write", "--lambda", "10",
                     "--duration", "10"]) == 0
        assert (tmp_path / "envout" / "timeline.csv").is_file()

    def test_missing_out_dir(self, monkeypatch, capsys):
        monkeypatch.delenv("CHAINCAP_OUT", raising=False)
        assert main(["simulate", "--kind", "write", "--lambda", "10"]) == 2


class TestCapacityCommand:
    def test_nodes_below_bft_minimum(self, tmp_path, capsys):
        assert main(["capacity", "--kind", "write", "--nodes", "3"]) == 2
        assert "4" in capsys.readouterr().err

    def test_malformed_nodes_exit_2(self, capsys):
        assert main(["capacity", "--kind", "write", "--nodes", "4,x"]) == 2
        err = capsys.readouterr().err
        assert "--nodes" in err and len(err.strip().split("\n")) == 1

    def test_nodes_with_rtt_matrix_rejected_before_search(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr("chaincap.cli.sweep_nodes", _no_search)
        path = tmp_path / "matrix.ini"
        path.write_text(RTT_MATRIX_PROFILE)
        assert main(["capacity", "--kind", "write", "--cluster", str(path),
                     "--nodes", "4,5"]) == 2
        err = capsys.readouterr().err
        assert "--nodes" in err and "[rtt_matrix]" in err
        assert len(err.strip().split("\n")) == 1

    def test_write_search_prints_json(self, capsys, small_cluster_file):
        assert main(["capacity", "--kind", "write", "--cluster",
                     str(small_cluster_file), "--duration", "20",
                     "--start", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["node_count"] == 4
        assert doc["max_lambda_read"] is None
        assert doc["max_lambda_write"] > 0


class TestAssessCommand:
    def test_public_key_mgmt_suitable(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["assess", "--scenario", "public_key_mgmt",
                     "--capacity", str(PAPER_CAPACITY_PATH), "--out", str(out)]) == 0
        assert "suitable" in capsys.readouterr().out
        doc = json.loads((out / "verdict_public_key_mgmt.json").read_text())
        assert doc["comparison"]["suitable"]

    def test_aaa_unsuitable(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["assess", "--scenario", "aaa",
                     "--capacity", str(PAPER_CAPACITY_PATH), "--out", str(out)]) == 0
        doc = json.loads((out / "verdict_aaa.json").read_text())
        assert not doc["comparison"]["suitable"]
        assert not doc["comparison"]["read_ok"]
        assert not doc["comparison"]["write_ok"]

    def test_eta_required_exits_2(self, tmp_path, capsys):
        assert main(["assess", "--scenario", "resource_sharing",
                     "--capacity", str(PAPER_CAPACITY_PATH),
                     "--out", str(tmp_path / "a")]) == 2
        assert "eta required" in capsys.readouterr().err

    def test_all_skips_scenarios_without_eta(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["assess", "--scenario", "all",
                     "--capacity", str(PAPER_CAPACITY_PATH), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "skipping" in captured.err
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert len(summary) == 3  # header + public_key_mgmt + aaa

    @pytest.mark.parametrize("document", [
        "{not json",
        '{"schema_version": 1}',
        "[1, 2]",
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": "abc", '
        '"max_lambda_write": 1400}',
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": NaN, '
        '"max_lambda_write": 1400}',
        '{"schema_version": 1, "node_count": 2, "max_lambda_read": 20000, '
        '"max_lambda_write": 1400}',
    ])
    def test_malformed_capacity_file_exits_2(self, tmp_path, capsys, document):
        path = tmp_path / "capacity.json"
        path.write_text(document)
        out = tmp_path / "a"
        assert main(["assess", "--scenario", "aaa", "--capacity", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().split("\n")) == 1
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["assess", "--scenario", "aaa", "--capacity", str(PAPER_CAPACITY_PATH)]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_outputs(a) == read_outputs(b)


class TestCampaignCommand:
    def test_campaign_outputs(self, tmp_path, small_cluster_file):
        out = tmp_path / "c"
        assert main(["campaign", "--kind", "write", "--rates", "40,60",
                     "--cluster", str(small_cluster_file), "--trials", "2",
                     "--duration", "20", "--out", str(out)]) == 0
        csv_lines = (out / "campaign.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 5  # header + 2 rates x 2 trials
        doc = json.loads((out / "campaign.json").read_text())
        assert len(doc["aggregates"]) == 2
        assert (out / "fig_write_4nodes.csv").is_file()

    def test_empty_rates_warns(self, tmp_path, capsys, small_cluster_file):
        assert main(["campaign", "--kind", "write", "--cluster",
                     str(small_cluster_file), "--trials", "1", "--duration", "20",
                     "--out", str(tmp_path / "c")]) == 0
        assert "vacuous" in capsys.readouterr().err

    def test_malformed_rates_exit_2(self, tmp_path, capsys):
        assert main(["campaign", "--kind", "write", "--rates", "1,abc",
                     "--out", str(tmp_path / "c")]) == 2
        err = capsys.readouterr().err
        assert "--rates" in err and len(err.strip().split("\n")) == 1


@pytest.mark.parametrize("argv", [
    ["campaign", "--kind", "write", "--rates", "1,abc"],
    ["simulate", "--kind", "write", "--lambda", "10", "--cluster", "no/such/cluster.ini"],
    ["assess", "--scenario", "aaa", "--capacity", "no/such/capacity.json"],
])
def test_failed_command_leaves_no_output_dir(tmp_path, argv):
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def _no_draws(self):
    raise AssertionError("no uniforms may be drawn for rejected input")


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "write", "--lambda", "1e12"],
    ["simulate", "--kind", "read", "--lambda", "1e12", "--duration", "1e-3"],
    ["campaign", "--kind", "write", "--rates", "400,1e12"],
    ["capacity", "--kind", "write", "--start", "1e12"],
])
def test_event_count_guard_exits_2_before_drawing(tmp_path, capsys, monkeypatch, argv):
    # a missing guard fails on the first draw, before allocating a stream
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "expects" in err and len(err.strip().split("\n")) == 1
    assert not out.exists()


@pytest.mark.parametrize("duration,window", [
    ("10", "nan"), ("10", "inf"), ("10", "1e-9"),
    (str(MAX_WINDOWS + 1), "1"),  # one window above the cap
])
def test_bad_window_exits_2_before_drawing(tmp_path, capsys, monkeypatch, duration, window):
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(["simulate", "--kind", "write", "--lambda", "1", "--duration", duration,
                 "--window", window, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "window" in err and len(err.strip().split("\n")) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["capacity", "--kind", "write", "--duration", "5"],
    ["capacity", "--kind", "read", "--duration", "inf"],
    ["campaign", "--kind", "write", "--rates", "400", "--duration", "nan"],
    ["campaign", "--kind", "write", "--rates", "400", "--duration", "9.99"],
])
def test_short_or_non_finite_duration_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "duration must cover at least 10 windows" in err
    assert len(err.strip().split("\n")) == 1
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["1e-17", "9.99e-10", "0", "nan", "0.06"])
def test_search_tolerance_out_of_range_exits_2(tmp_path, capsys, monkeypatch, tolerance):
    # below 1e-9 the bisection's bracket stops narrowing and the search never ends
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(["capacity", "--kind", "write", "--duration", "20", "--tolerance", tolerance,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "search tolerance must be in [1e-09, 0.05]" in err
    assert len(err.strip().split("\n")) == 1
    assert not out.exists()


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().split("\n")) == 1
    return err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "write", "--lambda", "10"],
    ["simulate", "--kind", "write", "--lambda", "10", "--arrival", "deterministic"],
    ["capacity", "--kind", "write"],
    ["assess", "--scenario", "aaa"],  # no --capacity: falls back to a search
    ["campaign", "--kind", "write", "--rates", "400"],
])
def test_seed_outside_key_range_exits_2(tmp_path, capsys, monkeypatch, argv, seed):
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(argv + ["--seed", seed, "--out", str(out)]) == 2
    assert "must be in [0, 2**128)" in _one_error_line(capsys)
    assert not out.exists()


def test_campaign_last_seed_outside_key_range_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(["campaign", "--kind", "write", "--rates", "400", "--trials", "2",
                 "--seed", str(2**128 - 1), "--out", str(out)]) == 2
    assert "base_seed + trials - 1" in _one_error_line(capsys)
    assert not out.exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    assert main(["simulate", "--kind", "write", "--lambda", "10", "--duration", "10",
                 "--out", str(taken)]) == 2
    assert str(taken) in _one_error_line(capsys)
    assert taken.read_text() == "keep\n"


def test_out_under_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "d"
    assert main(["simulate", "--kind", "write", "--lambda", "10", "--duration", "10",
                 "--out", str(out)]) == 2
    assert str(out) in _one_error_line(capsys)
    assert taken.read_text() == "keep\n"


def test_unknown_config_key_in_cluster_profile_exits_2(tmp_path, capsys):
    profile = tmp_path / "cluster.ini"
    profile.write_text("[config]\nschema_version = 1\nfoo = 2\n\n[cluster]\nnode_count = 4\n")
    out = tmp_path / "d"
    assert main(["simulate", "--kind", "write", "--lambda", "10", "--duration", "10",
                 "--cluster", str(profile), "--out", str(out)]) == 2
    assert "'foo'" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("name", ["timeline.csv", "manifest.json"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    assert main(["simulate", "--kind", "write", "--lambda", "10", "--duration", "10",
                 "--out", str(out)]) == 2
    assert str(out / name) in _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "write", "--lambda", "10", "--cluster", "{bad}"],
    ["capacity", "--kind", "write", "--cluster", "{bad}"],
    ["assess", "--scenario", "aaa", "--capacity", "{bad}"],
    ["assess", "--scenario", "aaa", "--capacity", str(PAPER_CAPACITY_PATH),
     "--overrides", "{bad}"],
])
def test_non_utf8_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    bad = tmp_path / "latin1.ini"
    bad.write_bytes("[config]\n# r\xe9seau\n".encode("latin-1"))
    out = tmp_path / "d"
    argv = [str(bad) if a == "{bad}" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert "is not UTF-8 text" in _one_error_line(capsys)
    assert not out.exists()


def test_non_utf8_overrides_without_out_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.ini"
    bad.write_bytes(b"\xff\xfe")
    assert main(["scenarios", "list", "--overrides", str(bad)]) == 2
    assert str(bad) in _one_error_line(capsys)


RTT_MATRIX_PROFILE = (
    "[config]\nschema_version = 1\n\n[cluster]\nnode_count = 4\n\n[rtt_matrix]\n"
    "node0 = 0,30,30,30\nnode1 = 30,0,30,30\nnode2 = 30,30,0,30\nnode3 = 30,30,30,0\n")


def _no_search(*args, **kwargs):
    raise AssertionError("the capacity search must not start")


@pytest.fixture
def small_cluster_file(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(
        "[config]\nschema_version = 1\n\n[cluster]\nnode_count = 4\n"
        "block_tx_capacity = 70\n")
    return path
