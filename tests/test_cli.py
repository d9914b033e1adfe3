import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import shlex
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chaincap import bench, chainsim, cli
from chaincap.arrival import ArrivalKind, ArrivalProcess, TxKind, generate_events
from chaincap.bench import (
    DESK_DURATION_S,
    DESK_TRIALS,
    SEARCH_TOLERANCE,
    WINDOW_S,
    CampaignSpec,
    CapacityProfile,
    detect_steady_state,
)
from chaincap.chainsim import (
    MAX_CELLS,
    MAX_NODES,
    ClusterConfig,
    default_cluster,
    load_cluster,
    run,
)
from chaincap.cli import PAPER_CAPACITY_PATH, build_parser, main
from chaincap.errors import CalibrationError, ChaincapError, InputError
from chaincap.model import capacity_bound
from chaincap.scenarios import builtin_scenarios, load_scenarios


# one write per block: the first probe of a write search is never steady
SLOW_CLUSTER = Path(__file__).parent / "data" / "slow_cluster.ini"
ASYMMETRIC_CLUSTER = Path(__file__).parent / "data" / "asymmetric_cluster.ini"
# the catalog's ids in catalog order, as the unknown-id error lists them
KNOWN_IDS = ("public_key_mgmt, id_mgmt, aaa, context_info, data_mgmt_trading, "
             "resource_sharing, trading_settlement")


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

    def test_show_json_has_no_payload_size(self, capsys):
        assert main(["scenarios", "show", "aaa", "--json"]) == 0
        assert "write_payload_bytes" not in capsys.readouterr().out

    def test_show_json_use_case_keys(self, capsys):
        assert main(["scenarios", "show", "aaa", "--json"]) == 0
        for uc in json.loads(capsys.readouterr().out)["use_cases"]:
            assert list(uc) == ["name", "reads_per_event", "writes_per_event", "trigger"]

    @pytest.mark.parametrize("raw,hint", [("aab", "; did you mean 'aaa'?"), ("zzz", "")])
    def test_show_unknown_id_exits_2(self, capsys, raw, hint):
        assert main(["scenarios", "show", raw]) == 2
        assert capsys.readouterr().err == (f"error: unknown scenario {raw!r}{hint} "
                                           f"(known: {KNOWN_IDS})\n")

    def test_show_includes_why_what_when(self, capsys):
        assert main(["scenarios", "show", "public_key_mgmt"]) == 0
        out = capsys.readouterr().out
        assert "Why on-chain" in out
        assert "when:" in out

    def test_list_with_an_id_is_a_usage_error(self, capsys):
        assert main(["scenarios", "list", "aaa"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scenarios list takes no id, got 'aaa'\n"


class TestSimulateCommand:
    def test_zero_rate_gives_zero_tps(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--kind", "write", "--lambda", "0",
                     "--duration", "10", "--out", str(out)]) == 0
        lines = (out / "timeline.csv").read_text().strip().split("\n")
        assert len(lines) == 11
        assert all(line.split(",")[2] == "0.0" for line in lines[1:])

    def test_tiny_rate_runs_without_warning(self, tmp_path, capsys):
        # the arrivals at 1e-320/s overflow to inf; the stream is empty
        out = tmp_path / "run"
        assert main(["simulate", "--kind", "write", "--lambda", "1e-320",
                     "--duration", "10", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        lines = (out / "timeline.csv").read_text().strip().split("\n")
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

    def test_partial_last_window_reads_the_offered_rate(self, tmp_path):
        # 10.5 s of 1 s windows ends in a half window, whose rate and cpu share
        # are per its own half second
        out = tmp_path / "run"
        assert main(["simulate", "--kind", "write", "--lambda", "100",
                     "--arrival", "deterministic", "--duration", "10.5",
                     "--out", str(out)]) == 0
        with (out / "timeline.csv").open() as fp:
            rows = list(csv.DictReader(fp))
        assert len(rows) == 11 and float(rows[-1]["window_start_s"]) == 10.0
        tps = float(rows[-1]["committed_write_tps"])
        assert (tps * 0.5).is_integer() and tps == pytest.approx(100.0, rel=0.02)
        for node in range(4):
            cpu = f"cpu_utilization_node{node}"
            assert float(rows[-1][cpu]) == pytest.approx(float(rows[-2][cpu]), rel=0.02)

    def test_window_starts_print_as_decimals(self, tmp_path):
        # 83 x 0.7 is 58.099999999999994 in floats; the start prints as 58.1
        out = tmp_path / "run"
        assert main(["simulate", "--kind", "write", "--lambda", "0", "--window", "0.7",
                     "--out", str(out)]) == 0
        with (out / "timeline.csv").open() as fp:
            starts = [row["window_start_s"] for row in csv.DictReader(fp)]
        assert starts[83] == "58.1"
        assert starts == [str(k * 7 / 10) for k in range(len(starts))]

    def test_timeline_header_is_the_column_names(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--kind", "write", "--lambda", "300", "--duration", "10",
                     "--out", str(out)]) == 0
        header = (out / "timeline.csv").read_text().split("\n", 1)[0]
        events = generate_events(ArrivalProcess(ArrivalKind.POISSON, 300.0, 0),
                                 TxKind.WRITE, 10.0)
        tl = run(default_cluster(), events, horizon=10.0)
        columns = tl.columns()
        assert list(columns) == header.split(",")
        assert all(len(values) == tl.n_windows for values in columns.values())

    @pytest.mark.parametrize("rate", ["-1", "nan", "inf"])
    def test_bad_lambda_names_the_flag(self, tmp_path, capsys, rate):
        out = tmp_path / "run"
        assert main(["simulate", "--kind", "write", "--lambda", rate, "--out", str(out)]) == 2
        assert "--lambda" in _one_error_line(capsys)
        assert not out.exists()

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

    def test_missing_out_dir(self, tmp_path, monkeypatch, capsys):
        # the output directory is --out alone; an environment variable is not read
        monkeypatch.setenv("CHAINCAP_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--kind", "write", "--lambda", "10"]) == 2
        assert _one_error_line(capsys) == ("error: chaincap simulate: the following arguments "
                                           "are required: --out\n")
        assert not (tmp_path / "envout").exists()


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

    def test_probe_past_the_event_cap_exits_2_before_simulating(self, capsys, monkeypatch):
        monkeypatch.setattr("chaincap.bench.run_trial", _no_search)
        assert main(["capacity", "--kind", "read", "--duration", "1500"]) == 2
        assert _one_error_line(capsys) == (
            "error: the read capacity search at 4 nodes would probe 21128.20512820513/s over "
            "1500.0 s, which expects 3.169e+07 events, more than the 30,000,000 one trial may "
            "hold; give a --duration of at most 1419 s\n")
        assert 21128.20512820513 * 1419 <= 30_000_000 < 21128.20512820513 * 1420

    def test_probe_past_the_event_cap_at_the_shortest_duration_asks_for_fewer_nodes(
            self, capsys, monkeypatch):
        # the 1000-node search's upper probe, which 10 windows, the shortest
        # duration, cannot hold, stops the sweep before the 4-node search runs
        monkeypatch.setattr("chaincap.bench.run_trial", _no_search)
        assert main(["capacity", "--kind", "read", "--duration", "10", "--nodes", "4,1000"]) == 2
        assert _one_error_line(capsys) == (
            "error: the read capacity search at 1000 nodes would probe 5282051.282051282/s "
            "over 10.0 s, which expects 5.282e+07 events, more than the 30,000,000 one trial "
            "may hold; even the shortest --duration, 10 s, does not fit; give fewer nodes\n")

    @pytest.mark.parametrize("kind,option", [
        (kind, option) for option in (["--start", "100"], ["--tolerance", "0.01"])
        for kind in ("write", "read", "both")
    ], ids=["write", "read", "both", "write-tolerance", "read-tolerance", "both-tolerance"])
    def test_start_is_a_usage_error(self, capsys, kind, option):
        # the write search's first probe and its tolerance are constants
        assert main(["capacity", "--kind", kind, *option]) == 2
        assert _one_error_line(capsys) == (f"error: chaincap: unrecognized arguments: "
                                           f"{' '.join(option)}\n")

    # below about 2e-302 us, N / read_service_us overflows to inf as well
    @pytest.mark.parametrize("argv,service_us", [
        (argv, service_us) for service_us in ("0", "1e-320") for argv in (
            ["capacity", "--kind", "read"],
            ["capacity", "--kind", "both"],
            ["assess", "--scenario", "aaa"])
    ], ids=["read", "both", "assess", "read-1e-320", "both-1e-320", "assess-1e-320"])
    def test_reads_that_take_no_time_exit_2(self, tmp_path, capsys, monkeypatch, argv,
                                            service_us):
        # an infinite service limit has no capacity to confirm, and no
        # --duration would help; no trial runs
        monkeypatch.setattr("chaincap.bench.run_trial", _no_search)
        profile = tmp_path / "instant_reads.ini"
        profile.write_text("[config]\nschema_version = 1\n\n[cluster]\n"
                           f"read_service_us = {service_us}\n")
        out = tmp_path / "out"
        assert main(argv + ["--cluster", str(profile), "--out", str(out)]) == 2
        assert _one_error_line(capsys).startswith(f"error: read_service_us = {service_us} ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        *(pytest.param(["--cluster", str(SLOW_CLUSTER), "--seed", seed], id=seed)
          for seed in ("0", "1", "2")),
        # one round's messages take 4002 s at 1000 nodes, so a 10 s probe commits no block
        pytest.param(["--nodes", "1000"], id="nodes-1000"),
    ])
    def test_cluster_that_cannot_carry_the_first_probe_exits_3(self, capsys, argv):
        assert main(["capacity", "--kind", "write", "--duration", "10", *argv]) == 3
        assert _one_error_line(capsys).startswith(
            "error: no steady operating point at the smallest probe rate 100.0")

    def test_write_search_prints_json(self, capsys, small_cluster_file):
        assert main(["capacity", "--kind", "write", "--cluster",
                     str(small_cluster_file), "--duration", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["node_count"] == 4
        assert doc["max_lambda_read"] is None
        assert doc["max_lambda_write"] > 0

    def test_profile_records_the_search_tolerance(self, capsys, small_cluster_file):
        assert main(["capacity", "--kind", "both", "--cluster",
                     str(small_cluster_file), "--duration", "20"]) == 0
        assert json.loads(capsys.readouterr().out)["search_tolerance"] == SEARCH_TOLERANCE


HUGE_READS = "[use_case:aaa:access_control]\nreads_per_event = 1" + "0" * 400


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
        # a value of the wrong JSON type for its key
        '{"schema_version": 1, "node_count": 4.7, "max_lambda_read": 20000, '
        '"max_lambda_write": 1400}',
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": true, '
        '"max_lambda_write": 1400}',
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": "20500", '
        '"max_lambda_write": 1400}',
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": 20000, '
        '"max_lambda_write": 1400, "search_tolerance": "0.01"}',
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": 20000, '
        '"max_lambda_write": 1400, "source": null}',
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": 20000, '
        '"max_lambda_write": 1400, "source": 5}',
        pytest.param('{"schema_version": 1, "node_count": 4, "max_lambda_read": 20000, '
                     '"max_lambda_write": 1' + "0" * 400 + '}', id="beyond-float-range"),
        pytest.param('{"schema_version": 1, "node_count": 4, "max_lambda_read": 20000, '
                     '"max_lambda_write": 1' + "0" * 5000 + '}', id="beyond-int-digit-limit"),
        # a search tolerance that is not finite, or is negative
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": 20000, '
        '"max_lambda_write": 1400, "search_tolerance": NaN}',
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": 20000, '
        '"max_lambda_write": 1400, "search_tolerance": 1e400}',
        '{"schema_version": 1, "node_count": 4, "max_lambda_read": 20000, '
        '"max_lambda_write": 1400, "search_tolerance": -5}',
        # a key the profile does not read
        pytest.param('{"schema_version": 1, "node_count": 4, "max_lambda_read": 20000, '
                     '"max_lambda_write": 1400, "search_tolerence": 0.5, "sourse": "lab"}',
                     id="unknown-keys"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-beyond-recursion-limit"),
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

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        out = tmp_path / "D"
        assert main(["assess", "--scenario", "aab", "--capacity", str(PAPER_CAPACITY_PATH),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: unknown scenario 'aab'; did you mean "
                                           f"'aaa'? (known: {KNOWN_IDS})\n")
        assert not out.exists()

    def test_capacity_beside_cluster_exits_2(self, tmp_path, capsys):
        # the cluster file would never be read, so even a missing one passed
        out = tmp_path / "a"
        assert main(["assess", "--scenario", "aaa", "--capacity", str(PAPER_CAPACITY_PATH),
                     "--cluster", str(tmp_path / "nope.ini"), "--out", str(out)]) == 2
        err = _one_error_line(capsys)
        assert "--capacity" in err and "--cluster" in err
        assert not out.exists()

    def test_seed_beside_capacity_exits_2(self, tmp_path, capsys):
        # no search runs on a capacity file, so the seed would shape nothing
        out = tmp_path / "a"
        assert main(["assess", "--scenario", "aaa", "--capacity", str(PAPER_CAPACITY_PATH),
                     "--seed", "7", "--out", str(out)]) == 2
        err = _one_error_line(capsys)
        assert "--seed" in err and "--capacity" in err
        assert not out.exists()

    def test_capacity_file_records_no_seed(self, tmp_path):
        out = tmp_path / "a"
        assert main(["assess", "--scenario", "aaa", "--capacity", str(PAPER_CAPACITY_PATH),
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seeds"] == {}

    def test_sweep_capacity_file_exits_2(self, tmp_path, capsys):
        # the capacity.json that capacity --nodes 4,5 writes
        profile = json.loads(PAPER_CAPACITY_PATH.read_text())
        sweep = {"schema_version": 1,
                 "profiles": [dict(profile, node_count=n) for n in (4, 5)]}
        path = tmp_path / "capacity.json"
        path.write_text(json.dumps(sweep))
        out = tmp_path / "a"
        assert main(["assess", "--scenario", "aaa", "--capacity", str(path),
                     "--out", str(out)]) == 2
        err = _one_error_line(capsys)
        assert str(path) in err and "--nodes sweep" in err and "one profile" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,override", [
        pytest.param(["--scenario", "aaa", "--eta", "1e308"], None, id="eta"),
        pytest.param(["--scenario", "aaa"], HUGE_READS, id="reads-per-event"),
        # public_key_mgmt comes before aaa in the catalog and is fine on its own
        pytest.param(["--scenario", "all"], HUGE_READS, id="all"),
    ])
    def test_non_finite_rate_exits_2(self, tmp_path, capsys, argv, override):
        if override:
            path = tmp_path / "overrides.ini"
            path.write_text("[config]\nschema_version = 1\n\n" + override + "\n")
            argv = argv + ["--overrides", str(path)]
        out = tmp_path / "a"
        assert main(["assess", "--capacity", str(PAPER_CAPACITY_PATH), *argv,
                     "--out", str(out)]) == 2
        # --scenario all warns of the scenarios it skips only once it succeeds
        assert _one_error_line(capsys).startswith("error: aaa: eta ")
        assert not out.exists()

    def test_non_numeric_override_eta_exits_2(self, tmp_path, capsys):
        path = tmp_path / "overrides.ini"
        path.write_text("[config]\nschema_version = 1\n\n[scenario:aaa]\neta = abc\n")
        out = tmp_path / "a"
        assert main(["assess", "--scenario", "aaa", "--capacity", str(PAPER_CAPACITY_PATH),
                     "--overrides", str(path), "--out", str(out)]) == 2
        assert _one_error_line(capsys) == (f"error: scenario override file {path}: "
                                           "[scenario:aaa] eta: expected a number, got 'abc'\n")
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["assess", "--scenario", "aaa", "--capacity", str(PAPER_CAPACITY_PATH)]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_outputs(a) == read_outputs(b)


class TestCampaignCommand:
    @pytest.mark.parametrize("kind,rates", [("write", "40,60"), ("read", "2000,3000")])
    def test_campaign_outputs(self, tmp_path, small_cluster_file, kind, rates):
        out = tmp_path / "c"
        assert main(["campaign", "--kind", kind, "--rates", rates,
                     "--cluster", str(small_cluster_file), "--trials", "2",
                     "--duration", "20", "--out", str(out)]) == 0
        csv_lines = (out / "campaign.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 5  # header + 2 rates x 2 trials
        doc = json.loads((out / "campaign.json").read_text())
        assert len(doc["aggregates"]) == 2
        with (out / f"fig_{kind}_4nodes.csv").open() as fp:
            header, *rows = csv.reader(fp)
        assert header == ["arrival_rate", "tps", "cpu_utilization", "latency_ms"]
        assert [[float(v) for v in row] for row in rows] == [
            [a["lambda_offered"], a["mean_tps"], a["mean_cpu"], a["mean_latency_ms"]]
            for a in doc["aggregates"]]

    def test_campaign_csv_trial_is_seed_offset(self, tmp_path, small_cluster_file):
        out = tmp_path / "c"
        assert main(["campaign", "--kind", "write", "--rates", "40,60",
                     "--cluster", str(small_cluster_file), "--trials", "2",
                     "--duration", "20", "--seed", "7", "--out", str(out)]) == 0
        with (out / "campaign.csv").open() as fp:
            rows = list(csv.DictReader(fp))
        assert [(r["trial"], r["seed"]) for r in rows] == [("0", "7"), ("1", "8")] * 2

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


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "write", "--lambda", "10"],
    ["campaign", "--kind", "write", "--rates", "400"],
    ["assess", "--scenario", "aaa", "--capacity", str(PAPER_CAPACITY_PATH)],
    ["capacity", "--kind", "write"],
])
def test_empty_out_names_no_directory(tmp_path, monkeypatch, capsys, argv):
    # an empty --out would write into the cwd; capacity prints its JSON only
    # when --out is omitted
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", ""]) == 2
    assert _one_error_line(capsys) == "error: --out must name a directory, got ''\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["campaign", "--kind", "write", "--duration", "10"],  # warns of its empty rate list
    ["assess", "--scenario", "all", "--capacity", str(PAPER_CAPACITY_PATH)],  # of skips
])
def test_a_command_that_would_warn_prints_only_its_error_when_it_fails(tmp_path, capsys,
                                                                        argv):
    taken = tmp_path / "file"
    taken.touch()
    assert main(argv + ["--out", str(taken / "out")]) == 2
    assert "cannot create output directory" in _one_error_line(capsys)


def _no_draws(self):
    raise AssertionError("no uniforms may be drawn for rejected input")


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "write", "--lambda", "1e12"],
    ["simulate", "--kind", "read", "--lambda", "1e12", "--duration", "1e-3"],
    ["campaign", "--kind", "write", "--rates", "400,1e12"],
    ["capacity", "--kind", "read", "--duration", "1500"],
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
    (str(MAX_CELLS // 4 + 1), "1"),  # one window above the cap
])
def test_bad_window_exits_2_before_drawing(tmp_path, capsys, monkeypatch, duration, window):
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(["simulate", "--kind", "write", "--lambda", "1", "--duration", duration,
                 "--window", window, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "window" in err and len(err.strip().split("\n")) == 1
    assert not out.exists()


def _no_rounds(*args):
    raise AssertionError("no round may be simulated for rejected input")


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "write", "--lambda", "0", "--duration", "1e9", "--window", "1e4"],
    # 2e5 s at one block per 100 ms is 2M proposals; the campaign would draw
    # 10M arrivals and the search 20M before the cap inside run rejects them
    ["campaign", "--kind", "write", "--rates", "50", "--duration", "2e5"],
    ["capacity", "--kind", "write", "--duration", "2e5"],
])
def test_too_many_blocks_exits_2_before_drawing(tmp_path, capsys, monkeypatch, argv):
    # a missing guard fails on the first draw or the first round, not hours later
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    monkeypatch.setattr(chainsim, "round_bases_ms", _no_rounds)
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 2
    assert "block proposals" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("node_count,argv,message", [
    (MAX_NODES + 1, [], "node_count must be <="),
    # MAX_NODES rows of cpu work over more than MAX_CELLS / MAX_NODES windows
    (MAX_NODES, ["--duration", str(MAX_CELLS // MAX_NODES + 1)], "cpu table"),
])
def test_too_many_nodes_in_profile_exits_2(tmp_path, capsys, monkeypatch, node_count, argv,
                                           message):
    # a missing bound fails on the first round, not after N^2 work per proposer
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    monkeypatch.setattr(chainsim, "round_bases_ms", _no_rounds)
    profile = tmp_path / "big.ini"
    profile.write_text(f"[config]\nschema_version = 1\n\n[cluster]\nnode_count = {node_count}\n")
    out = tmp_path / "d"
    assert main(["simulate", "--kind", "write", "--lambda", "10", "--cluster", str(profile),
                 "--out", str(out)] + argv) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


def test_too_many_nodes_exits_2_before_searching(tmp_path, capsys, monkeypatch):
    # every node count is checked before the 4-node search runs its first round
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    monkeypatch.setattr(chainsim, "round_bases_ms", _no_rounds)
    out = tmp_path / "d"
    assert main(["capacity", "--kind", "write", "--nodes", f"4,{MAX_NODES + 1}",
                 "--out", str(out)]) == 2
    assert "node_count must be <=" in _one_error_line(capsys)
    assert not out.exists()


WRITES_20S = ["--kind", "write", "--lambda", "10", "--duration", "20"]
# after a [cluster] that sets nothing: a 4-node [rtt_matrix] without its node3 row
RTT_ROWS = "\n[rtt_matrix]\nnode0 = 0,1,1,1\nnode1 = 1,0,1,1\nnode2 = 1,1,0,1\n"
# one block commits near 0.22 s, and its cpu work in a 1e-5 s window overflows
# a capacity of 1e-300
WRITES_1E5_WINDOWS = ["--kind", "write", "--lambda", "10", "--duration", "0.3",
                      "--window", "1e-5"]


@pytest.mark.parametrize("keys,argv,message", [
    # an int64 overflow in the block fills or the ledger, or a ledger that
    # wraps negative from window 11
    (f"block_tx_capacity = {2**63}", WRITES_20S, "a full block"),
    (f"empty_block_bytes = {2**63}", WRITES_20S, "a full block"),
    ("empty_block_bytes = 100000000000000000", WRITES_20S, "a full block"),
    # the block interval in seconds underflowed to 0
    ("block_interval_ms = 5e-324", WRITES_20S, "block proposals"),
    # NaN cpu cells from 0 / 0, or an overflowing cpu share
    ("node_cpu_capacity = 5e-324", WRITES_1E5_WINDOWS, "node_cpu_capacity must be >= 1"),
    ("node_cpu_capacity = 1e-300", WRITES_1E5_WINDOWS, "node_cpu_capacity must be >= 1"),
    # reads that complete far past the run, and are binned past it: the
    # window cast, the latency multiply and the window divide overflowed
    ("read_service_us = 1e300", ["--kind", "read", "--lambda", "10", "--duration", "10"],
     None),
    ("read_service_us = 1.7e308", ["--kind", "read", "--lambda", "20000", "--duration", "10"],
     None),
    ("read_service_us = 1.7e308",
     ["--kind", "read", "--lambda", "1000", "--duration", "0.05", "--window", "1e-5"], None),
    # past a million reads at one node, the FIFO's service time sums overflow
    ("read_service_us = 1.7e308\nread_mode = single",
     ["--kind", "read", "--lambda", "110000", "--duration", "10"], None),
    # values and RTT rows the profile rejects, each named in its one line
    ("block_tx_capacity = 0", WRITES_20S, "block_tx_capacity must be >= 1, got 0"),
    ("empty_block_bytes = -1", WRITES_20S, "empty_block_bytes must be >= 0, got -1"),
    ("read_mode = Multi", WRITES_20S, "read_mode must be 'multi' or 'single', got 'Multi'"),
    ("node_count = 4.0", WRITES_20S, "[cluster] node_count: expected int, got '4.0'"),
    (RTT_ROWS, WRITES_20S, "[rtt_matrix]: missing row 'node3'"),
    (RTT_ROWS.replace("1,0,1,1", "1,0,x,1") + "node3 = 1,1,1,0\n", WRITES_20S,
     "[rtt_matrix] node1: expected comma-separated floats"),
    (RTT_ROWS + "node3 = 1,1,1,0\nnode4 = 1,1,1,1\n", WRITES_20S,
     "[rtt_matrix]: unexpected rows ['node4']"),
])
def test_cluster_value_out_of_range_exits_2_or_runs_clean(tmp_path, capsys, keys, argv, message):
    profile = tmp_path / "p.ini"
    profile.write_text(f"[config]\nschema_version = 1\n\n[cluster]\n{keys}\n")
    out = tmp_path / "d"
    code = main(["simulate", "--cluster", str(profile), "--out", str(out)] + argv)
    if message is not None:
        assert code == 2
        assert message in _one_error_line(capsys)
        assert not out.exists()
        return
    assert code == 0 and capsys.readouterr().err == ""
    rows = (out / "timeline.csv").read_text().strip().split("\n")[1:]
    cells = [float(cell) for row in rows for cell in row.split(",")]
    assert all(math.isfinite(cell) and cell >= 0 for cell in cells)


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2
    assert _one_error_line(capsys) == ("error: chaincap: the following arguments are "
                                       "required: command\n")


def test_parser_defaults_are_the_bench_constants():
    parser = build_parser()
    capacity = parser.parse_args(["capacity", "--kind", "write"])
    assert capacity.duration == DESK_DURATION_S
    simulate = parser.parse_args(["simulate", "--kind", "write", "--lambda", "1", "--out", "o"])
    assert simulate.window == WINDOW_S
    assert simulate.arrival == ArrivalKind.POISSON.value
    campaign = parser.parse_args(["campaign", "--kind", "write", "--out", "o"])
    assert campaign.trials == DESK_TRIALS
    # the library's campaign shape and the command's are one default
    spec_defaults = {f.name: f.default for f in dataclasses.fields(CampaignSpec)}
    assert (campaign.trials, campaign.duration) == (spec_defaults["trials"],
                                                    spec_defaults["duration_s"])


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


@pytest.mark.parametrize("argv", [
    ["capacity", "--kind", "read"],
    ["capacity", "--kind", "write"],
    ["campaign", "--kind", "write", "--rates", "400"],
])
def test_fractional_duration_exits_2(tmp_path, capsys, monkeypatch, argv):
    # a partial last window would read low and could fail a steady probe
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(argv + ["--duration", "10.5", "--out", str(out)]) == 2
    assert "whole number of 1.0 s windows, got 10.5" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["capacity", "--kind", "write"],
    ["campaign", "--kind", "write", "--rates", "400"],
])
def test_duration_past_the_cpu_table_cap_exits_2(tmp_path, capsys, monkeypatch, argv):
    # neither command has a --window, so the advice must name the duration
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(argv + ["--duration", "2e6", "--out", str(out)]) == 2
    assert "cells one run may hold; shorten the duration" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv,seeds", [
    (["capacity", "--kind", "write"], {"base_seed": 0}),
    (["campaign", "--kind", "write", "--rates", "10", "--trials", "1", "--duration", "10"],
     {"base_seed": 0}),
    (["assess", "--scenario", "aaa"], {"base_seed": 0}),  # searched on the cluster
])
def test_omitted_seed_is_zero(tmp_path, monkeypatch, argv, seeds):
    profile = CapacityProfile.from_json_dict(json.loads(PAPER_CAPACITY_PATH.read_text()))
    searched = []
    monkeypatch.setattr("chaincap.cli.sweep_nodes",
                        lambda *args, base_seed, **kwargs: searched.append(base_seed) or [profile])
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seeds"] == seeds
    assert searched in ([], [0])


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


@pytest.mark.parametrize("rates,trials,message", [
    ("400,0", "2", "trial rate must be > 0"),
    ("400", "0", "--trials must be >= 1, got 0"),
    # the cap on trials x rates: without it this campaign would never end
    pytest.param("400", "9" * 30, "trials must be <= 1,000,000 at 1 rates, as one campaign "
                 f"may run 1,000,000 trials, got {'9' * 30}", id="trial-cap"),
])
def test_campaign_zero_rate_or_trials_exits_2_before_drawing(tmp_path, capsys, monkeypatch,
                                                             rates, trials, message):
    # a campaign the trials would reject must stop before its first trial
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(["campaign", "--kind", "write", "--rates", rates, "--trials", trials,
                 "--out", str(out)]) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["campaign", "--kind", "write", "--rates", "400,800,400.0", "--trials", "2"],
     "campaign rates must be distinct"),
    (["capacity", "--kind", "write", "--nodes", "4,5,4"], "node counts must be distinct"),
    # 1000 nodes over 4001 windows overflow the cpu table: checked before the 4-node search
    (["capacity", "--kind", "write", "--nodes", "4,1000", "--duration", "4001"], "cpu table"),
])
def test_repeated_grid_value_exits_2_before_drawing(tmp_path, capsys, monkeypatch, argv,
                                                     message):
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


def _subclasses(cls) -> set:
    return {c for sub in cls.__subclasses__() for c in {sub} | _subclasses(sub)}


def test_one_error_class_per_exit_code(capsys, monkeypatch):
    assert _subclasses(ChaincapError) == {InputError, CalibrationError}
    for error, code in ((InputError, 2), (CalibrationError, 3)):
        def fail(args):
            raise error("one line")
        monkeypatch.setattr("chaincap.cli.cmd_scenarios", fail)
        assert main(["scenarios", "list"]) == code
        assert _one_error_line(capsys) == "error: one line\n"


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    # an in-process caller of main, such as this suite or perfbench, pays for
    # the parser once, and a rejected command line leaves nothing in it that
    # changes what the next one does
    paper, out = str(PAPER_CAPACITY_PATH), str(tmp_path / "a")
    valid = [["scenarios", "show", "aaa", "--json"],
             ["assess", "--scenario", "aaa", "--eta", "3", "--capacity", paper, "--out", out]]
    rejected = [["capacity", "--kind", "write", "--seed", "abc"],
                ["assess", "--scenario", "aaa", "--eta", "abc", "--capacity", paper,
                 "--out", out],
                ["scenarios", "show"],
                ["scenarios", "list", "--bogus"]]

    def outcomes():
        return [(main(argv), capsys.readouterr().out) for argv in valid]

    cli._main_parser.cache_clear()
    alone = outcomes()
    assert [code for code, _ in alone] == [0, 0]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in rejected:
        assert main(argv) == 2
        _one_error_line(capsys)
        assert outcomes() == alone
    assert built == []


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


@pytest.mark.parametrize("document", [
    pytest.param("not ini\n", id="no-section-header"),
    pytest.param("[config]\nschema_version = 1\nnot ini\n", id="unparseable-line"),
    pytest.param("[config]\nschema_version = 1\n[config]\nschema_version = 1\n",
                 id="repeated-section"),
    pytest.param("[config]\nschema_version = 1\nschema_version = 1\n", id="repeated-key"),
    pytest.param("[config]\nschema_version = 2\n", id="schema-version-2"),
    pytest.param("[config]\nschema_version = 1\nfoo = 1\n", id="extra-config-key"),
])
@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--kind", "write", "--lambda", "10", "--cluster"], id="cluster"),
    pytest.param(["assess", "--scenario", "aaa", "--capacity", str(PAPER_CAPACITY_PATH),
                  "--overrides"], id="overrides"),
])
def test_malformed_ini_exits_2_naming_the_file(tmp_path, capsys, monkeypatch, argv, document):
    monkeypatch.setattr(ArrivalProcess, "rng", _no_draws)
    path = tmp_path / "input.ini"
    path.write_text(document)
    out = tmp_path / "d"
    assert main(argv + [str(path), "--out", str(out)]) == 2
    assert str(path) in _one_error_line(capsys)
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang: str, after: str = "") -> list[str]:
    text = README.read_text()
    return re.findall(rf"```{lang}\n(.*?)```", text[text.index(after):], re.S)


QUICK_START = [line for line in _readme_blocks("sh", "## Quick start")[0].splitlines()
               if line.startswith("chaincap ")]


@pytest.mark.parametrize("line", QUICK_START)
def test_readme_quick_start_line_exits_0(tmp_path, monkeypatch, line):
    # outputs go under tmp_path; other relative paths are the repository's
    argv = [str(tmp_path / a) if a.startswith("runs/") else str(README.parent / a) if "/" in a
            else a for a in shlex.split(line)[1:]]
    assert main(argv) == 0


def test_readme_quick_start_is_found():
    assert len(QUICK_START) == 8


def test_readme_ini_examples_load():
    cluster, overrides = _readme_blocks("ini")
    assert load_cluster(cluster) == ClusterConfig()
    assert load_scenarios(overrides) != builtin_scenarios()


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


# --- drawn argv --------------------------------------------------------------

# tokens that are bad for most flags: non-finite, negative, empty, huge, malformed
BAD_TOKENS = st.sampled_from(["nan", "NaN", "inf", "-inf", "-1", "0", "", "1e309", "9" * 30,
                              "9" * 5000, "abc", ",", "4,", "4,,5", "0x10", "1e-320", "-0"])


def _flag(name, values):
    """``[name, value]``, mostly with a value drawn from ``values``, else with
    a bad token; or nothing."""
    def given_as(tokens):
        return st.tuples(st.just(name), tokens).map(list)
    return st.one_of(given_as(values), given_as(values), given_as(values), given_as(BAD_TOKENS),
                     st.just([]))


def _positional(values):
    """``[value]``, drawn as :func:`_flag` draws a flag's value; or nothing."""
    return _flag("", values).map(lambda tokens: tokens[1:])


def _switch(name):
    return st.sampled_from([[], [name]])


def _argv(command, *flags):
    """``[command, ...]`` with each drawn flag's tokens in turn."""
    return st.tuples(*flags).map(lambda drawn: [command] + [t for flag in drawn for t in flag])


# paths under "{tmp}", a fresh directory per draw that holds OVERRIDES and a
# file named "file", under which no output directory can be made
OVERRIDES = "[config]\nschema_version = 1\n\n[scenario:aaa]\neta = 50\n"
SEED_FLAG = _flag("--seed", st.integers(-1, 2**64).map(str))
ARRIVAL_FLAG = _flag("--arrival", st.sampled_from([a.value for a in ArrivalKind]))
CLUSTER_FLAG = _flag("--cluster", st.sampled_from([str(SLOW_CLUSTER), str(ASYMMETRIC_CLUSTER)]))
OVERRIDES_FLAG = _flag("--overrides", st.just("{tmp}/overrides.ini"))
OUT_FLAG = st.sampled_from([["--out", "{tmp}/out"]] * 3
                           + [[], ["--out", ""], ["--out", "{tmp}/file/out"]])
KIND_FLAG = _flag("--kind", st.sampled_from([k.value for k in TxKind]))

CAPACITY_ARGV = _argv(
    "capacity",
    _flag("--kind", st.sampled_from(["read", "write", "both"])),
    _flag("--nodes", st.lists(st.sampled_from([3, 4, 5, 7, 10, MAX_NODES, MAX_NODES + 1]),
                              min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns)))),
    _flag("--duration", st.one_of(st.sampled_from(["10", "60", "10.5", "9", "1e5", "1e6"]),
                                  st.floats(allow_nan=False).map(repr))),
    SEED_FLAG, ARRIVAL_FLAG)

# simulate draws real streams, so its valid rates and durations are small:
# an idle 1e5 s run alone takes over a second
SIMULATE_ARGV = _argv(
    "simulate", KIND_FLAG,
    _flag("--lambda", st.one_of(st.sampled_from(["0", "1e-320"]),
                                st.floats(0, 3000).map(repr))),
    _flag("--duration", st.sampled_from(["1", "10", "20", "0.5"])),
    _flag("--window", st.sampled_from(["1", "0.5", "2.5", "0.1"])),
    SEED_FLAG, ARRIVAL_FLAG, CLUSTER_FLAG, OUT_FLAG)

CAMPAIGN_ARGV = _argv(
    "campaign", KIND_FLAG,
    _flag("--rates", st.lists(st.sampled_from(["0", "1", "400", "1400", "2800", "1e-320"]),
                              max_size=3).map(",".join)),
    _flag("--trials", st.integers(-1, 3).map(str)),
    _flag("--duration", st.sampled_from(["10", "60", "10.5", "9", "1e5", "1e6"])),
    SEED_FLAG, ARRIVAL_FLAG, CLUSTER_FLAG, OUT_FLAG)

ASSESS_ARGV = _argv(
    "assess",
    _flag("--scenario", st.sampled_from([*builtin_scenarios(), "all", "aab"])),
    _flag("--eta", st.one_of(st.sampled_from(["0", "50", "1e300"]),
                             st.floats(0, 1e4).map(repr))),
    # --capacity takes the place of a search, and so of --seed and --cluster
    st.one_of(_flag("--capacity", st.just(str(PAPER_CAPACITY_PATH))),
              st.tuples(SEED_FLAG, CLUSTER_FLAG).map(lambda flags: flags[0] + flags[1])),
    OVERRIDES_FLAG, _switch("--text"), OUT_FLAG)

SCENARIOS_ARGV = _argv(
    "scenarios",
    _positional(st.sampled_from(["list", "show"])),
    _positional(st.sampled_from([*builtin_scenarios(), "aab"])),
    _switch("--json"), OVERRIDES_FLAG)


def _fluid_trial(cluster, kind, arrival_kind, lam, duration_s, seed, draws=None):
    """A trial that serves the offered rate up to the capacity bound."""
    tps = min(lam, capacity_bound(cluster, kind))
    steady = detect_steady_state(lam, tps)
    summary = bench.TrialSummary(lam, tps, 0.0, 0.0, steady, seed)
    return SimpleNamespace(mean_tps=tps, steady=steady, summary=lambda: summary)


def _exits_cleanly(argv, stub_trials=True):
    """main(argv) exits 0, 2 or 3: a failure with one ``error:`` line on
    stderr, a success with ``warning:`` lines at most.  A RuntimeWarning or
    any exception out of main fails.  With ``stub_trials``, every trial is
    fluid and draws nothing."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        Path(tmp, "file").touch()
        Path(tmp, "overrides.ini").write_text(OVERRIDES)
        argv = [token.replace("{tmp}", tmp) for token in argv]
        if stub_trials:
            stack.enter_context(mock.patch.object(bench, "run_trial", _fluid_trial))
            stack.enter_context(mock.patch.object(bench.UnitDraws, "reserve",
                                                  lambda *args: None))
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("error", RuntimeWarning)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), (argv, code, lines)
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    else:
        assert all(line.startswith("warning: ") for line in lines), (argv, lines)


@settings(max_examples=150, deadline=None)
@given(argv=CAPACITY_ARGV)
def test_drawn_capacity_argv_exits_cleanly(argv):
    _exits_cleanly(argv)


@settings(max_examples=40, deadline=None)
@given(argv=SIMULATE_ARGV)
def test_drawn_simulate_argv_exits_cleanly(argv):
    # generate_times reads the epochs that UnitDraws.reserve returns
    _exits_cleanly(argv, stub_trials=False)


@settings(max_examples=60, deadline=None)
@given(argv=CAMPAIGN_ARGV)
def test_drawn_campaign_argv_exits_cleanly(argv):
    _exits_cleanly(argv)


@settings(max_examples=60, deadline=None)
@given(argv=ASSESS_ARGV)
def test_drawn_assess_argv_exits_cleanly(argv):
    _exits_cleanly(argv)


@settings(max_examples=60, deadline=None)
@given(argv=SCENARIOS_ARGV)
def test_drawn_scenarios_argv_exits_cleanly(argv):
    _exits_cleanly(argv)
