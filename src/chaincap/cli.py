"""Command-line front end.

Subcommands: ``scenarios`` (catalog inspection), ``simulate`` (one run),
``capacity`` (max-rate search / node sweep), ``campaign`` (multi-trial
Poisson experiments), and ``assess`` (suitability verdicts).  Every command
that writes an output directory also writes a ``manifest.json`` recording
the command line, input digests, seeds and produced files.

Exit codes: 0 success, 2 usage/config error, 3 runtime/calibration error.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .arrival import ArrivalKind, ArrivalProcess, TxKind, generate_events
from .assess import methodology_report, render_report_text
from .bench import (
    CampaignSpec,
    CapacityProfile,
    DESK_DURATION_S,
    DESK_TRIALS,
    PAPER_DURATION_S,
    PAPER_TRIALS,
    campaign_json_dict,
    find_max_lambda,  # unused here; perfbench/spans.py patches this name
    run_campaign,
    sweep_nodes,
    write_campaign_csv,
    write_plot_data_csv,
)
from .chainsim import default_cluster, load_cluster, run, window_count
from .errors import (
    CalibrationError,
    ChaincapError,
    ConfigError,
    ContractError,
    DomainError,
    InputError,
    SchemaError,
)
from .scenarios import (
    ScenarioId,
    builtin_scenarios,
    load_scenarios,
    scenario_by_id,
)

PAPER_CAPACITY_PATH = Path(__file__).parent / "data" / "paper.json"


# --- manifest --------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class OutputDir:
    """Collects produced files and writes the run manifest on close.

    The directory is created by the first write, so a command that fails
    before writing anything leaves no directory behind.
    """

    def __init__(self, out_dir: Path, argv: list[str], seeds: dict):
        self.dir = out_dir
        self.argv = argv
        self.seeds = seeds
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.started = _utc_now()

    def record_input(self, path: Path) -> None:
        self.inputs[str(path)] = _sha256(path)

    def _write(self, name: str, text: str) -> Path:
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create output directory {self.dir}: "
                             f"{exc.strerror}") from None
        path = self.dir / name
        try:
            path.write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from None
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self._write(name, text)
        self.outputs.append(name)
        return path

    def write_json(self, name: str, doc: dict) -> Path:
        return self.write_text(name, json.dumps(doc, indent=2) + "\n")

    def finish(self) -> None:
        manifest = {
            "schema_version": 1,
            "tool": "chaincap",
            "version": __version__,
            "argv": self.argv,
            "seeds": self.seeds,
            "input_digests": self.inputs,
            "outputs": sorted(self.outputs),
            "started_utc": self.started,
            "finished_utc": _utc_now(),
        }
        self._write("manifest.json", json.dumps(manifest, indent=2) + "\n")


# --- shared option handling ------------------------------------------------

def _read_input(path: str, what: str, manifest: OutputDir | None) -> str:
    """The text of an input file, recorded in the manifest when there is one."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{what} not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path} is not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from None
    if manifest:
        manifest.record_input(path)
    return text


def _load_cluster_arg(args, manifest: OutputDir | None = None):
    if getattr(args, "cluster", None):
        return load_cluster(_read_input(args.cluster, "cluster profile", manifest))
    return default_cluster()


def _load_catalog_arg(args, manifest: OutputDir | None = None):
    if getattr(args, "overrides", None):
        return load_scenarios(_read_input(args.overrides, "scenario override file", manifest))
    return builtin_scenarios()


def _output_dir(args, seeds: dict) -> OutputDir | None:
    """The OutputDir named by --out or CHAINCAP_OUT, or None if neither is set."""
    out = args.out or os.environ.get("CHAINCAP_OUT")
    return OutputDir(Path(out), args.argv, seeds) if out else None


def _required_output_dir(args, seeds: dict) -> OutputDir:
    manifest = _output_dir(args, seeds)
    if manifest is None:
        raise InputError("an output directory is required (--out or CHAINCAP_OUT)")
    return manifest


def _parse_list(raw: str | None, conv, flag: str) -> list:
    """A comma-separated option value as a list of ``conv`` values."""
    if not raw:
        return []
    try:
        return [conv(v) for v in raw.split(",")]
    except ValueError:
        raise InputError(f"{flag} must be comma-separated {conv.__name__} values, "
                         f"got {raw!r}") from None


def _parse_scenario_id(raw: str) -> ScenarioId:
    try:
        return ScenarioId(raw)
    except ValueError:
        known = [s.value for s in ScenarioId]
        close = difflib.get_close_matches(raw, known, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise InputError(f"unknown scenario {raw!r}{hint} (known: {', '.join(known)})") from None


# --- scenarios -------------------------------------------------------------

def _scenario_dict(spec) -> dict:
    return {
        "id": spec.id.value,
        "default_eta": spec.default_eta,
        "reads_per_event": spec.reads_per_event,
        "writes_per_event": spec.writes_per_event,
        "notes": spec.notes,
        "use_cases": [
            {
                "name": uc.name,
                "reads_per_event": uc.reads_per_event,
                "writes_per_event": uc.writes_per_event,
                "write_payload_bytes": uc.write_payload_bytes,
                "trigger": uc.trigger,
            }
            for uc in spec.use_cases
        ],
    }


def cmd_scenarios(args) -> int:
    catalog = _load_catalog_arg(args)
    if args.action == "list":
        if args.json:
            print(json.dumps([_scenario_dict(s) for s in catalog], indent=2))
        else:
            print(f"{'id':<22} {'reads/ev':>8} {'writes/ev':>9} {'eta':>10}  use cases")
            for s in catalog:
                eta = "-" if s.default_eta is None else repr(s.default_eta)
                print(f"{s.id.value:<22} {s.reads_per_event:>8} {s.writes_per_event:>9} "
                      f"{eta:>10}  {', '.join(uc.name for uc in s.use_cases)}")
        return 0
    spec = scenario_by_id(_parse_scenario_id(args.id), catalog)
    if args.json:
        print(json.dumps(_scenario_dict(spec), indent=2))
    else:
        print(f"Scenario: {spec.id.value}")
        if spec.default_eta is not None:
            print(f"Default eta: {spec.default_eta} events/s")
        print(f"Why on-chain: {spec.notes}")
        print(f"Per event: {spec.reads_per_event} read(s), {spec.writes_per_event} write(s)")
        for uc in spec.use_cases:
            print(f"  - {uc.name}: {uc.reads_per_event} R / {uc.writes_per_event} W, "
                  f"{uc.write_payload_bytes} B per write")
            if uc.trigger:
                print(f"      when: {uc.trigger}")
    return 0


# --- simulate --------------------------------------------------------------

def cmd_simulate(args) -> int:
    manifest = _required_output_dir(args, seeds={"seed": args.seed})
    cluster = _load_cluster_arg(args, manifest)
    kind = TxKind(args.kind)
    arrival_kind = ArrivalKind(args.arrival)
    if args.rate < 0:
        raise DomainError(f"--lambda must be >= 0, got {args.rate}")
    process = ArrivalProcess(kind=arrival_kind, rate=args.rate, seed=args.seed)
    window_count(args.duration, args.window)  # reject a bad window before drawing
    events = generate_events(process, kind, args.duration)
    timeline = run(cluster, events, horizon=args.duration, window_s=args.window)
    buf = io.StringIO()
    timeline.to_csv(buf)
    path = manifest.write_text("timeline.csv", buf.getvalue())
    manifest.finish()
    print(f"wrote {path} "
          f"({timeline.committed_writes} writes committed, "
          f"{timeline.served_reads} reads served)")
    return 0


# --- capacity --------------------------------------------------------------

def cmd_capacity(args) -> int:
    node_counts = _parse_list(args.nodes, int, "--nodes")
    manifest = _output_dir(args, seeds={"base_seed": args.seed})
    cluster = _load_cluster_arg(args, manifest)
    if cluster.rtt_matrix_ms is not None and set(node_counts) - {cluster.node_count}:
        raise InputError(f"--nodes {args.nodes} cannot rescope the profile's "
                         f"{cluster.node_count}x{cluster.node_count} [rtt_matrix]; "
                         "give one profile per node count instead")
    kinds = (TxKind.READ, TxKind.WRITE) if args.kind == "both" else (TxKind(args.kind),)
    profiles = sweep_nodes(cluster, node_counts or [cluster.node_count], kinds,
                           ArrivalKind(args.arrival), tolerance=args.tolerance,
                           duration_s=args.duration, base_seed=args.seed, start=args.start)

    # an axis the JSON leaves null (never searched) is an empty cell
    columns = ["node_count", "max_lambda_read", "max_lambda_write", "search_tolerance"]
    docs = [p.to_json_dict() for p in profiles]
    csv_lines = [",".join(columns)]
    csv_lines += [",".join("" if d[c] is None else repr(d[c]) for c in columns) for d in docs]
    csv_text = "\n".join(csv_lines) + "\n"
    doc = docs[0] if len(docs) == 1 else {"schema_version": 1, "profiles": docs}

    if manifest:
        manifest.write_json("capacity.json", doc)
        manifest.write_text("capacity.csv", csv_text)
        manifest.finish()
        print(f"wrote {manifest.dir / 'capacity.json'}")
    else:
        print(json.dumps(doc, indent=2))
    return 0


# --- campaign --------------------------------------------------------------

def cmd_campaign(args) -> int:
    manifest = _required_output_dir(args, seeds={"base_seed": args.seed})
    cluster = _load_cluster_arg(args, manifest)
    rates = tuple(_parse_list(args.rates, float, "--rates"))
    trials = PAPER_TRIALS if args.paper else args.trials
    duration = PAPER_DURATION_S if args.paper else args.duration
    spec = CampaignSpec(cluster=cluster, kind=TxKind(args.kind), rates=rates,
                        arrival_kind=ArrivalKind(args.arrival), trials=trials,
                        duration_s=duration, base_seed=args.seed)
    result = run_campaign(spec)
    if not rates:
        print("warning: empty rate list, vacuous campaign", file=sys.stderr)
    buf = io.StringIO()
    write_campaign_csv(result, buf)
    manifest.write_text("campaign.csv", buf.getvalue())
    manifest.write_json("campaign.json", campaign_json_dict(result))
    buf = io.StringIO()
    write_plot_data_csv(result, buf)
    manifest.write_text(f"fig_{args.kind}_{cluster.node_count}nodes.csv", buf.getvalue())
    manifest.finish()
    print(f"wrote campaign results to {manifest.dir}")
    return 0


# --- assess ----------------------------------------------------------------

def _load_capacity(args, manifest: OutputDir | None) -> CapacityProfile:
    if args.capacity:
        text = _read_input(args.capacity, "capacity file", manifest)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"capacity file {args.capacity} is not JSON: {exc}") from None
        return CapacityProfile.from_json_dict(doc)
    # fall back to a simulator-driven search on the configured cluster
    cluster = _load_cluster_arg(args, manifest)
    return sweep_nodes(cluster, [cluster.node_count], (TxKind.READ, TxKind.WRITE),
                       base_seed=args.seed)[0]


def cmd_assess(args) -> int:
    manifest = _required_output_dir(args, seeds={"base_seed": args.seed})
    catalog = _load_catalog_arg(args, manifest)
    capacity = _load_capacity(args, manifest)

    if args.scenario == "all":
        specs = []
        for spec in catalog:
            if args.eta is None and spec.default_eta is None:
                print(f"warning: skipping {spec.id.value}: eta required and no "
                      "default is shipped", file=sys.stderr)
                continue
            specs.append(spec)
    else:
        specs = [scenario_by_id(_parse_scenario_id(args.scenario), catalog)]

    summary_rows = ["scenario,use_case,lambda_read,lambda_write,read_ok,write_ok,"
                    "headroom_read,headroom_write"]
    for spec in specs:
        report = methodology_report(spec, args.eta, capacity)
        manifest.write_json(f"verdict_{spec.id.value}.json", report)
        if args.text:
            print(render_report_text(report))
        # floats format as their repr; an infinite headroom is already "inf"
        v = report["comparison"]
        summary_rows.append(
            f"{spec.id.value},,{v['lambda_read']},{v['lambda_write']},"
            f"{int(v['read_ok'])},{int(v['write_ok'])},{v['headroom_read']},{v['headroom_write']}")
        label = "suitable" if v["suitable"] else "unsuitable"
        print(f"{spec.id.value}: {label} "
              f"(lambda_read={v['lambda_read']}, lambda_write={v['lambda_write']})")
    manifest.write_text("summary.csv", "\n".join(summary_rows) + "\n")
    manifest.finish()
    return 0


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincap",
        description="Capacity assessment for consortium-blockchain 6G workloads.")
    parser.add_argument("--version", action="version", version=f"chaincap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenarios", help="inspect the scenario catalog")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("id", nargs="?", help="scenario id (for 'show')")
    p.add_argument("--json", action="store_true")
    p.add_argument("--overrides", help="scenario override file (INI)")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("simulate", help="run one simulation and export the timeline")
    p.add_argument("--cluster", help="cluster profile file (INI); default: shipped profile")
    p.add_argument("--kind", choices=["read", "write"], required=True)
    p.add_argument("--lambda", dest="rate", type=float, required=True,
                   help="offered arrival rate (tx/s)")
    p.add_argument("--arrival", choices=["poisson", "deterministic"], default="poisson")
    p.add_argument("--duration", type=float, default=DESK_DURATION_S, help="seconds")
    p.add_argument("--window", type=float, default=1.0, help="metrics window (s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (or CHAINCAP_OUT)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("capacity", help="find maximum sustainable arrival rates")
    p.add_argument("--cluster", help="cluster profile file (INI)")
    p.add_argument("--kind", choices=["read", "write", "both"], required=True)
    p.add_argument("--nodes", help="comma-separated node counts, e.g. 4,5,6,7")
    p.add_argument("--arrival", choices=["poisson", "deterministic"], default="poisson")
    p.add_argument("--duration", type=float, default=DESK_DURATION_S,
                   help="seconds per probe run")
    p.add_argument("--tolerance", type=float, default=0.01,
                   help="relative bisection tolerance")
    p.add_argument("--start", type=float, default=100.0, help="first probe rate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (optional; prints JSON otherwise)")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("campaign", help="multi-trial campaign over a rate grid")
    p.add_argument("--cluster", help="cluster profile file (INI)")
    p.add_argument("--kind", choices=["read", "write"], required=True)
    p.add_argument("--rates", help="comma-separated offered rates")
    p.add_argument("--arrival", choices=["poisson", "deterministic"], default="poisson")
    p.add_argument("--trials", type=int, default=DESK_TRIALS)
    p.add_argument("--duration", type=float, default=DESK_DURATION_S)
    p.add_argument("--paper", action="store_true",
                   help=f"full protocol: {PAPER_TRIALS} trials x {PAPER_DURATION_S} s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (or CHAINCAP_OUT)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("assess", help="scenario suitability verdicts")
    p.add_argument("--scenario", required=True, help="scenario id or 'all'")
    p.add_argument("--eta", type=float, help="concurrent events per second")
    p.add_argument("--capacity", help="capacity profile JSON (e.g. the shipped paper.json)")
    p.add_argument("--cluster", help="cluster profile file; searched when no --capacity")
    p.add_argument("--overrides", help="scenario override file (INI)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--text", action="store_true", help="print full methodology reports")
    p.add_argument("--out", help="output directory (or CHAINCAP_OUT)")
    p.set_defaults(func=cmd_assess)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    if args.command == "scenarios" and args.action == "show" and not args.id:
        parser.error("scenarios show requires an id")
    try:
        return args.func(args)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, ConfigError, DomainError, InputError, ContractError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChaincapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
