"""Command-line front end.

Subcommands: ``scenarios`` (catalog inspection), ``simulate`` (one run),
``capacity`` (max-rate search / node sweep), ``campaign`` (multi-trial
Poisson experiments), and ``assess`` (suitability verdicts).  Every command
that writes an output directory also writes a ``manifest.json`` recording
the command line, input digests, seeds and produced files.

Exit codes: 0 success, 2 usage/config error, 3 runtime/calibration error.
"""

from __future__ import annotations

# hashlib, difflib and .assess are imported in the one function that uses
# each, so that the commands that never need them start without them
import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .arrival import ArrivalKind, ArrivalProcess, TxKind, check_rate, generate_events
from .bench import (
    CampaignSpec,
    CapacityProfile,
    DESK_DURATION_S,
    DESK_TRIALS,
    STEADY_TOLERANCE,
    WINDOW_S,
    # uncalled here; perfbench/spans.py wraps this name, so bench.probes reads 0
    # until ROADMAP item 2 moves that patch point into bench
    find_max_lambda,  # noqa: F401
    run_campaign,
    sweep_nodes,
)
from .chainsim import check_run, default_cluster, load_cluster, run
from .errors import ChaincapError, InputError
from .scenarios import builtin_scenarios, load_scenarios

PAPER_CAPACITY_PATH = Path(__file__).parent / "data" / "paper.json"
# timeline.csv rows converted to Python values at a time; the whole table at
# once held one Python object per cell, 660 MB at a million 4-node windows
TIMELINE_CHUNK_WINDOWS = 4096


# --- manifest --------------------------------------------------------------

def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class OutputDir:
    """Collects produced files and writes the run manifest on close.

    The directory is created by the first write, so a command that fails
    before writing anything leaves no directory behind.
    """

    def __init__(self, out_dir: str, argv: list[str], seeds: dict):
        if not out_dir:
            raise InputError("--out must name a directory, got ''")
        self.dir = Path(out_dir)
        self.argv = argv
        self.seeds = seeds
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.started = _utc_now()

    def _write(self, name: str, text) -> Path:
        """Create file ``name`` holding ``text``: a string, or a function that
        writes to the open file as it produces the text."""
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create output directory {self.dir}: "
                             f"{exc.strerror}") from None
        path = self.dir / name
        try:
            with path.open("w") as fp:
                if callable(text):
                    text(fp)
                else:
                    fp.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from None
        return path

    def write_text(self, name: str, text) -> Path:
        path = self._write(name, text)
        self.outputs.append(name)
        return path

    def write_json(self, name: str, doc: dict) -> Path:
        return self.write_text(name, json.dumps(doc, indent=2) + "\n")

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        """A table of Python values, each row written as ``rows`` yields it:
        a float is written as its repr, None as ''."""
        def write(fp):
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

        return self.write_text(name, write)

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

def _read_input(path: str, what: str, parse, manifest: OutputDir | None):
    """``parse`` of an input file's text, its digest kept in the manifest if any.

    Every error, bad JSON or JSON nested too deep to decode among them, is
    an InputError that names the file.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path} is not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from None
    if manifest:
        import hashlib
        manifest.inputs[str(path)] = hashlib.sha256(data).hexdigest()
    try:
        return parse(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what} {path}: {exc}") from None


def _load_cluster_arg(args, manifest: OutputDir | None = None):
    if args.cluster:
        return _read_input(args.cluster, "cluster profile", load_cluster, manifest)
    return default_cluster()


def _load_catalog_arg(args, manifest: OutputDir | None = None):
    if args.overrides:
        return _read_input(args.overrides, "scenario override file", load_scenarios, manifest)
    return builtin_scenarios()


def _parse_list(raw: str | None, conv, flag: str) -> list:
    """A comma-separated option value as a list of ``conv`` values."""
    if not raw:
        return []
    try:
        return [conv(v) for v in raw.split(",")]
    except ValueError:
        raise InputError(f"{flag} must be comma-separated {conv.__name__} values, "
                         f"got {raw!r}") from None


def _lookup_scenario(catalog: dict, raw: str):
    """The catalog's scenario ``raw``; an unknown id names the closest known one."""
    if raw not in catalog:
        import difflib
        close = difflib.get_close_matches(raw, catalog, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise InputError(f"unknown scenario {raw!r}{hint} (known: {', '.join(catalog)})")
    return catalog[raw]


# --- scenarios -------------------------------------------------------------

def _scenario_dict(spec) -> dict:
    return {
        "id": spec.id,
        "default_eta": spec.default_eta,
        "reads_per_event": spec.reads_per_event,
        "writes_per_event": spec.writes_per_event,
        "notes": spec.notes,
        "use_cases": [asdict(uc) for uc in spec.use_cases],
    }


def cmd_scenarios(args) -> int:
    catalog = _load_catalog_arg(args)
    if args.action == "list":
        if args.json:
            print(json.dumps([_scenario_dict(s) for s in catalog.values()], indent=2))
        else:
            print(f"{'id':<22} {'reads/ev':>8} {'writes/ev':>9} {'eta':>10}  use cases")
            for s in catalog.values():
                eta = "-" if s.default_eta is None else s.default_eta
                print(f"{s.id:<22} {s.reads_per_event:>8} {s.writes_per_event:>9} "
                      f"{eta:>10}  {', '.join(uc.name for uc in s.use_cases)}")
        return 0
    spec = _lookup_scenario(catalog, args.id)
    if args.json:
        print(json.dumps(_scenario_dict(spec), indent=2))
    else:
        print(f"Scenario: {spec.id}")
        if spec.default_eta is not None:
            print(f"Default eta: {spec.default_eta} events/s")
        print(f"Why on-chain: {spec.notes}")
        print(f"Per event: {spec.reads_per_event} read(s), {spec.writes_per_event} write(s)")
        for uc in spec.use_cases:
            print(f"  - {uc.name}: {uc.reads_per_event} R / {uc.writes_per_event} W")
            if uc.trigger:
                print(f"      when: {uc.trigger}")
    return 0


# --- simulate --------------------------------------------------------------

def cmd_simulate(args) -> int:
    manifest = OutputDir(args.out, args.argv, seeds={"seed": args.seed})
    cluster = _load_cluster_arg(args, manifest)
    process = ArrivalProcess(kind=ArrivalKind(args.arrival),
                             rate=check_rate(args.rate, "--lambda"), seed=args.seed)
    check_run(cluster, args.duration, args.window)  # reject a bad run before drawing
    events = generate_events(process, TxKind(args.kind), args.duration)
    timeline = run(cluster, events, horizon=args.duration, window_s=args.window)
    columns = timeline.columns()
    rows = (row for w in range(0, timeline.n_windows, TIMELINE_CHUNK_WINDOWS)
            for row in zip(*(series[w:w + TIMELINE_CHUNK_WINDOWS].tolist()
                             for series in columns.values())))
    path = manifest.write_csv("timeline.csv", list(columns), rows)
    manifest.finish()
    print(f"wrote {path} "
          f"({timeline.committed_writes} writes committed, "
          f"{timeline.served_reads} reads served)")
    return 0


# --- capacity --------------------------------------------------------------

def cmd_capacity(args) -> int:
    node_counts = _parse_list(args.nodes, int, "--nodes")
    manifest = (OutputDir(args.out, args.argv, {"base_seed": args.seed})
                if args.out is not None else None)
    cluster = _load_cluster_arg(args, manifest)
    if cluster.rtt_matrix_ms is not None and set(node_counts) - {cluster.node_count}:
        raise InputError(f"--nodes {args.nodes} cannot rescope the profile's "
                         f"{cluster.node_count}x{cluster.node_count} [rtt_matrix]; "
                         "give one profile per node count instead")
    kinds = (TxKind.READ, TxKind.WRITE) if args.kind == "both" else (TxKind(args.kind),)
    profiles = sweep_nodes(cluster, node_counts or [cluster.node_count], kinds,
                           ArrivalKind(args.arrival), duration_s=args.duration,
                           base_seed=args.seed)

    docs = [p.to_json_dict() for p in profiles]
    doc = docs[0] if len(docs) == 1 else {"schema_version": 1, "profiles": docs}

    if manifest:
        manifest.write_json("capacity.json", doc)
        # an axis the JSON leaves null (never searched) is an empty cell
        columns = ["node_count", "max_lambda_read", "max_lambda_write", "search_tolerance"]
        manifest.write_csv("capacity.csv", columns, ([d[c] for c in columns] for d in docs))
        manifest.finish()
        print(f"wrote {manifest.dir / 'capacity.json'}")
    else:
        print(json.dumps(doc, indent=2))
    return 0


# --- campaign --------------------------------------------------------------

def write_campaign_csv(manifest: OutputDir, spec: CampaignSpec, trials) -> Path:
    """One row per trial, stable column order."""
    # trial i runs at seed base_seed + i
    return manifest.write_csv(
        "campaign.csv",
        ["lambda_offered", "trial", "seed", "mean_tps", "mean_latency_ms", "mean_cpu", "steady"],
        ([t.lambda_offered, t.seed - spec.base_seed, t.seed, t.mean_tps, t.mean_latency_ms,
          t.mean_cpu, int(t.steady)] for t in trials))


def campaign_json_dict(spec: CampaignSpec, aggregates) -> dict:
    return {
        "schema_version": 1,
        "kind": spec.kind.value,
        "arrival_kind": spec.arrival_kind.value,
        "node_count": spec.cluster.node_count,
        "trials": spec.trials,
        "duration_s": spec.duration_s,
        "base_seed": spec.base_seed,
        "steady_tolerance": STEADY_TOLERANCE,
        "aggregates": [asdict(a) for a in aggregates],
    }


def write_plot_data_csv(manifest: OutputDir, spec: CampaignSpec, aggregates) -> Path:
    """Per-figure plot data: arrival rate vs tps, cpu and latency."""
    return manifest.write_csv(
        f"fig_{spec.kind.value}_{spec.cluster.node_count}nodes.csv",
        ["arrival_rate", "tps", "cpu_utilization", "latency_ms"],
        ([a.lambda_offered, a.mean_tps, a.mean_cpu, a.mean_latency_ms] for a in aggregates))


def cmd_campaign(args) -> int:
    manifest = OutputDir(args.out, args.argv, seeds={"base_seed": args.seed})
    cluster = _load_cluster_arg(args, manifest)
    rates = tuple(_parse_list(args.rates, float, "--rates"))
    spec = CampaignSpec(cluster=cluster, kind=TxKind(args.kind), rates=rates,
                        arrival_kind=ArrivalKind(args.arrival), trials=args.trials,
                        duration_s=args.duration, base_seed=args.seed)
    trials, aggregates = run_campaign(spec)
    write_campaign_csv(manifest, spec, trials)
    manifest.write_json("campaign.json", campaign_json_dict(spec, aggregates))
    write_plot_data_csv(manifest, spec, aggregates)
    manifest.finish()
    # warned of once nothing more can fail, so that a failure prints its error alone
    if not rates:
        print("warning: empty rate list, vacuous campaign", file=sys.stderr)
    print(f"wrote campaign results to {manifest.dir}")
    return 0


# --- assess ----------------------------------------------------------------

def _load_capacity(args, manifest: OutputDir | None) -> CapacityProfile:
    if args.capacity:
        if args.cluster:
            raise InputError("--capacity and --cluster both set the capacity; "
                             "give one of them")
        if args.seed is not None:
            raise InputError("--seed seeds a capacity search, which --capacity "
                             "replaces; give one of them")
        return _read_input(args.capacity, "capacity file",
                           lambda text: CapacityProfile.from_json_dict(json.loads(text)),
                           manifest)
    # fall back to a simulator-driven search on the configured cluster
    cluster = _load_cluster_arg(args, manifest)
    return sweep_nodes(cluster, [cluster.node_count], (TxKind.READ, TxKind.WRITE),
                       base_seed=args.seed)[0]


def cmd_assess(args) -> int:
    from .assess import methodology_report, render_report_text

    manifest = OutputDir(args.out, args.argv,
                         seeds={} if args.capacity else {"base_seed": args.seed})
    catalog = _load_catalog_arg(args, manifest)
    capacity = _load_capacity(args, manifest)

    skipped = []
    if args.scenario == "all":
        specs = []
        for spec in catalog.values():
            (skipped if args.eta is None and spec.default_eta is None else specs).append(spec)
    else:
        specs = [_lookup_scenario(catalog, args.scenario)]

    columns = ["scenario", "lambda_read", "lambda_write", "read_ok", "write_ok",
               "headroom_read", "headroom_write"]
    summary_rows = []
    # every report is built, and so checked, before the first file is written
    for report in [methodology_report(spec, args.eta, capacity) for spec in specs]:
        sid = report["scenario"]
        manifest.write_json(f"verdict_{sid}.json", report)
        if args.text:
            print(render_report_text(report))
        am, v = report["arrival_model"], report["comparison"]
        summary_rows.append([sid, am["lambda_read"], am["lambda_write"], int(v["read_ok"]),
                             int(v["write_ok"]), v["headroom_read"], v["headroom_write"]])
        label = "suitable" if v["suitable"] else "unsuitable"
        print(f"{sid}: {label} "
              f"(lambda_read={am['lambda_read']}, lambda_write={am['lambda_write']})")
    manifest.write_csv("summary.csv", columns, summary_rows)
    manifest.finish()
    # named once nothing more can fail, so that a failure prints its error alone
    for spec in skipped:
        print(f"warning: skipping {spec.id}: eta required and no default is shipped",
              file=sys.stderr)
    return 0


# --- parser ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Rejects a command line with an InputError, which main reports as it
    reports any bad input, instead of argparse's usage lines and exit."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chaincap",
        description="Capacity assessment for consortium-blockchain 6G workloads.")
    parser.add_argument("--version", action="version", version=f"chaincap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by the catalog readers, the cluster runners and the trial runners
    catalog_opts = argparse.ArgumentParser(add_help=False)
    catalog_opts.add_argument("--overrides", help="scenario override file (INI)")
    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--cluster",
                          help="cluster profile file (INI); default: shipped profile")
    run_opts.add_argument("--seed", type=int,
                          help="base seed (default 0); assess takes none beside --capacity")
    trial_opts = argparse.ArgumentParser(add_help=False)
    trial_opts.add_argument("--arrival", choices=[a.value for a in ArrivalKind],
                            default=ArrivalKind.POISSON.value)
    trial_opts.add_argument("--duration", type=float, default=DESK_DURATION_S,
                            help="seconds per simulated run")
    kinds = [k.value for k in TxKind]

    p = sub.add_parser("scenarios", parents=[catalog_opts], help="inspect the scenario catalog")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("id", nargs="?", help="scenario id (for 'show')")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", parents=[run_opts, trial_opts],
                       help="run one simulation and export the timeline")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--lambda", dest="rate", type=float, required=True,
                   help="offered arrival rate (tx/s)")
    p.add_argument("--window", type=float, default=WINDOW_S, help="metrics window (s)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("capacity", parents=[run_opts, trial_opts],
                       help="find maximum sustainable arrival rates",
                       description="Find maximum sustainable arrival rates; without an "
                                   "output directory, print the capacity JSON.")
    p.add_argument("--kind", choices=kinds + ["both"], required=True)
    p.add_argument("--nodes", help="comma-separated node counts, e.g. 4,5,6,7")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("campaign", parents=[run_opts, trial_opts],
                       help="multi-trial campaign over a rate grid")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--rates", help="comma-separated offered rates")
    p.add_argument("--trials", type=int, default=DESK_TRIALS,
                   help="trials per rate; the paper's protocol is --trials 5 --duration 600")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("assess", parents=[run_opts, catalog_opts],
                       help="scenario suitability verdicts")
    p.add_argument("--scenario", required=True, help="scenario id or 'all'")
    p.add_argument("--eta", type=float, help="concurrent events per second")
    p.add_argument("--capacity", help="capacity profile JSON (e.g. the shipped paper.json); "
                                      "searched on --cluster when not given")
    p.add_argument("--text", action="store_true", help="print full methodology reports")
    p.add_argument("--out", required=True, help="output directory")

    return parser


# main's parser, built on its first call: building takes about 1 ms, which an
# in-process caller of main would otherwise pay on every call
_main_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _main_parser().parse_args(argv)
        args.argv = sys.argv[1:] if argv is None else argv
        # an omitted --seed is 0, except beside assess --capacity, where no search runs
        if getattr(args, "seed", 0) is None and not getattr(args, "capacity", None):
            args.seed = 0
        if args.command == "scenarios" and (args.action == "show") != bool(args.id):
            raise InputError("scenarios show requires an id" if args.action == "show"
                             else f"scenarios list takes no id, got {args.id!r}")
        # looked up by name at each call, so a replaced cmd_* runs
        return globals()[f"cmd_{args.command}"](args)
    except ChaincapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
