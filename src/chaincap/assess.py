"""Suitability assessment: scenario arrival rates vs. cluster capacity.

The pipeline mirrors the evaluation flow end to end: why the scenario is
on-chain, what is recorded, when transactions fire (reads vs writes), the
arrival-rate model, the capacity used for evaluation, and the final
comparison.  A scenario is suitable when both its read and write arrival
rates are at or below the cluster's maxima.
"""

from __future__ import annotations

import math

from .bench import CapacityProfile
from .errors import InputError
from .scenarios import ScenarioSpec, workload_for


def _headroom(maximum: float, demand: float):
    """capacity / demand, written as "inf" when it is not finite (no demand)."""
    ratio = maximum / demand if demand > 0 else math.inf
    return ratio if math.isfinite(ratio) else "inf"


def methodology_report(scenario: ScenarioSpec, eta: float | None,
                       capacity: CapacityProfile) -> dict:
    """Machine-readable assessment report covering every pipeline stage.

    An explicit eta wins, even 0; otherwise the scenario's default is used,
    and a scenario that ships none is an error: eta is never guessed.
    """
    if eta is None:
        if scenario.default_eta is None:
            raise InputError(
                f"eta required: scenario {scenario.id!r} ships no default "
                "concurrent-event rate; supply one explicitly")
        eta = scenario.default_eta
    lambda_read, lambda_write = workload_for(scenario, eta)
    max_read, max_write = capacity.max_lambda_read, capacity.max_lambda_write
    if not (math.isfinite(max_read) and math.isfinite(max_write)):
        raise InputError("capacity profile must carry finite read and write maxima")
    read_ok, write_ok = lambda_read <= max_read, lambda_write <= max_write
    suitable = read_ok and write_ok
    return {
        "schema_version": 2,
        "scenario": scenario.id,
        "why_on_chain": scenario.notes,
        "what_is_recorded": [
            {
                "use_case": uc.name,
                "reads_per_event": uc.reads_per_event,
                "writes_per_event": uc.writes_per_event,
            }
            for uc in scenario.use_cases
        ],
        "when": [
            {"use_case": uc.name, "trigger": uc.trigger}
            for uc in scenario.use_cases
        ],
        "arrival_model": {
            "kind": "poisson",
            "eta": eta,
            "reads_per_event": scenario.reads_per_event,
            "writes_per_event": scenario.writes_per_event,
            "lambda_read": lambda_read,
            "lambda_write": lambda_write,
        },
        "evaluation": capacity.to_json_dict(),
        # the verdict alone: the rates and capacity it compares are stated above
        "comparison": {
            "read_ok": read_ok,
            "write_ok": write_ok,
            "suitable": suitable,
            "headroom_read": _headroom(max_read, lambda_read),
            "headroom_write": _headroom(max_write, lambda_write),
            "remediation": [] if suitable else ["batch_transactions", "scale_blockchain"],
        },
    }


def render_report_text(report: dict) -> str:
    """Human-readable rendering of a methodology report."""
    lines = [f"Scenario: {report['scenario']}", "", "Why on-chain:",
             f"  {report['why_on_chain']}", "", "What is recorded / when:"]
    # both lists hold the scenario's use cases in the same order
    for uc, when in zip(report["what_is_recorded"], report["when"]):
        lines.append(f"  - {uc['use_case']}: {uc['reads_per_event']} read(s), "
                     f"{uc['writes_per_event']} write(s) per event")
        if when["trigger"]:
            lines.append(f"      when: {when['trigger']}")
    am = report["arrival_model"]
    lines += [
        "",
        f"Arrival model: Poisson, eta={am['eta']} events/s",
        f"  lambda_read  = {am['eta']} x {am['reads_per_event']} = {am['lambda_read']}/s",
        f"  lambda_write = {am['eta']} x {am['writes_per_event']} = {am['lambda_write']}/s",
        "",
        f"Capacity ({report['evaluation']['source']}, "
        f"{report['evaluation']['node_count']} nodes): "
        f"read <= {report['evaluation']['max_lambda_read']}/s, "
        f"write <= {report['evaluation']['max_lambda_write']}/s",
    ]
    cmp_ = report["comparison"]
    verdict = "SUITABLE" if cmp_["suitable"] else "UNSUITABLE"
    lines += ["", f"Verdict: {verdict} "
              f"(read_ok={cmp_['read_ok']}, write_ok={cmp_['write_ok']})"]
    if cmp_["remediation"]:
        lines.append("Remediation hints: " + ", ".join(cmp_["remediation"]))
    return "\n".join(lines) + "\n"
