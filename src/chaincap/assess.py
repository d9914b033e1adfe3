"""Suitability assessment: scenario arrival rates vs. cluster capacity.

The pipeline mirrors the evaluation flow end to end: why the scenario is
on-chain, what is recorded, when transactions fire (reads vs writes), the
arrival-rate model, the capacity used for evaluation, and the final
comparison.  A scenario is suitable when both its read and write arrival
rates are at or below the cluster's maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .bench import CapacityProfile
from .errors import InputError
from .scenarios import ScenarioSpec, ScenarioWorkload, workload_for


class Remediation(Enum):
    BATCH_TRANSACTIONS = "batch_transactions"
    SCALE_BLOCKCHAIN = "scale_blockchain"


@dataclass(frozen=True)
class Verdict:
    """Per-workload suitability result with capacity headroom ratios."""

    scenario_id: str | None
    use_case: str | None
    lambda_read: float
    lambda_write: float
    capacity: CapacityProfile
    read_ok: bool
    write_ok: bool
    headroom_read: float    # capacity / demand, inf when demand is 0
    headroom_write: float
    remediation: tuple[Remediation, ...]

    @property
    def suitable(self) -> bool:
        return self.read_ok and self.write_ok

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "scenario": self.scenario_id,
            "use_case": self.use_case,
            "lambda_read": self.lambda_read,
            "lambda_write": self.lambda_write,
            "capacity": self.capacity.to_json_dict(),
            "read_ok": self.read_ok,
            "write_ok": self.write_ok,
            "suitable": self.suitable,
            "headroom_read": _json_ratio(self.headroom_read),
            "headroom_write": _json_ratio(self.headroom_write),
            "remediation": [r.value for r in self.remediation],
        }


def _json_ratio(value: float):
    return value if math.isfinite(value) else "inf"


def assess(workload: ScenarioWorkload, capacity: CapacityProfile) -> Verdict:
    """Compare one workload's arrival rates against a capacity profile."""
    if not math.isfinite(capacity.max_lambda_read) or not math.isfinite(capacity.max_lambda_write):
        raise InputError("capacity profile must carry finite read and write maxima")
    read_ok = workload.lambda_read <= capacity.max_lambda_read
    write_ok = workload.lambda_write <= capacity.max_lambda_write
    headroom_read = (capacity.max_lambda_read / workload.lambda_read
                     if workload.lambda_read > 0 else math.inf)
    headroom_write = (capacity.max_lambda_write / workload.lambda_write
                      if workload.lambda_write > 0 else math.inf)
    remediation: tuple[Remediation, ...] = ()
    if not (read_ok and write_ok):
        remediation = (Remediation.BATCH_TRANSACTIONS, Remediation.SCALE_BLOCKCHAIN)
    return Verdict(
        scenario_id=workload.scenario_id.value if workload.scenario_id else None,
        use_case=workload.use_case,
        lambda_read=workload.lambda_read,
        lambda_write=workload.lambda_write,
        capacity=capacity,
        read_ok=read_ok,
        write_ok=write_ok,
        headroom_read=headroom_read,
        headroom_write=headroom_write,
        remediation=remediation,
    )


def resolve_eta(scenario: ScenarioSpec, eta: float | None) -> float:
    """Explicit eta wins; fall back to the scenario default; never guess."""
    if eta is not None:
        return eta
    if scenario.default_eta is None:
        raise InputError(
            f"eta required: scenario {scenario.id.value!r} ships no default "
            "concurrent-event rate; supply one explicitly")
    return scenario.default_eta


def methodology_report(scenario: ScenarioSpec, eta: float | None,
                       capacity: CapacityProfile) -> dict:
    """Machine-readable assessment report covering every pipeline stage."""
    eta_value = resolve_eta(scenario, eta)
    workload = workload_for(scenario, eta_value)
    verdict = assess(workload, capacity)
    return {
        "schema_version": 1,
        "scenario": scenario.id.value,
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
            "eta": eta_value,
            "reads_per_event": scenario.reads_per_event,
            "writes_per_event": scenario.writes_per_event,
            "lambda_read": workload.lambda_read,
            "lambda_write": workload.lambda_write,
        },
        "evaluation": verdict.capacity.to_json_dict(),
        "comparison": verdict.to_json_dict(),
    }


def render_report_text(report: dict) -> str:
    """Human-readable rendering of a methodology report."""
    lines = [f"Scenario: {report['scenario']}", "", "Why on-chain:",
             f"  {report['why_on_chain']}", "", "What is recorded / when:"]
    triggers = {t["use_case"]: t["trigger"] for t in report["when"]}
    for uc in report["what_is_recorded"]:
        lines.append(f"  - {uc['use_case']}: {uc['reads_per_event']} read(s), "
                     f"{uc['writes_per_event']} write(s) per event")
        if triggers.get(uc["use_case"]):
            lines.append(f"      when: {triggers[uc['use_case']]}")
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
