"""The seven 6G scenario workload profiles.

Each scenario is a set of use cases; each use case states how many ledger
reads and writes one event of that use case triggers.  Arrival rates follow
from an operator-supplied concurrent-event rate eta and the per-event read
and write counts alpha and beta:

    lambda_read  = eta * alpha
    lambda_write = eta * beta

Two scenarios ship operator-derived default eta values (public key
management: 0.0115/s, AAA: 8333/s); the remaining five have no trustworthy
public figures and require the user to supply eta.

The catalog, the one list of scenario ids, is a dict from id to
``ScenarioSpec`` in the order the built-ins are listed below:
``builtin_scenarios`` returns it, and ``load_scenarios`` returns it with an
INI-style override document merged in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .arrival import check_rate
from .chainsim import read_config
from .errors import InputError


@dataclass(frozen=True)
class UseCaseSpec:
    """One use case: per-event transaction multiplicities plus trigger text."""

    name: str
    reads_per_event: int
    writes_per_event: int
    trigger: str = ""

    def __post_init__(self):
        if self.reads_per_event < 0:
            raise InputError(f"reads_per_event must be >= 0, got {self.reads_per_event}")
        if self.writes_per_event < 0:
            raise InputError(f"writes_per_event must be >= 0, got {self.writes_per_event}")
        if self.reads_per_event + self.writes_per_event < 1:
            raise InputError(f"use case {self.name!r} needs at least one read or write per event")


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario: its id, use cases, on-chain rationale, and optional default eta."""

    id: str
    use_cases: tuple[UseCaseSpec, ...]
    notes: str = ""
    default_eta: float | None = None

    @property
    def reads_per_event(self) -> int:
        return sum(uc.reads_per_event for uc in self.use_cases)

    @property
    def writes_per_event(self) -> int:
        return sum(uc.writes_per_event for uc in self.use_cases)


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """The seven built-in scenario profiles, keyed by id in catalog order."""
    return {spec.id: spec for spec in _BUILTINS}


def workload_for(spec: ScenarioSpec, eta: float) -> tuple[float, float]:
    """``(lambda_read, lambda_write)`` of a scenario at event rate eta."""
    eta = check_rate(eta, "eta")
    try:
        lambda_read, lambda_write = eta * spec.reads_per_event, eta * spec.writes_per_event
    except OverflowError:  # a per-event count beyond the float range
        lambda_read = lambda_write = math.inf
    if not (math.isfinite(lambda_read) and math.isfinite(lambda_write)):
        raise InputError(f"{spec.id}: eta {eta!r} times "
                         "its reads and writes per event is not a finite rate")
    return lambda_read, lambda_write


# --- override document handling -------------------------------------------

_SCENARIO_KEYS = {"eta"}
_USE_CASE_KEYS = {"reads_per_event", "writes_per_event"}


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{where}: expected an integer, got {raw!r}") from None


def load_scenarios(document: str) -> dict[str, ScenarioSpec]:
    """Parse an override document and merge it over the built-in catalog.

    Sections (grammar of ``chainsim.read_config``): ``[scenario:<id>]`` with
    ``eta``, and ``[use_case:<id>:<name>]`` with per-event multiplicities.
    Unknown sections or keys are rejected loudly.
    """
    catalog = builtin_scenarios()
    for section, keys in read_config(document).items():
        kind, _, target = section.partition(":")
        if kind == "scenario":
            sid, name, allowed = target, None, _SCENARIO_KEYS
        elif kind == "use_case":
            sid, _, name = target.partition(":")
            if not name:
                raise InputError(f"[{section}]: expected use_case:<scenario>:<name>")
            allowed = _USE_CASE_KEYS
        else:
            raise InputError(f"unknown section [{section}]")
        if sid not in catalog:
            raise InputError(f"[{section}]: unknown scenario id {sid!r}")
        unknown = keys.keys() - allowed
        if unknown:
            raise InputError(f"[{section}]: unknown keys {sorted(unknown)}")
        if name is None:
            if "eta" in keys:
                try:
                    eta = check_rate(float(keys["eta"]), "eta")
                except InputError as exc:
                    raise InputError(f"[{section}] eta: {exc}") from None
                except ValueError:
                    raise InputError(f"[{section}] eta: expected a number, "
                                     f"got {keys['eta']!r}") from None
                catalog[sid] = replace(catalog[sid], default_eta=eta)
            continue
        fields = {
            key: _parse_int(keys[key], f"[{section}] {key}")
            for key in _USE_CASE_KEYS if key in keys
        }
        spec = catalog[sid]
        existing = {uc.name: uc for uc in spec.use_cases}
        try:
            if name in existing:
                updated = replace(existing[name], **fields)
                use_cases = tuple(updated if uc.name == name else uc
                                  for uc in spec.use_cases)
            else:
                use_cases = spec.use_cases + (UseCaseSpec(
                    name=name,
                    reads_per_event=fields.get("reads_per_event", 0),
                    writes_per_event=fields.get("writes_per_event", 0),
                ),)
        except ValueError as exc:
            raise InputError(f"[{section}]: {exc}") from None
        catalog[sid] = replace(spec, use_cases=use_cases)
    return catalog


# --- built-in catalog ------------------------------------------------------

_BUILTINS: tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        id="public_key_mgmt",
        notes=(
            "Decentralized public-key registry: tamper-proof key records replace a "
            "centralized PKI and let third parties authenticate users and equipment. "
            "Default eta 0.0115 events/s comes from operator data; a conflicting "
            "operator figure of 0.0015 also circulates, the rate computation behind "
            "the shipped default uses 0.0115."
        ),
        default_eta=0.0115,
        use_cases=(
            UseCaseSpec(
                name="subscriber_key",
                reads_per_event=0,
                writes_per_event=1,
                trigger=(
                    "Write when an end user subscribes to (or leaves) the network "
                    "provider; key lookups happen inside the access-control scenario, "
                    "not here."
                ),
            ),
            UseCaseSpec(
                name="network_equipment_key",
                reads_per_event=1,
                writes_per_event=1,
                trigger="Write when network equipment is onboarded; read on operator lookup.",
            ),
        ),
    ),
    ScenarioSpec(
        id="id_mgmt",
        notes=(
            "Cross-domain identity without a trusted third party: pseudonym-to-key "
            "mappings and decentralized identifiers recorded for authenticity and audit."
        ),
        use_cases=(
            UseCaseSpec(
                name="pseudonym_mgmt",
                reads_per_event=1,
                writes_per_event=1,
                trigger="Write when a pseudonym is created; read when it is looked up.",
            ),
            UseCaseSpec(
                name="decentralized_id",
                reads_per_event=1,
                writes_per_event=1,
                trigger="Write when a DID is issued; read when the identifier is verified.",
            ),
        ),
    ),
    ScenarioSpec(
        id="aaa",
        notes=(
            "Authentication, authorization and access control as smart contracts: "
            "traceable, auditable access to subscriber data across mutually "
            "untrusted administrations. Default eta 8333 events/s from operator data."
        ),
        default_eta=8333.0,
        use_cases=(
            UseCaseSpec(
                name="access_control",
                reads_per_event=5,
                writes_per_event=1,
                trigger=(
                    "One complete access-control event, following the FairAccess flow: "
                    "three authentications at one ledger read each, plus one "
                    "authorization needing two reads and one write."
                ),
            ),
        ),
    ),
    ScenarioSpec(
        id="context_info",
        notes=(
            "Context information (personal and location) kept on-chain for fast "
            "multi-operator access with auditable modification history."
        ),
        use_cases=(
            UseCaseSpec(
                name="personal_context",
                reads_per_event=1,
                writes_per_event=1,
                trigger="Read/write when a network function accesses or updates cached personal context.",
            ),
            UseCaseSpec(
                name="location_info",
                reads_per_event=1,
                writes_per_event=1,
                trigger="Read/write when a third party or network function accesses location data.",
            ),
        ),
    ),
    ScenarioSpec(
        id="data_mgmt_trading",
        notes=(
            "Data management and trading over an on-chain/off-chain split: only "
            "hashes and data-activity records go on the ledger, bulk data stays "
            "off-chain."
        ),
        use_cases=(
            UseCaseSpec(
                name="subscription_data",
                reads_per_event=3,
                writes_per_event=4,
                trigger=(
                    "Read+write when a user subscribes, changes, or de-registers a "
                    "service; write-only on subscription updates."
                ),
            ),
            UseCaseSpec(
                name="ai_model_data",
                reads_per_event=1,
                writes_per_event=2,
                trigger=(
                    "Write when model training or a gradient update completes; read on "
                    "model/gradient retrieval."
                ),
            ),
            UseCaseSpec(
                name="iot_data",
                reads_per_event=1,
                writes_per_event=1,
                trigger="Periodic write of streaming-data hashes; read on audit or trading.",
            ),
            UseCaseSpec(
                name="sensing_data",
                reads_per_event=0,
                writes_per_event=1,
                trigger="Periodic write of sensing-data hashes.",
            ),
            UseCaseSpec(
                name="data_trading",
                reads_per_event=2,
                writes_per_event=1,
                trigger="Read+write when a data package changes hands; read on audit.",
            ),
        ),
    ),
    ScenarioSpec(
        id="resource_sharing",
        notes=(
            "Spectrum, compute and network sharing between stakeholders with "
            "smart-contract settlement and auction, no centralized broker."
        ),
        use_cases=(
            UseCaseSpec(
                name="spectrum",
                reads_per_event=1,
                writes_per_event=3,
                trigger="Writes on publish, trade and revoke of spectrum; read on audit.",
            ),
            UseCaseSpec(
                name="computing_resource",
                reads_per_event=1,
                writes_per_event=3,
                trigger="Writes on publish, trade and revoke of compute capacity; read on audit.",
            ),
            UseCaseSpec(
                name="network_sharing",
                reads_per_event=1,
                writes_per_event=2,
                trigger="Write on settlement and batched usage logs; read on audit.",
            ),
        ),
    ),
    ScenarioSpec(
        id="trading_settlement",
        notes=(
            "Inter-operator trading and settlement: auditable usage records and "
            "automatic smart-contract settlement replacing slow intermediaries."
        ),
        use_cases=(
            UseCaseSpec(
                name="interconnection_settlement",
                reads_per_event=1,
                writes_per_event=2,
                trigger="Periodic usage and settlement writes; read on audit.",
            ),
            UseCaseSpec(
                name="roaming_settlement",
                reads_per_event=1,
                writes_per_event=2,
                trigger="Periodic CDR-batch and settlement writes; read on audit.",
            ),
            UseCaseSpec(
                name="billing",
                reads_per_event=2,
                writes_per_event=1,
                trigger="Periodic CDR-batch write; reads on settlement and audit.",
            ),
        ),
    ),
)
