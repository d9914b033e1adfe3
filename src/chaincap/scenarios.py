"""The seven 6G scenario workload profiles.

Each scenario is a set of use cases; each use case states how many ledger
reads and writes one event of that use case triggers, and the payload class
of its writes.  Arrival rates follow from an operator-supplied
concurrent-event rate eta and the per-event read and write counts alpha and
beta:

    lambda_read  = eta * alpha
    lambda_write = eta * beta

Two scenarios ship operator-derived default eta values (public key
management: 0.0115/s, AAA: 8333/s); the remaining five have no trustworthy
public figures and require the user to supply eta.

Profiles can be overridden by an INI-style document, see ``load_scenarios``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from enum import Enum

from .arrival import DEFAULT_WRITE_PAYLOAD_BYTES, check_rate
from .errors import ConflictError, DomainError, SchemaError

SCHEMA_VERSION = 1


class ScenarioId(Enum):
    PUBLIC_KEY_MGMT = "public_key_mgmt"
    ID_MGMT = "id_mgmt"
    AAA = "aaa"
    CONTEXT_INFO = "context_info"
    DATA_MGMT_TRADING = "data_mgmt_trading"
    RESOURCE_SHARING = "resource_sharing"
    TRADING_SETTLEMENT = "trading_settlement"


@dataclass(frozen=True)
class UseCaseSpec:
    """One use case: per-event transaction multiplicities plus trigger text."""

    name: str
    reads_per_event: int
    writes_per_event: int
    write_payload_bytes: int = DEFAULT_WRITE_PAYLOAD_BYTES
    trigger: str = ""

    def __post_init__(self):
        if self.reads_per_event < 0:
            raise DomainError(f"reads_per_event must be >= 0, got {self.reads_per_event}")
        if self.writes_per_event < 0:
            raise DomainError(f"writes_per_event must be >= 0, got {self.writes_per_event}")
        if self.reads_per_event + self.writes_per_event < 1:
            raise DomainError(f"use case {self.name!r} needs at least one read or write per event")
        if self.write_payload_bytes < 0:
            raise DomainError(f"write_payload_bytes must be >= 0, got {self.write_payload_bytes}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario: its use cases, on-chain rationale, and optional default eta."""

    id: ScenarioId
    use_cases: tuple[UseCaseSpec, ...]
    notes: str = ""
    default_eta: float | None = None

    def __post_init__(self):
        if not self.use_cases:
            raise DomainError(f"scenario {self.id.value} must have at least one use case")
        names = [uc.name for uc in self.use_cases]
        if len(set(names)) != len(names):
            raise ConflictError(f"duplicate use-case names in scenario {self.id.value}")

    @property
    def reads_per_event(self) -> int:
        return sum(uc.reads_per_event for uc in self.use_cases)

    @property
    def writes_per_event(self) -> int:
        return sum(uc.writes_per_event for uc in self.use_cases)

    def use_case(self, name: str) -> UseCaseSpec:
        for uc in self.use_cases:
            if uc.name == name:
                return uc
        raise KeyError(f"scenario {self.id.value} has no use case {name!r}")


@dataclass(frozen=True)
class ScenarioWorkload:
    """Arrival rates for one scenario (or single use case) at a given eta."""

    scenario_id: ScenarioId | None
    use_case: str | None
    eta: float
    lambda_read: float
    lambda_write: float


def builtin_scenarios() -> list[ScenarioSpec]:
    """The seven built-in scenario profiles."""
    return [replace(s) for s in _BUILTINS]


def scenario_by_id(scenario_id: ScenarioId | str,
                   catalog: list[ScenarioSpec] | None = None) -> ScenarioSpec:
    if isinstance(scenario_id, str):
        scenario_id = ScenarioId(scenario_id)
    for spec in catalog if catalog is not None else _BUILTINS:
        if spec.id is scenario_id:
            return spec
    raise KeyError(f"unknown scenario {scenario_id!r}")


def workload_for(spec: ScenarioSpec | UseCaseSpec, eta: float) -> ScenarioWorkload:
    """Arrival rates for a scenario or single use case at event rate eta."""
    eta = check_rate(eta, "eta")
    is_scenario = isinstance(spec, ScenarioSpec)
    return ScenarioWorkload(
        scenario_id=spec.id if is_scenario else None,
        use_case=None if is_scenario else spec.name,
        eta=eta,
        lambda_read=eta * spec.reads_per_event,
        lambda_write=eta * spec.writes_per_event,
    )


# --- override document handling -------------------------------------------

_SCENARIO_KEYS = {"eta"}
_USE_CASE_KEYS = {"reads_per_event", "writes_per_event", "write_payload_bytes"}


def _parse_nonneg_int(raw: str, where: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise SchemaError(f"{where}: expected an integer, got {raw!r}") from None
    if value < 0:
        raise SchemaError(f"{where}: must be >= 0, got {value}")
    return value


def load_scenarios(document: str) -> list[ScenarioSpec]:
    """Parse an override document and merge it over the built-in catalog.

    Sections: ``[config]`` with ``schema_version``, ``[scenario:<id>]`` with
    ``eta``, and ``[use_case:<id>:<name>]`` with per-event multiplicities.
    Unknown sections or keys are rejected loudly.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(document)
    except configparser.DuplicateSectionError as exc:
        raise ConflictError(str(exc)) from None
    except configparser.DuplicateOptionError as exc:
        raise ConflictError(str(exc)) from None
    except configparser.Error as exc:
        raise SchemaError(str(exc)) from None

    catalog = {spec.id: spec for spec in builtin_scenarios()}
    sections = parser.sections()
    if sections:
        if "config" not in sections:
            raise SchemaError("missing [config] section with schema_version")
        keys = set(parser["config"])
        if keys != {"schema_version"}:
            raise SchemaError(f"[config] allows only schema_version, got {sorted(keys)}")
        if parser["config"]["schema_version"].strip() != str(SCHEMA_VERSION):
            raise SchemaError(
                f"unsupported schema_version {parser['config']['schema_version']!r}, "
                f"expected {SCHEMA_VERSION}")

    for section in sections:
        if section == "config":
            continue
        if section.startswith("scenario:"):
            sid_raw = section[len("scenario:"):]
            try:
                sid = ScenarioId(sid_raw)
            except ValueError:
                raise SchemaError(f"[{section}]: unknown scenario id {sid_raw!r}") from None
            unknown = set(parser[section]) - _SCENARIO_KEYS
            if unknown:
                raise SchemaError(f"[{section}]: unknown keys {sorted(unknown)}")
            if "eta" in parser[section]:
                try:
                    eta = check_rate(float(parser[section]["eta"]), "eta")
                except (ValueError, DomainError) as exc:
                    raise SchemaError(f"[{section}] eta: {exc}") from None
                catalog[sid] = replace(catalog[sid], default_eta=eta)
        elif section.startswith("use_case:"):
            parts = section.split(":", 2)
            if len(parts) != 3 or not parts[2]:
                raise SchemaError(f"[{section}]: expected use_case:<scenario>:<name>")
            try:
                sid = ScenarioId(parts[1])
            except ValueError:
                raise SchemaError(f"[{section}]: unknown scenario id {parts[1]!r}") from None
            name = parts[2]
            unknown = set(parser[section]) - _USE_CASE_KEYS
            if unknown:
                raise SchemaError(f"[{section}]: unknown keys {sorted(unknown)}")
            fields = {
                key: _parse_nonneg_int(parser[section][key], f"[{section}] {key}")
                for key in _USE_CASE_KEYS if key in parser[section]
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
                        write_payload_bytes=fields.get(
                            "write_payload_bytes", DEFAULT_WRITE_PAYLOAD_BYTES),
                    ),)
            except DomainError as exc:
                raise SchemaError(f"[{section}]: {exc}") from None
            catalog[sid] = replace(spec, use_cases=use_cases)
        else:
            raise SchemaError(f"unknown section [{section}]")

    return [catalog[spec.id] for spec in _BUILTINS]


# --- built-in catalog ------------------------------------------------------

_BUILTINS: tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        id=ScenarioId.PUBLIC_KEY_MGMT,
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
        id=ScenarioId.ID_MGMT,
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
        id=ScenarioId.AAA,
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
        id=ScenarioId.CONTEXT_INFO,
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
        id=ScenarioId.DATA_MGMT_TRADING,
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
        id=ScenarioId.RESOURCE_SHARING,
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
        id=ScenarioId.TRADING_SETTLEMENT,
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
