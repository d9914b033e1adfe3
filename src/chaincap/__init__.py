"""chaincap: capacity assessment for consortium-blockchain 6G workloads."""

__version__ = "0.1.0"

from .arrival import (  # noqa: F401
    ArrivalKind,
    ArrivalProcess,
    EventStream,
    TxKind,
    generate_events,
)
from .assess import Remediation, Verdict, assess, methodology_report  # noqa: F401
from .bench import (  # noqa: F401
    CampaignSpec,
    CapacityProfile,
    TrialSummary,
    detect_steady_state,
    find_max_lambda,
    run_campaign,
    sweep_nodes,
)
from .chainsim import (  # noqa: F401
    ClusterConfig,
    MetricsTimeline,
    consensus_round_latency,
    default_cluster,
    load_cluster,
    quorum,
    run,
)
from .scenarios import (  # noqa: F401
    ScenarioId,
    ScenarioSpec,
    ScenarioWorkload,
    UseCaseSpec,
    builtin_scenarios,
    load_scenarios,
    workload_for,
)
