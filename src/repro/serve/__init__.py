"""repro.serve: the online admission-control gateway.

Turns the library's feasible-region admission test into a runnable
service: a :class:`~repro.serve.registry.PipelineRegistry` hosts many
named controllers, an :class:`~repro.serve.gateway.AdmissionGateway`
speaks a newline-delimited JSON protocol (over TCP via
:class:`~repro.serve.gateway.GatewayServer` or in-process via
:class:`~repro.serve.client.InProcessTransport`), admissions can be
batched with a sequential-equivalence guarantee, controller state
snapshots and restores with auditing, and ``python -m
repro.serve.loadgen`` replays seeded traces into byte-stable reports.

Durability (PR 4): a :class:`~repro.serve.journal.Journal` write-ahead
log plus periodic snapshot compaction make the gateway
crash-recoverable — :func:`~repro.serve.recovery.recover` rebuilds a
*bitwise identical* gateway from disk, the
:class:`~repro.serve.client.RetryingGatewayClient` pairs
client-generated request ids with the gateway's dedup window for
exactly-once admission across timeouts and reconnects, and
``python -m repro.serve.loadgen --chaos-crash`` proves zero
lost/duplicated admissions across repeated kill/recover cycles.

Fleet (PR 7): a :class:`~repro.serve.fleet.FleetSupervisor` partitions
the registry across N workers via a versioned
:class:`~repro.serve.router.ShardMap`, monitors them with seq-stamped
heartbeats, and restarts dead workers through the recovery path;
``python -m repro.serve.loadgen --chaos-fleet`` proves zero
lost/duplicated admissions and bitwise-identical recovered registries
under whole-worker SIGKILL plus torn-frame / partial-write /
slow-client / connection-storm network faults.

Degradation (PR 9): a per-pipeline
:class:`~repro.serve.degradation.DegradationManager` turns stage
capacity faults into journaled ``rescale_stage_capacity`` transactions
— authoritative ``set_capacity`` wire ops apply immediately, noisy
``report`` observations pass through hysteresis first — and repairs an
infeasible region by sacrificing admitted tasks in brownout order;
``python -m repro.serve.loadgen --chaos-degradation`` proves zero
lost/duplicated admissions, zero post-repair region violations, and
bitwise recovery under capacity waves crossed with crash kinds.

See DESIGN.md §9 for the mapping from protocol operations to the
paper's Section-4 bookkeeping rules, §10 for the durability contract,
§13 for the fleet failover invariants, and §15 for the degradation
model.
"""

from .batching import AdmissionBatcher
from .client import (
    GatewayClient,
    GatewayControllerProxy,
    GatewayError,
    GatewayTimeout,
    InProcessTransport,
    RetryBudget,
    RetryingGatewayClient,
    RetryPolicy,
    TcpTransport,
)
from .degradation import (
    OBSERVATION_KINDS,
    SACRIFICE_LEDGER_LIMIT,
    DegradationManager,
    hysteresis_from_wire,
    hysteresis_to_wire,
)
from .fleet import (
    FleetError,
    FleetSupervisor,
    HeartbeatMonitor,
    InProcessWorker,
    ProcessFleet,
    ProcessWorker,
    WorkerUnavailable,
)
from .gateway import AdmissionGateway, GatewayLike, GatewayServer
from .journal import (
    GATEWAY_SNAPSHOT_FORMAT,
    DurableGateway,
    Journal,
    JournalError,
    fsync_dir,
    scan_journal,
)
from .protocol import OPS, ProtocolError
from .router import ShardGateway, ShardMap, ShardRouter
from .recovery import (
    RecoveryError,
    RecoveryReport,
    recover,
    registry_fingerprint,
)
from .registry import PipelinePolicy, PipelineRegistry, ServedPipeline
from .snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_FORMAT_V1,
    SUPPORTED_SNAPSHOT_FORMATS,
    controller_snapshot,
    restore_controller,
    verify_restored,
)

__all__ = [
    "AdmissionBatcher",
    "AdmissionGateway",
    "DegradationManager",
    "DurableGateway",
    "FleetError",
    "FleetSupervisor",
    "GATEWAY_SNAPSHOT_FORMAT",
    "GatewayClient",
    "GatewayControllerProxy",
    "GatewayError",
    "GatewayLike",
    "GatewayServer",
    "GatewayTimeout",
    "HeartbeatMonitor",
    "InProcessTransport",
    "InProcessWorker",
    "Journal",
    "JournalError",
    "OBSERVATION_KINDS",
    "OPS",
    "PipelinePolicy",
    "PipelineRegistry",
    "ProcessFleet",
    "ProcessWorker",
    "ProtocolError",
    "RecoveryError",
    "RecoveryReport",
    "RetryBudget",
    "RetryPolicy",
    "RetryingGatewayClient",
    "SACRIFICE_LEDGER_LIMIT",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_FORMAT_V1",
    "SUPPORTED_SNAPSHOT_FORMATS",
    "ServedPipeline",
    "ShardGateway",
    "ShardMap",
    "ShardRouter",
    "TcpTransport",
    "WorkerUnavailable",
    "controller_snapshot",
    "fsync_dir",
    "hysteresis_from_wire",
    "hysteresis_to_wire",
    "recover",
    "registry_fingerprint",
    "restore_controller",
    "scan_journal",
    "verify_restored",
]
