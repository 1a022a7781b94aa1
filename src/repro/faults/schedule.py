"""Declarative fault schedules for the chaos harness.

A :class:`FaultSchedule` is a scripted, deterministic description of
what goes wrong during a simulation run — which stages degrade and
when, which execution overruns occur, which controller notifications
get lost, and where arrival bursts land.  The schedule is pure data;
:class:`repro.faults.injector.FaultInjector` applies it to a
:class:`~repro.sim.pipeline.PipelineSimulation` through the existing
event loop and public callback hooks, never by forking the engine.

Each fault model deliberately violates one assumption behind the
paper's zero-miss guarantee (see DESIGN.md §8):

========================  =============================================
Fault                     Violated assumption
========================  =============================================
:class:`StageSlowdown`    Fixed, known stage capacity
:class:`StageOutage`      Stage availability (capacity > 0)
:class:`ExecutionOverrun` Exact declared demand ``C_ij``
:class:`DropNotification` Reliable bookkeeping notifications (Sec. 4)
:class:`ArrivalBurst`     No assumption — admission must absorb it
========================  =============================================

The *network* fault family extends the same pure-data discipline to
the serving fleet's control plane (see DESIGN.md §13).  Each model
breaks one assumption of the distributed admission protocol; the fleet
chaos gate (:mod:`repro.serve.chaos`, fleet topology) applies a
:class:`NetworkFaultSchedule` deterministically, so every chaos run is
replayable from its seed:

========================  =============================================
Fault                     Violated assumption
========================  =============================================
:class:`TornFrame`        Requests arrive as whole NDJSON frames
:class:`PartialWrite`     One logical write is one wire frame
:class:`SlowClientStall`  Responses arrive before the client retries
:class:`ConnectionStorm`  Bounded concurrent connection churn
:class:`WorkerKill`       The admission worker process stays alive
========================  =============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "StageSlowdown",
    "StageOutage",
    "ExecutionOverrun",
    "DropNotification",
    "ArrivalBurst",
    "FaultSchedule",
    "WORKER_KILL_KINDS",
    "WORKER_KILL_DETECTIONS",
    "TornFrame",
    "PartialWrite",
    "SlowClientStall",
    "ConnectionStorm",
    "WorkerKill",
    "NetworkFaultSchedule",
]


def _check_window(start: float, end: float, what: str) -> None:
    if not (0.0 <= start < end):
        raise ValueError(f"{what}: need 0 <= start < end, got [{start}, {end})")


@dataclass(frozen=True)
class StageSlowdown:
    """One stage serves at a fraction of nominal speed during a window.

    Attributes:
        stage: Degraded stage index.
        start: Window start (inclusive).
        end: Window end (exclusive).
        factor: Remaining capacity in ``(0, 1)``; jobs dispatched during
            the window execute ``1 / factor`` times longer.
    """

    stage: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "StageSlowdown")
        if not (0.0 < self.factor < 1.0):
            raise ValueError(f"slowdown factor must be in (0, 1), got {self.factor}")

    def active_at(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class StageOutage:
    """One stage processes nothing during a window.

    Modeled as a maximal-priority blocker job occupying the stage for
    the whole window: in-flight work is preempted (frozen) and resumes
    when the outage lifts — the resource is down, the work is not lost.

    Attributes:
        stage: Failed stage index.
        start: Outage start.
        end: Outage end.
    """

    stage: int
    start: float
    end: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "StageOutage")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ExecutionOverrun:
    """Tasks execute longer than the demand they declared at admission.

    Selected tasks (an independent seeded coin flip per task) run
    ``factor`` times their declared per-stage computation times, while
    the admission test still charges the declared amounts — modeling
    optimistic WCET declarations.

    Attributes:
        factor: Execution-time multiplier (> 1 overruns; 1 is a no-op).
        probability: Per-task selection probability in ``[0, 1]``.
        start: Only tasks arriving at or after this time are eligible.
        end: Only tasks arriving before this time are eligible.
    """

    factor: float
    probability: float = 1.0
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0 or not math.isfinite(self.factor):
            raise ValueError(f"overrun factor must be finite and >= 1, got {self.factor}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if not (0.0 <= self.start < self.end):
            raise ValueError(f"need 0 <= start < end, got [{self.start}, {self.end})")

    def applies_to_arrival(self, arrival_time: float) -> bool:
        return self.start <= arrival_time < self.end


@dataclass(frozen=True)
class DropNotification:
    """Controller bookkeeping notifications are lost.

    Attributes:
        kind: ``"departure"`` (lost ``notify_subtask_departure``) or
            ``"idle"`` (lost ``notify_stage_idle``).
        probability: Per-notification drop probability in ``(0, 1]``.
        start: Window start.
        end: Window end.
        stage: Restrict the fault to one stage (``None`` = all stages).
    """

    kind: str
    probability: float = 1.0
    start: float = 0.0
    end: float = math.inf
    stage: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("departure", "idle"):
            raise ValueError(f"kind must be 'departure' or 'idle', got {self.kind!r}")
        if not (0.0 < self.probability <= 1.0):
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")
        if not (0.0 <= self.start < self.end):
            raise ValueError(f"need 0 <= start < end, got [{self.start}, {self.end})")

    def matches(self, time: float, stage: int) -> bool:
        if not (self.start <= time < self.end):
            return False
        return self.stage is None or self.stage == stage


@dataclass(frozen=True)
class ArrivalBurst:
    """A batch of simultaneous extra arrivals at one instant.

    Attributes:
        time: Burst instant.
        count: Number of injected tasks (> 0).
        deadline: Relative end-to-end deadline of every burst task.
        mean_costs: Mean exponential per-stage computation times; the
            injector draws actual costs from its seeded RNG.
        importance: Semantic importance of the burst tasks.
    """

    time: float
    count: int
    deadline: float
    mean_costs: Tuple[float, ...]
    importance: int = 0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"burst time must be >= 0, got {self.time}")
        if self.count < 1:
            raise ValueError(f"burst count must be >= 1, got {self.count}")
        if self.deadline <= 0:
            raise ValueError(f"burst deadline must be > 0, got {self.deadline}")
        if not self.mean_costs or any(c < 0 for c in self.mean_costs):
            raise ValueError("burst mean costs must be non-empty and >= 0")


# ----------------------------------------------------------------------
# Network / control-plane faults (serving fleet)
# ----------------------------------------------------------------------

#: Crash points of a worker kill, mirroring the PR-4 journal crash
#: kinds: mid-journal-write, between journal append and the in-memory
#: mutation, and after the mutation but before response delivery.
WORKER_KILL_KINDS = ("torn", "after_journal", "after_apply")

#: How the supervisor learns about the kill: the process exit is
#: observed directly, or the worker just stops answering seq-stamped
#: heartbeats and is declared dead after the miss threshold.
WORKER_KILL_DETECTIONS = ("exit", "heartbeat")


def _check_at_op(at_op: int, what: str) -> None:
    if at_op < 0:
        raise ValueError(f"{what}: at_op must be >= 0, got {at_op}")


@dataclass(frozen=True)
class TornFrame:
    """A request frame cut mid-record; the remainder never arrives.

    Models a connection dying mid-write: the worker's framing layer
    sees a prefix of the NDJSON line (no terminator follows before the
    drop).  The fragment must produce a structured error — never an
    unhandled exception, never a journal record — and the client's
    idempotent retry re-sends the whole frame.

    Attributes:
        at_op: Op index (within one chaos cycle) whose frame is torn.
        keep: Fraction of the line that reaches the worker, in (0, 1).
    """

    at_op: int
    keep: float = 0.5

    def __post_init__(self) -> None:
        _check_at_op(self.at_op, "TornFrame")
        if not (0.0 < self.keep < 1.0):
            raise ValueError(f"TornFrame keep must be in (0, 1), got {self.keep}")


@dataclass(frozen=True)
class PartialWrite:
    """One logical write delivered as two broken frames.

    Models a crashed buffering layer flushing mid-line: the worker
    receives the line's head and tail as *separate* frames, each
    invalid on its own.  Both fragments must yield structured errors,
    and neither may reach the write-ahead journal.

    Attributes:
        at_op: Op index (within one chaos cycle) whose write splits.
        cut: Fraction of the line in the first fragment, in (0, 1).
    """

    at_op: int
    cut: float = 0.5

    def __post_init__(self) -> None:
        _check_at_op(self.at_op, "PartialWrite")
        if not (0.0 < self.cut < 1.0):
            raise ValueError(f"PartialWrite cut must be in (0, 1), got {self.cut}")


@dataclass(frozen=True)
class SlowClientStall:
    """The response arrives so late the client has already retried.

    Exercises live deduplication: the retry (same ``rid``) must be
    served the cached decision, bitwise identical to the original.

    Attributes:
        at_op: Op index (within one chaos cycle) whose response stalls.
        retries: Redundant retries the impatient client issues (>= 1).
    """

    at_op: int
    retries: int = 1

    def __post_init__(self) -> None:
        _check_at_op(self.at_op, "SlowClientStall")
        if self.retries < 1:
            raise ValueError(
                f"SlowClientStall retries must be >= 1, got {self.retries}"
            )


@dataclass(frozen=True)
class ConnectionStorm:
    """A burst of reconnects hammering one worker.

    Models thundering-herd reconnection after a network partition
    heals: a flurry of fresh connections each probing liveness and
    re-asking for a recent decision.  The worker must answer every
    probe consistently and must not double-apply the re-asked op.

    Attributes:
        at_op: Op index (within one chaos cycle) where the storm lands.
        count: Connections in the storm (>= 1).
    """

    at_op: int
    count: int = 4

    def __post_init__(self) -> None:
        _check_at_op(self.at_op, "ConnectionStorm")
        if self.count < 1:
            raise ValueError(f"ConnectionStorm count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class WorkerKill:
    """SIGKILL one fleet worker at a scheduled op.

    Attributes:
        at_op: Op index (within one chaos cycle) at which the worker
            dies; the cycle's remaining ops are abandoned (clients
            retry them after failover).
        worker: Shard index of the killed worker.
        kind: Crash point, one of :data:`WORKER_KILL_KINDS`.
        detect: Supervisor detection path, one of
            :data:`WORKER_KILL_DETECTIONS`.
    """

    at_op: int
    worker: int
    kind: str = "torn"
    detect: str = "exit"

    def __post_init__(self) -> None:
        _check_at_op(self.at_op, "WorkerKill")
        if self.worker < 0:
            raise ValueError(f"WorkerKill worker must be >= 0, got {self.worker}")
        if self.kind not in WORKER_KILL_KINDS:
            raise ValueError(
                f"WorkerKill kind must be one of {WORKER_KILL_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.detect not in WORKER_KILL_DETECTIONS:
            raise ValueError(
                f"WorkerKill detect must be one of {WORKER_KILL_DETECTIONS}, "
                f"got {self.detect!r}"
            )


@dataclass(frozen=True)
class NetworkFaultSchedule:
    """The scripted network-fault load of one fleet chaos cycle.

    Pure data, like :class:`FaultSchedule`: the fleet chaos harness
    applies it through the protocol layer, never by forking the
    gateway.  Sorted-tuple normalization keeps the injection order
    independent of construction order, so a schedule (plus the op
    stream's seed) fully determines the run.
    """

    torn_frames: Tuple[TornFrame, ...] = field(default_factory=tuple)
    partial_writes: Tuple[PartialWrite, ...] = field(default_factory=tuple)
    stalls: Tuple[SlowClientStall, ...] = field(default_factory=tuple)
    storms: Tuple[ConnectionStorm, ...] = field(default_factory=tuple)
    kills: Tuple[WorkerKill, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "torn_frames",
            tuple(sorted(self.torn_frames, key=lambda f: (f.at_op, f.keep))),
        )
        object.__setattr__(
            self,
            "partial_writes",
            tuple(sorted(self.partial_writes, key=lambda f: (f.at_op, f.cut))),
        )
        object.__setattr__(
            self,
            "stalls",
            tuple(sorted(self.stalls, key=lambda f: (f.at_op, f.retries))),
        )
        object.__setattr__(
            self,
            "storms",
            tuple(sorted(self.storms, key=lambda f: (f.at_op, f.count))),
        )
        object.__setattr__(
            self,
            "kills",
            tuple(sorted(self.kills, key=lambda f: (f.at_op, f.worker))),
        )

    @property
    def empty(self) -> bool:
        """True when the schedule injects nothing."""
        return not (
            self.torn_frames
            or self.partial_writes
            or self.stalls
            or self.storms
            or self.kills
        )

    def counts(self) -> dict:
        """Fault counts by family (report bookkeeping)."""
        return {
            "torn_frames": len(self.torn_frames),
            "partial_writes": len(self.partial_writes),
            "stalls": len(self.stalls),
            "storms": len(self.storms),
            "kills": len(self.kills),
        }


@dataclass(frozen=True)
class FaultSchedule:
    """The full scripted fault load of one chaos run.

    An empty schedule is a valid (and useful) degenerate case: the
    injector then only audits, and results must match a fault-free run
    exactly.
    """

    slowdowns: Tuple[StageSlowdown, ...] = field(default_factory=tuple)
    outages: Tuple[StageOutage, ...] = field(default_factory=tuple)
    overruns: Tuple[ExecutionOverrun, ...] = field(default_factory=tuple)
    drops: Tuple[DropNotification, ...] = field(default_factory=tuple)
    bursts: Tuple[ArrivalBurst, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Normalize: accept any iterable, store sorted tuples so the
        # injection event order is independent of construction order.
        object.__setattr__(
            self, "slowdowns", tuple(sorted(self.slowdowns, key=lambda f: (f.start, f.stage)))
        )
        object.__setattr__(
            self, "outages", tuple(sorted(self.outages, key=lambda f: (f.start, f.stage)))
        )
        object.__setattr__(
            self, "overruns", tuple(sorted(self.overruns, key=lambda f: (f.start, f.factor)))
        )
        object.__setattr__(
            self,
            "drops",
            tuple(sorted(self.drops, key=lambda f: (f.start, f.kind, -1 if f.stage is None else f.stage))),
        )
        object.__setattr__(
            self, "bursts", tuple(sorted(self.bursts, key=lambda f: (f.time, f.count)))
        )

    @property
    def empty(self) -> bool:
        """True when the schedule injects nothing."""
        return not (
            self.slowdowns or self.outages or self.overruns or self.drops or self.bursts
        )

    def drops_of_kind(self, kind: str) -> Tuple[DropNotification, ...]:
        """The drop faults matching ``kind`` (``"departure"``/``"idle"``)."""
        return tuple(f for f in self.drops if f.kind == kind)
