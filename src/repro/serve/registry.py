"""Multi-pipeline registry: named controllers with per-pipeline policy.

A gateway hosts many independent resource pipelines (the paper's model
is one pipeline; a serving deployment fronts several — e.g. one per
service tier).  Each :class:`ServedPipeline` owns one
:class:`~repro.core.admission.PipelineAdmissionController` configured
by a :class:`PipelinePolicy` (stage count, alpha/beta, reservations,
demand model, shedding, batching), a virtual clock, and serving
counters.  The :class:`PipelineRegistry` maps names to served
pipelines.

Time is *virtual* throughout: every timed operation carries its own
timestamp, the registry only enforces per-pipeline monotonicity.  The
gateway therefore replays identically regardless of wall-clock
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from ..core.admission import AdmissionDecision, PipelineAdmissionController
from ..core.task import PipelineTask
from .batching import AdmissionBatcher
from .degradation import DegradationManager, hysteresis_from_wire
from .protocol import ProtocolError
from .snapshot import (
    controller_snapshot,
    demand_model_from_wire,
    demand_model_to_wire,
    restore_controller,
)

__all__ = [
    "PIPELINE_SNAPSHOT_FORMAT",
    "PipelinePolicy",
    "ServedPipeline",
    "PipelineRegistry",
    "Decided",
]

#: Version tag of the pipeline-level snapshot document (wraps the
#: controller-level document from :mod:`repro.serve.snapshot`).
PIPELINE_SNAPSHOT_FORMAT = "repro.serve.pipeline-snapshot/1"

#: One decided admission: ``(correlation token, task, decision)``.  The
#: decision is ``None`` for an admit that reused a live task id; it was
#: refused without touching the controller or the counters (see
#: ``ServedPipeline._decide_reused``).
Decided = Tuple[Any, PipelineTask, Optional[AdmissionDecision]]

#: Shared "no decisions ready" result for the dominant queued-not-
#: flushed admit path; callers only iterate it.
_NO_DECIDED: List[Decided] = []


@dataclass(frozen=True)
class PipelinePolicy:
    """Per-pipeline admission configuration.

    Attributes:
        num_stages: Pipeline length ``N``.
        alpha: Urgency-inversion parameter in ``(0, 1]`` (Eq. 15).
        betas: Per-stage blocking terms, or ``None``.
        reserved: Per-stage reserved synthetic utilization (Section 5),
            or ``None``.
        demand: Demand-model wire document (see
            :func:`repro.serve.snapshot.demand_model_from_wire`), or
            ``None`` for exact demand.
        reset_on_idle: Whether the Section-4 idle-reset rule is active.
        locking: Derive the per-stage blocking terms online from the
            admitted tasks' shared-resource declarations (PCP bounds)
            instead of taking a static ``betas`` vector.  Mutually
            exclusive with ``betas``.
        shedding: Decide arrivals with
            :meth:`~repro.core.admission.PipelineAdmissionController.request_with_shedding`
            (importance-ordered load shedding) instead of plain
            admission.
        batch_window: Virtual-time admission batching window, or
            ``None``.
        max_batch: Admission batch size cap, or ``None``.
        degradation: Capacity-hysteresis configuration for the online
            degradation manager (see
            :func:`repro.serve.degradation.hysteresis_from_wire`), or
            ``None`` for the defaults.
    """

    num_stages: int
    alpha: float = 1.0
    betas: Optional[Tuple[float, ...]] = None
    reserved: Optional[Tuple[float, ...]] = None
    demand: Optional[Dict[str, Any]] = None
    reset_on_idle: bool = True
    locking: bool = False
    shedding: bool = False
    batch_window: Optional[float] = None
    max_batch: Optional[int] = None
    degradation: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.locking and self.betas is not None:
            raise ValueError(
                "locking pipelines derive betas online from resource "
                "declarations; a static betas vector conflicts"
            )
        if self.betas is not None:
            object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if self.reserved is not None:
            object.__setattr__(
                self, "reserved", tuple(float(r) for r in self.reserved)
            )
        # Validate batching parameters eagerly (same rules as the batcher).
        AdmissionBatcher(self.batch_window, self.max_batch)
        if self.demand is not None:
            demand_model_from_wire(self.demand)
        hysteresis_from_wire(self.degradation)

    @property
    def batched(self) -> bool:
        """Whether admissions on this pipeline are queued into batches."""
        return self.batch_window is not None or self.max_batch is not None

    def build_controller(self) -> PipelineAdmissionController:
        """Instantiate the controller this policy describes."""
        return PipelineAdmissionController(
            num_stages=self.num_stages,
            alpha=self.alpha,
            betas=self.betas,
            reserved=self.reserved,
            demand_model=demand_model_from_wire(self.demand),
            reset_on_idle=self.reset_on_idle,
            locking=self.locking,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Wire document for this policy (canonical field set)."""
        return {
            "num_stages": self.num_stages,
            "alpha": self.alpha,
            "betas": None if self.betas is None else list(self.betas),
            "reserved": None if self.reserved is None else list(self.reserved),
            "demand": self.demand,
            "reset_on_idle": self.reset_on_idle,
            "locking": self.locking,
            "shedding": self.shedding,
            "batch_window": self.batch_window,
            "max_batch": self.max_batch,
            "degradation": self.degradation,
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "PipelinePolicy":
        """Parse a policy wire document.

        Raises:
            ProtocolError: On a non-object document, unknown fields, or
                invalid parameter values.
        """
        if not isinstance(doc, dict):
            raise ProtocolError("bad-policy", "policy must be a JSON object")
        known = {
            "num_stages",
            "alpha",
            "betas",
            "reserved",
            "demand",
            "reset_on_idle",
            "locking",
            "shedding",
            "batch_window",
            "max_batch",
            "degradation",
        }
        unknown = set(doc) - known
        if unknown:
            raise ProtocolError(
                "bad-policy", f"unknown policy fields: {sorted(unknown)}"
            )
        if "num_stages" not in doc:
            raise ProtocolError("bad-policy", "policy requires num_stages")
        try:
            policy = cls(
                num_stages=int(doc["num_stages"]),
                alpha=float(doc.get("alpha", 1.0)),
                betas=doc.get("betas"),
                reserved=doc.get("reserved"),
                demand=doc.get("demand"),
                reset_on_idle=bool(doc.get("reset_on_idle", True)),
                locking=bool(doc.get("locking", False)),
                shedding=bool(doc.get("shedding", False)),
                batch_window=(
                    None
                    if doc.get("batch_window") is None
                    else float(doc["batch_window"])
                ),
                max_batch=(
                    None if doc.get("max_batch") is None else int(doc["max_batch"])
                ),
                degradation=doc.get("degradation"),
            )
            # Surface controller-level parameter errors (alpha range,
            # infeasible reservations, vector lengths) at registration
            # time rather than on the first admit.
            policy.build_controller()
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad-policy", str(exc)) from exc
        return policy


@dataclass
class ServeCounters:
    """Serving counters of one pipeline (all virtual-time driven)."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    batches: int = 0
    largest_batch: int = 0
    resyncs: int = 0
    rescales: int = 0
    sacrificed: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "resyncs": self.resyncs,
            "rescales": self.rescales,
            "sacrificed": self.sacrificed,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ServeCounters":
        return cls(**{key: int(value) for key, value in doc.items()})


@dataclass
class ServedPipeline:
    """One named pipeline: controller + batcher + virtual clock + counters."""

    name: str
    policy: PipelinePolicy
    controller: PipelineAdmissionController = field(init=False)
    counters: ServeCounters = field(default_factory=ServeCounters)

    def __post_init__(self) -> None:
        self.controller = self.policy.build_controller()
        self.degradation = DegradationManager(
            self.policy.num_stages, hysteresis_from_wire(self.policy.degradation)
        )
        self._batcher: AdmissionBatcher[Tuple[Any, PipelineTask]] = AdmissionBatcher(
            self.policy.batch_window, self.policy.max_batch
        )
        self._clock: Optional[float] = None

    # ------------------------------------------------------------------
    # Virtual clock
    # ------------------------------------------------------------------

    @property
    def clock(self) -> Optional[float]:
        """Latest virtual timestamp observed (``None`` before any)."""
        return self._clock

    def observe_time(self, now: float) -> float:
        """Advance the virtual clock; reject time running backwards.

        Raises:
            ProtocolError: If ``now`` precedes an already-observed
                timestamp (the protocol requires per-pipeline
                non-decreasing time).
        """
        if self._clock is not None and now < self._clock:
            raise ProtocolError(
                "time-regression",
                f"timestamp {now} precedes pipeline clock {self._clock}",
            )
        self._clock = now
        return now

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def admit(self, token: Any, task: PipelineTask) -> List[Decided]:
        """Offer one arrival; return every decision that is now ready.

        On an unbatched pipeline the arrival is decided immediately and
        the single decision comes back.  On a batched pipeline the
        arrival is queued; the returned list holds the decisions of any
        batch the arrival caused to flush (possibly none — the caller
        must defer its response until a later flush).

        Args:
            token: Opaque correlation token echoed in the decision
                triple (the gateway passes the pending request).
            task: The arriving task.
        """
        # observe_time inlined — this is the per-arrival hot path and
        # the property/raise plumbing costs as much as the real work.
        now = task.arrival_time
        clock = self._clock
        if clock is not None and now < clock:
            raise ProtocolError(
                "time-regression",
                f"timestamp {now} precedes pipeline clock {clock}",
            )
        self._clock = now
        entry = (token, task)
        if not self._batcher.enabled:
            return self._decide_batch([entry])
        batches = self._batcher.push(entry, now)
        if not batches:
            # Offered counting happens batchwise in _decide_batch; the
            # queued-not-flushed path stays allocation-free (callers
            # only read the result, and every counter observer is a
            # batch barrier, so the deferral is unobservable).
            return _NO_DECIDED
        if len(batches) == 1:
            return self._decide_batch(batches[0])
        decided: List[Decided] = []
        for batch in batches:
            decided.extend(self._decide_batch(batch))
        return decided

    def flush(self) -> List[Decided]:
        """Decide the pending admission batch, if any (barrier/drain)."""
        batch = self._batcher.flush()
        if not batch:
            return []
        return self._decide_batch(batch)

    @property
    def pending(self) -> int:
        """Admissions queued behind the batching window."""
        return self._batcher.pending

    def pending_tasks(self) -> List[PipelineTask]:
        """The tasks queued behind the batching window, in queue order.

        Read-only introspection for recovery fingerprinting: a crash
        with a non-empty batch queue must recover the queue too, and
        equivalence checks need to see it without flushing it.
        """
        return [task for _, task in self._batcher.peek()]

    def _decide_batch(self, batch: List[Tuple[Any, PipelineTask]]) -> List[Decided]:
        tasks = [task for _, task in batch]
        # One set check per flush: a batch whose ids are distinct and
        # have no admission record cannot reuse a live id.
        ids = {task.task_id for task in tasks}
        if len(ids) < len(tasks) or not self.controller.admitted_ids().isdisjoint(ids):
            return self._decide_reused(batch)
        return self._count(batch, self._decide(tasks))

    def _decide(self, tasks: List[PipelineTask]) -> List[AdmissionDecision]:
        if self.policy.shedding:
            # Shedding inspects (and mutates) the admitted set per
            # arrival, so it stays on the sequential path; batching then
            # only defers responses, with identical decisions.
            return [
                self.controller.request_with_shedding(task, task.arrival_time)
                for task in tasks
            ]
        # presorted: the pipeline clock already enforced
        # non-decreasing arrivals, and validated tasks have
        # ``deadline > 0`` so every decision precedes its expiry —
        # both admit_many preconditions hold by construction.
        return self.controller.admit_many(tasks, presorted=True)

    def _decide_reused(self, batch: List[Tuple[Any, PipelineTask]]) -> List[Decided]:
        """Decide a batch that may reuse a live task id, one task at a time.

        An admit whose id still holds an admission at its arrival — one
        admitted earlier in this batch included — is refused with
        ``None`` in place of its decision.  It changes neither the
        controller nor the counters; only the clock has seen its
        timestamp, as it sees every admit's on arrival.  The others are
        decided one by one, which ``admit_many`` guarantees equals
        deciding them as one batch.
        """
        controller = self.controller
        fresh: List[Tuple[Any, PipelineTask]] = []
        decisions: List[Optional[AdmissionDecision]] = []
        for entry in batch:
            task = entry[1]
            if controller.collides(task.task_id, task.arrival_time):
                decisions.append(None)
            else:
                fresh.append(entry)
                decisions.append(self._decide([task])[0])
        counted = iter(
            self._count(fresh, [d for d in decisions if d is not None]) if fresh else ()
        )
        return [
            (token, task, None) if decision is None else next(counted)
            for (token, task), decision in zip(batch, decisions)
        ]

    def _count(
        self,
        batch: List[Tuple[Any, PipelineTask]],
        decisions: List[AdmissionDecision],
    ) -> List[Decided]:
        """Count one decided batch and pair each entry with its decision."""
        counters = self.counters
        counters.batches += 1
        size = len(batch)
        counters.offered += size
        if size > counters.largest_batch:
            counters.largest_batch = size
        decided: List[Decided] = []
        append = decided.append
        admitted = 0
        shed = 0
        for (token, task), decision in zip(batch, decisions):
            if decision.admitted:
                admitted += 1
            shed += len(decision.shed)
            append((token, task, decision))
        counters.admitted += admitted
        counters.rejected += size - admitted
        counters.shed += shed
        return decided

    # ------------------------------------------------------------------
    # Bookkeeping operations (callers must flush first — the gateway
    # treats every non-admit op as a batch barrier)
    # ------------------------------------------------------------------

    def depart(self, task_id: Hashable, stage: int) -> None:
        """Record a subtask departure at ``stage``."""
        self._check_stage(stage)
        self.controller.notify_subtask_departure(task_id, stage)

    def idle(self, stage: int) -> float:
        """Apply the idle-reset rule at ``stage``; return released amount."""
        self._check_stage(stage)
        return self.controller.notify_stage_idle(stage)

    def expire(self, now: float) -> None:
        """Lapse contributions whose deadlines passed by ``now``."""
        self.observe_time(now)
        self.controller.expire(now)

    def set_capacity(self, stage: int, capacity: float) -> None:
        """Declare (possibly degraded) capacity at ``stage``.

        Prospective only: future admissions are charged at the new
        capacity, already-admitted charges stay put.  The online
        degradation path is :meth:`rescale_capacity`.
        """
        self._check_stage(stage)
        try:
            self.controller.set_stage_capacity(stage, capacity)
        except ValueError as exc:
            raise ProtocolError("bad-capacity", str(exc)) from exc

    def rescale_capacity(self, stage: int, capacity: float) -> Dict[str, Any]:
        """Authoritative capacity change: rescale admitted set, repair region.

        The ``set_capacity`` wire op: re-charges every admitted task at
        the new capacity vector and sacrifices tasks (brownout order)
        until the feasible region holds again.

        Raises:
            ProtocolError: On an invalid stage or capacity value.
        """
        self._check_stage(stage)
        try:
            summary = self.degradation.apply_capacity(
                self.controller, stage, capacity
            )
        except ValueError as exc:
            raise ProtocolError("bad-capacity", str(exc)) from exc
        self.counters.rescales += 1
        self.counters.sacrificed += len(summary["sacrificed"])
        return summary

    def report_observation(
        self, stage: int, kind: str, ratio: Optional[float] = None
    ) -> Dict[str, Any]:
        """Ingest one fault report (``report`` wire op).

        Feeds the hysteresis estimator; on a *confirmed* capacity
        change, performs the same rescale-and-repair as
        :meth:`rescale_capacity`.

        Raises:
            ProtocolError: On an invalid stage, kind, or ratio.
        """
        self._check_stage(stage)
        try:
            result = self.degradation.observe(self.controller, stage, kind, ratio)
        except ValueError as exc:
            raise ProtocolError("bad-report", str(exc)) from exc
        if result["confirmed"]:
            self.counters.rescales += 1
            self.counters.sacrificed += len(result["sacrificed"])
        return result

    def resync(self, now: float, frontier: Dict[Hashable, int]) -> Dict[str, Any]:
        """Rebuild controller state from a ground-truth frontier."""
        self.observe_time(now)
        report = self.controller.resync(now, frontier)
        self.counters.resyncs += 1
        return {
            "restored": report.restored,
            "departures_marked": report.departures_marked,
            "dropped_orphans": report.dropped_orphans,
            "dropped_expired": report.dropped_expired,
        }

    def _check_stage(self, stage: int) -> None:
        if not isinstance(stage, int) or isinstance(stage, bool):
            raise ProtocolError("bad-stage", "stage must be an integer")
        if not 0 <= stage < self.policy.num_stages:
            raise ProtocolError(
                "bad-stage",
                f"stage {stage} outside [0, {self.policy.num_stages})",
            )

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Serving counters plus live region state."""
        return {
            "policy": self.policy.to_dict(),
            "clock": self._clock,
            "pending": self.pending,
            "counters": self.counters.to_dict(),
            "region_value": self.controller.region_value(),
            "region_budget": self.controller.budget,
            "utilizations": list(self.controller.utilizations()),
            "capacities": list(self.controller.stage_capacities()),
            "admitted_live": len(self.controller.admitted_snapshot()),
            "degradation": self.degradation.stats_doc(),
        }

    def snapshot(self) -> Dict[str, Any]:
        """Full pipeline state (policy + clock + counters + controller).

        Callers must flush pending admissions first; a snapshot with a
        non-empty batch queue would silently drop the queued arrivals.
        """
        if self.pending:
            raise ProtocolError(
                "pending-batch", "flush pending admissions before snapshotting"
            )
        return {
            "format": PIPELINE_SNAPSHOT_FORMAT,
            "name": self.name,
            "policy": self.policy.to_dict(),
            "clock": self._clock,
            "counters": self.counters.to_dict(),
            "controller": controller_snapshot(self.controller),
            "degradation": self.degradation.state_doc(),
        }

    @classmethod
    def from_snapshot(cls, doc: Dict[str, Any], name: Optional[str] = None) -> "ServedPipeline":
        """Rebuild a served pipeline from a :meth:`snapshot` document.

        Raises:
            ProtocolError: On a malformed document, a format mismatch,
                or a policy document that disagrees with the embedded
                controller document (a pipeline whose policy claims
                different parameters than its controller would accept
                operations the controller cannot serve).
        """
        if not isinstance(doc, dict) or doc.get("format") != PIPELINE_SNAPSHOT_FORMAT:
            raise ProtocolError(
                "bad-snapshot",
                f"expected a {PIPELINE_SNAPSHOT_FORMAT!r} document",
            )
        try:
            policy = PipelinePolicy.from_dict(doc["policy"])
            _check_controller_matches_policy(policy, doc["controller"])
            pipeline = cls(name=name or str(doc["name"]), policy=policy)
            pipeline.controller = restore_controller(doc["controller"])
            pipeline.counters = ServeCounters.from_dict(doc["counters"])
            if doc.get("clock") is not None:
                pipeline._clock = float(doc["clock"])
            # Pipeline snapshots predating the degradation manager carry
            # no "degradation" key; the fresh default (all-nominal
            # estimate, empty ledger) is exactly their state.
            if doc.get("degradation") is not None:
                pipeline.degradation.load_state(doc["degradation"])
            return pipeline
        except ProtocolError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("bad-snapshot", str(exc)) from exc


def _check_controller_matches_policy(
    policy: PipelinePolicy, controller_doc: Any
) -> None:
    """Reject a pipeline snapshot whose two documents disagree.

    The policy document drives gateway-side validation (``_check_stage``
    bounds, the ``stats`` report) while the controller document rebuilds
    the decision state.  If they diverge — e.g. a policy claiming more
    stages than the controller has trackers — a policy-valid operation
    would raise ``IndexError`` inside the controller, escaping the
    gateway's "never raises for request content" contract.

    Raises:
        ProtocolError: On any parameter mismatch.
    """
    if not isinstance(controller_doc, dict):
        raise ProtocolError("bad-snapshot", "controller must be a JSON object")
    expected: Dict[str, Any] = {
        "num_stages": policy.num_stages,
        "alpha": policy.alpha,
        "locking": policy.locking,
        "reserved": (
            [0.0] * policy.num_stages
            if policy.reserved is None
            else list(policy.reserved)
        ),
        "reset_on_idle": policy.reset_on_idle,
        # Both sides are normalized through the wire codec so the
        # policy's ``None`` (= exact demand) compares equal to the
        # controller's explicit ``{"kind": "exact"}``.
        "demand_model": demand_model_to_wire(demand_model_from_wire(policy.demand)),
    }
    if not policy.locking:
        # On a locking pipeline the controller document carries the
        # *online* beta vector (derived from its admitted records), not
        # a policy constant — restore_controller cross-checks it against
        # the records instead.
        expected["betas"] = None if policy.betas is None else list(policy.betas)
    for key, want in expected.items():
        got = controller_doc.get(key)
        if key == "demand_model":
            got = demand_model_to_wire(demand_model_from_wire(got))
        elif key == "locking":
            # Pre-v3 controller documents predate the flag.
            got = bool(controller_doc.get("locking", False))
        if got != want:
            raise ProtocolError(
                "bad-snapshot",
                f"controller {key} {got!r} disagrees with policy value {want!r}",
            )


class PipelineRegistry:
    """Name → :class:`ServedPipeline` map with registration lifecycle."""

    def __init__(self) -> None:
        self._pipelines: Dict[str, ServedPipeline] = {}

    def register(self, name: str, policy: PipelinePolicy) -> ServedPipeline:
        """Create and host a pipeline under ``name``.

        Raises:
            ProtocolError: If the name is empty or already registered.
        """
        if not name:
            raise ProtocolError("bad-request", "pipeline name must be non-empty")
        if name in self._pipelines:
            raise ProtocolError(
                "duplicate-pipeline", f"pipeline {name!r} already registered"
            )
        pipeline = ServedPipeline(name=name, policy=policy)
        self._pipelines[name] = pipeline
        return pipeline

    def adopt(self, pipeline: ServedPipeline) -> ServedPipeline:
        """Host an already-built pipeline (snapshot restore path)."""
        if pipeline.name in self._pipelines:
            raise ProtocolError(
                "duplicate-pipeline",
                f"pipeline {pipeline.name!r} already registered",
            )
        self._pipelines[pipeline.name] = pipeline
        return pipeline

    def unregister(self, name: str) -> ServedPipeline:
        """Remove and return the pipeline under ``name``."""
        pipeline = self.get(name)
        del self._pipelines[name]
        return pipeline

    def get(self, name: str) -> ServedPipeline:
        """Look up a pipeline.

        Raises:
            ProtocolError: If no pipeline is registered under ``name``.
        """
        pipeline = self._pipelines.get(name)
        if pipeline is None:
            raise ProtocolError("unknown-pipeline", f"no pipeline named {name!r}")
        return pipeline

    def names(self) -> List[str]:
        """Registered pipeline names, in registration order."""
        return list(self._pipelines)

    def __len__(self) -> int:
        return len(self._pipelines)

    def __iter__(self) -> Iterator[ServedPipeline]:
        return iter(self._pipelines.values())
