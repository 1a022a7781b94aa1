"""Utilization-based admission control for resource pipelines.

The feasible-region inequality yields an admission test that is
``O(N)`` in the number of stages and *independent of the number of
tasks in the system* (Section 1): a new task is admitted iff, after
tentatively adding its contribution ``C_ij / D_i`` to every stage it
uses, the system remains inside the region

    sum_j f(U_j) <= alpha (1 - sum_j beta_j).

Bookkeeping (Section 4): contributions are added when a task arrives at
the first stage, removed when its deadline expires, and — the key
anti-pessimism rule — when a stage becomes idle the contributions of
all tasks that already departed that stage are dropped.

Section 5 adds two mechanisms reproduced here:

- *reservations*: synthetic-utilization counters are initialized with
  reserved fractions for critical tasks, which are admitted against the
  reserved share rather than the dynamic one;
- *load shedding*: when an important arrival would leave the region,
  less important admitted tasks are shed in reverse order of semantic
  importance until the arrival fits.

Approximate admission control (Section 4.4) replaces the per-task
computation times with their means via a :class:`DemandModel`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Hashable, KeysView, List, Optional, Sequence, Tuple

from ..locking.bounds import PCPBlockingState
from ..locking.model import ResourceSpec
from .bounds import region_budget, stage_delay_factor
from .numeric import EPS, approx_ge, approx_le
from .synthetic import StageUtilizationTracker
from .task import PipelineTask

__all__ = [
    "DemandModel",
    "ExactDemand",
    "MeanDemand",
    "ScaledDemand",
    "AdmissionDecision",
    "ResyncReport",
    "PipelineAdmissionController",
]


class DemandModel:
    """Strategy mapping a task to the per-stage demand used by the test.

    Exact admission control uses the task's true computation times;
    approximate admission control (Section 4.4) substitutes the mean
    when actual execution demands are unknown at arrival.
    """

    def demand(self, task: PipelineTask) -> Tuple[float, ...]:
        """Per-stage computation times charged to the task."""
        raise NotImplementedError


class ExactDemand(DemandModel):
    """Charge each task its actual per-stage computation times."""

    def demand(self, task: PipelineTask) -> Tuple[float, ...]:
        return task.computation_times


class ScaledDemand(DemandModel):
    """Charge each task a scaled version of its actual demand.

    Robustness/failure-injection knob: with ``factor < 1`` the
    admission test systematically *under-charges* tasks — modeling
    optimistic WCET declarations or execution overruns (tasks run
    ``1 / factor`` times longer than admitted for).  The overrun
    ablation quantifies how the zero-miss guarantee degrades as the
    declared demand drifts from reality; ``factor > 1`` models
    conservative over-declaration (safe, wasteful).
    """

    def __init__(self, factor: float) -> None:
        """Args:
            factor: Multiplier applied to actual demands (> 0).
        """
        if factor <= 0 or not math.isfinite(factor):
            raise ValueError(f"factor must be finite and > 0, got {factor}")
        self.factor = factor

    def demand(self, task: PipelineTask) -> Tuple[float, ...]:
        return tuple(c * self.factor for c in task.computation_times)


class MeanDemand(DemandModel):
    """Charge every task the *mean* per-stage computation times.

    Models the Section-4.4 situation where the operator only knows the
    average demand.  With high task resolution, the law of large
    numbers makes this a good approximation; the price is a (small)
    possibility of deadline misses, quantified in Figure 7.
    """

    def __init__(self, mean_computation_times: Sequence[float]) -> None:
        """Args:
            mean_computation_times: Average ``C_j`` per stage.
        """
        means = tuple(float(c) for c in mean_computation_times)
        if any(c < 0 or not math.isfinite(c) for c in means):
            raise ValueError("mean computation times must be finite and >= 0")
        self.mean_computation_times = means

    def demand(self, task: PipelineTask) -> Tuple[float, ...]:
        if len(self.mean_computation_times) != task.num_stages:
            raise ValueError(
                f"mean demand has {len(self.mean_computation_times)} stages, "
                f"task has {task.num_stages}"
            )
        return self.mean_computation_times


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission request.

    Attributes:
        admitted: Whether the task was accepted.
        region_value: Left-hand side ``sum f(U_j)`` *after* the
            decision (with the task included when admitted).
        shed: Task ids shed to make room, empty unless shedding was
            requested and used.
    """

    admitted: bool
    region_value: float
    shed: Tuple[Hashable, ...] = ()


@dataclass(frozen=True)
class ResyncReport:
    """What :meth:`PipelineAdmissionController.resync` changed.

    Attributes:
        restored: Number of (stage, task) contributions re-installed.
        departures_marked: Contributions re-marked as departed from the
            ground-truth frontier (recovering lost departure
            notifications).
        dropped_orphans: Stage contributions removed because no admitted
            record justifies them.
        dropped_expired: Admitted records discarded because their
            deadline had passed.
    """

    restored: int
    departures_marked: int
    dropped_orphans: int
    dropped_expired: int


@dataclass
class _Admitted:
    """Internal record of an admitted task's live contributions.

    ``demand`` keeps the raw per-stage demand charged at admission time
    so a capacity rescale can re-derive contributions from first
    principles; ``None`` marks a record restored from a pre-v4 snapshot
    whose raw demand was never persisted (such records keep their
    original charges across rescales).  ``seq`` is the monotonically
    increasing admission sequence number — the deterministic tie-break
    when the degradation layer sacrifices tasks within an importance
    class.
    """

    contributions: Tuple[float, ...]
    expiry: float
    importance: int
    deadline: float = 0.0
    resources: Tuple[ResourceSpec, ...] = ()
    demand: Optional[Tuple[float, ...]] = None
    seq: int = 0


class PipelineAdmissionController:
    """O(N)-per-request admission controller over an N-stage pipeline.

    The controller owns one :class:`StageUtilizationTracker` per stage
    and implements the feasibility test, expiry, idle-reset, shedding,
    and reservation logic.  It is simulation-agnostic: a driving
    program (or the bundled simulator) calls the ``notify_*`` hooks.

    Attributes:
        num_stages: Pipeline length ``N``.
        alpha: Urgency-inversion parameter of the scheduling policy.
        betas: Optional per-stage normalized blocking terms.
        demand_model: Demand strategy (exact or mean-based).
        reset_on_idle: Whether the Section-4 idle-reset rule is active
            (disable only for ablation studies).
    """

    def __init__(
        self,
        num_stages: int,
        alpha: float = 1.0,
        betas: Optional[Sequence[float]] = None,
        reserved: Optional[Sequence[float]] = None,
        demand_model: Optional[DemandModel] = None,
        reset_on_idle: bool = True,
        locking: bool = False,
    ) -> None:
        """Create a controller.

        Args:
            num_stages: Number of pipeline stages (>= 1).
            alpha: Policy urgency-inversion parameter in ``(0, 1]``.
            betas: Per-stage blocking terms ``beta_j`` or ``None``.
            reserved: Per-stage reserved synthetic utilization for
                critical tasks (Section 5); counters are initialized
                with these values.
            demand_model: Defaults to :class:`ExactDemand`.
            reset_on_idle: Enable the idle-reset rule.
            locking: Derive ``beta_j`` online from the admitted tasks'
                :class:`~repro.locking.model.ResourceSpec` declarations
                under the priority-ceiling protocol instead of taking a
                static vector.  ``self.betas`` and ``self.budget`` then
                track the admitted set transactionally: an arrival
                whose critical sections would push ``sum_j beta_j``
                past the region is itself refused.  Mutually exclusive
                with a static ``betas`` vector.

        Raises:
            ValueError: On invalid dimensions or parameter ranges, or
                if the reserved vector itself violates the region.
        """
        if num_stages < 1:
            raise ValueError(f"num_stages must be >= 1, got {num_stages}")
        if betas is not None and len(betas) != num_stages:
            raise ValueError(f"betas length {len(betas)} != num_stages {num_stages}")
        if locking and betas is not None:
            raise ValueError(
                "locking derives the beta vector online; a static betas "
                "vector cannot be combined with it"
            )
        if reserved is None:
            reserved = [0.0] * num_stages
        if len(reserved) != num_stages:
            raise ValueError(f"reserved length {len(reserved)} != num_stages {num_stages}")
        self.num_stages = num_stages
        self.alpha = alpha
        self.locking = locking
        self._blocking: Optional[PCPBlockingState] = (
            PCPBlockingState(num_stages) if locking else None
        )
        if self._blocking is not None:
            self.betas: Optional[Tuple[float, ...]] = self._blocking.betas()
            self.budget = region_budget(alpha, self.betas)
        else:
            self.betas = None if betas is None else tuple(betas)
            self.budget = region_budget(alpha, betas)
        self.demand_model = demand_model if demand_model is not None else ExactDemand()
        self.reset_on_idle = reset_on_idle
        # Remaining processing capacity per stage, in [0, 1].  1.0 is
        # nominal; a degraded stage (graceful-degradation layer) serves
        # at a fraction of its speed, so admitted work must be charged
        # proportionally more synthetic utilization; 0.0 marks a full
        # outage, under which nothing new is admitted through the stage.
        self._capacities: List[float] = [1.0] * num_stages
        # True once rescale_stage_capacity() has re-charged the admitted
        # set: from then on every demand-bearing record's contributions
        # are a pure function of (demand, deadline, capacities), which
        # the auditor's capacity-drift invariant checks bitwise.
        self._charges_follow_capacity = False
        # Monotonic admission counter; each installed record takes the
        # next value.  Survives snapshots (schema v4) so sacrifice
        # tie-breaks are deterministic across crash recovery.
        self._admission_seq = 0
        self.trackers = [StageUtilizationTracker(r) for r in reserved]
        self._admitted: Dict[Hashable, _Admitted] = {}
        # Min-heap of (expiry, task_id) so expire() is amortized
        # O(log n) per admitted task instead of a full scan — the
        # O(N)-per-request complexity claim depends on it.
        self._expiry_heap: List[Tuple[float, Hashable]] = []
        reserved_value = sum(stage_delay_factor(r) for r in reserved)
        if not approx_le(reserved_value, self.budget):
            raise ValueError(
                f"reserved utilizations are infeasible: region value "
                f"{reserved_value:.4f} exceeds budget {self.budget:.4f}"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def utilizations(self) -> Tuple[float, ...]:
        """Current synthetic utilization of every stage."""
        return tuple(t.value for t in self.trackers)

    def region_value(self) -> float:
        """Current left-hand side ``sum_j f(U_j)``."""
        return sum(stage_delay_factor(min(t.value, 1.0)) for t in self.trackers)

    def margin(self) -> float:
        """Remaining budget (negative would mean the region is violated)."""
        return self.budget - self.region_value()

    def is_admitted(self, task_id: Hashable) -> bool:
        """Whether the task currently holds live contributions."""
        return task_id in self._admitted

    def admitted_ids(self) -> KeysView[Hashable]:
        """Live (uncopied) view of the ids holding an admission record."""
        return self._admitted.keys()

    def collides(self, task_id: Hashable, now: float) -> bool:
        """Whether admitting ``task_id`` at ``now`` would reuse a live id.

        True when the id's admission record outlives ``now`` and the id
        still holds a charge at some stage, or, on a locking controller,
        is still tracked by the blocking engine (which keeps it until
        expiry); installing it again would collide with those.  An id
        whose record expires by ``now``, or whose charges idle resets
        released at every stage, may be admitted again.  Read-only:
        nothing is expired here.
        """
        record = self._admitted.get(task_id)
        if record is None or record.expiry <= now:
            return False
        if self._blocking is not None:
            return True
        return any(task_id in tracker for tracker in self.trackers)

    @property
    def admitted_count(self) -> int:
        """Number of tasks with live contributions."""
        return len(self._admitted)

    def stage_capacities(self) -> Tuple[float, ...]:
        """Declared remaining capacity per stage (1.0 = nominal)."""
        return tuple(self._capacities)

    def admitted_expiry(self, task_id: Hashable) -> Optional[float]:
        """Absolute deadline of an admitted task (``None`` if not admitted)."""
        record = self._admitted.get(task_id)
        return None if record is None else record.expiry

    def admitted_snapshot(self) -> Dict[Hashable, Tuple[float, ...]]:
        """Contribution vectors of every admitted task (read-only copy)."""
        return {
            task_id: record.contributions
            for task_id, record in self._admitted.items()
        }

    def iter_admitted(
        self,
    ) -> List[
        Tuple[
            Hashable,
            Tuple[float, ...],
            float,
            int,
            float,
            Tuple[ResourceSpec, ...],
            Optional[Tuple[float, ...]],
            int,
        ]
    ]:
        """Full admitted records: ``(task_id, contributions, expiry,
        importance, deadline, resources, demand, seq)``.

        The contributions are the amounts charged at admission time;
        per-stage *live* amounts (after idle resets) must be read from
        the trackers.  ``deadline`` is the task's relative deadline
        ``D_i`` (0.0 for records restored from pre-locking snapshots
        that never persisted it) and ``resources`` its canonical
        shared-resource declarations — together they are what the
        blocking engine needs to rebuild ``B_ij`` from a snapshot.
        ``demand`` is the raw per-stage demand charged at admission
        (``None`` for pre-v4 restores) and ``seq`` the admission
        sequence number — what the degradation layer needs to rescale
        charges and break sacrifice ties deterministically.  Used by
        the serving layer's snapshot/restore.
        """
        return [
            (
                task_id,
                record.contributions,
                record.expiry,
                record.importance,
                record.deadline,
                record.resources,
                record.demand,
                record.seq,
            )
            for task_id, record in self._admitted.items()
        ]

    # ------------------------------------------------------------------
    # State restore (serving-layer snapshot support)
    # ------------------------------------------------------------------

    def load_admitted(
        self,
        task_id: Hashable,
        contributions: Sequence[float],
        expiry: float,
        importance: int = 0,
        live: Optional[Sequence[Optional[float]]] = None,
        departed_stages: Sequence[int] = (),
        deadline: float = 0.0,
        resources: Sequence[ResourceSpec] = (),
        demand: Optional[Sequence[float]] = None,
        seq: Optional[int] = None,
    ) -> None:
        """Re-install one admitted task's bookkeeping from a snapshot.

        The inverse of :meth:`iter_admitted` plus the trackers' live
        state: the admitted record keeps the originally charged
        ``contributions`` (so shedding rollback restores exactly what it
        removed), while the trackers only receive the ``live`` per-stage
        amounts — entries already released by idle resets stay released.

        Args:
            task_id: Task identifier (must not currently be admitted).
            contributions: Originally charged per-stage contributions.
            expiry: Absolute deadline of the task.
            importance: Semantic importance (shedding order).
            live: Per-stage amounts still counted by the trackers; a
                ``None`` entry marks a stage no longer tracking the
                task (its contribution was released by an idle reset —
                distinct from a tracked zero-cost contribution).
                Defaults to ``contributions`` (nothing released yet).
            departed_stages: Stages where the task already departed and
                awaits the next idle reset.
            deadline: The task's relative deadline ``D_i``; required
                (> 0) on a locking controller, where it feeds the
                blocking engine's priority key and normalization.
                Pre-locking snapshots never persisted it, so 0.0 marks
                "unknown" on non-locking controllers.
            resources: Canonical shared-resource declarations of the
                task; re-tracked by the blocking engine on a locking
                controller so ``beta_j`` and the budget are rebuilt
                bitwise.
            demand: Raw per-stage demand charged at admission time;
                ``None`` (pre-v4 snapshots) pins the record's charges
                across future capacity rescales.
            seq: Admission sequence number; ``None`` assigns the next
                counter value (legacy snapshots restore records in
                document order, so assignment stays deterministic).

        Raises:
            ValueError: If the task is already admitted or a vector has
                the wrong length.
        """
        if task_id in self._admitted:
            raise ValueError(f"task {task_id!r} is already admitted")
        charged = tuple(float(c) for c in contributions)
        amounts: Tuple[Optional[float], ...] = (
            charged
            if live is None
            else tuple(None if c is None else float(c) for c in live)
        )
        if len(charged) != self.num_stages or len(amounts) != self.num_stages:
            raise ValueError(
                f"contribution vectors must have {self.num_stages} entries"
            )
        raw: Optional[Tuple[float, ...]] = None
        if demand is not None:
            raw = tuple(float(c) for c in demand)
            if len(raw) != self.num_stages:
                raise ValueError(
                    f"demand vector must have {self.num_stages} entries"
                )
        specs = tuple(resources)
        self._locking_track(task_id, deadline, specs)
        departed = frozenset(departed_stages)
        for j, (tracker, amount) in enumerate(zip(self.trackers, amounts)):
            if amount is not None:
                tracker.add(task_id, amount, expiry)
                if j in departed:
                    tracker.mark_departed(task_id)
        if seq is None:
            self._admission_seq += 1
            seq = self._admission_seq
        else:
            seq = int(seq)
            if seq > self._admission_seq:
                self._admission_seq = seq
        self._admitted[task_id] = _Admitted(
            contributions=charged,
            expiry=expiry,
            importance=importance,
            deadline=float(deadline),
            resources=specs,
            demand=raw,
            seq=seq,
        )
        heapq.heappush(self._expiry_heap, (expiry, task_id))

    # ------------------------------------------------------------------
    # Degradation
    # ------------------------------------------------------------------

    def set_stage_capacity(self, stage: int, capacity: float) -> None:
        """Declare that ``stage`` now serves at ``capacity`` of nominal speed.

        Capacity-aware region rescaling: a stage running at capacity
        ``c`` needs ``C_ij / c`` time units to serve a demand of
        ``C_ij``, so future admission tests charge the inflated
        contribution ``C_ij / (c * D_i)``.  Contributions of already
        admitted tasks are left untouched — the test degrades gracefully
        rather than retroactively revoking admissions.

        ``capacity = 0.0`` marks a full outage: every admission through
        the stage is rejected until capacity is restored.

        Args:
            stage: Stage index.
            capacity: Fraction of nominal speed in ``[0, 1]``.

        Raises:
            ValueError: If ``capacity`` is outside ``[0, 1]`` or not
                finite.
        """
        if not math.isfinite(capacity) or not (0.0 <= capacity <= 1.0):
            raise ValueError(f"capacity must be in [0, 1], got {capacity}")
        self._capacities[stage] = capacity
        # Prospective-only changes break the charges == f(demand,
        # capacities) identity for the already-admitted set, so the
        # capacity-drift invariant stands down until the next rescale.
        self._charges_follow_capacity = False

    @property
    def charges_follow_capacity(self) -> bool:
        """Whether admitted charges are a pure function of the capacities.

        ``True`` after :meth:`rescale_stage_capacity` re-charged the
        admitted set; ``False`` after a prospective-only
        :meth:`set_stage_capacity`.  The auditor's ``capacity-drift``
        invariant only applies while this holds.
        """
        return self._charges_follow_capacity

    @property
    def admission_seq(self) -> int:
        """Monotonic admission counter (sacrifice tie-break order)."""
        return self._admission_seq

    def load_degradation_state(
        self, admission_seq: int, charges_follow_capacity: bool
    ) -> None:
        """Adopt snapshot-carried degradation bookkeeping (schema v4).

        Called by the serving layer's restore path *after* the admitted
        records are loaded; legacy snapshots (pre-v4) pass the counter
        value the restore loop assigned and ``False``.
        """
        if admission_seq < 0:
            raise ValueError(
                f"admission_seq must be >= 0, got {admission_seq}"
            )
        if admission_seq < self._admission_seq:
            raise ValueError(
                f"admission_seq {admission_seq} below the restored "
                f"records' maximum {self._admission_seq}"
            )
        self._admission_seq = int(admission_seq)
        self._charges_follow_capacity = bool(charges_follow_capacity)

    def rescale_stage_capacity(self, stage: int, capacity: float) -> None:
        """Authoritatively set ``stage``'s capacity and re-charge the admitted set.

        The online-degradation path: unlike the prospective
        :meth:`set_stage_capacity`, every admitted record carrying its
        raw demand is re-charged against the *full current* capacity
        vector using exactly the per-stage expression
        :meth:`_contributions` applies to fresh arrivals — so a
        controller that rescales and then admits is bitwise identical
        to a fresh controller built at the new capacities.  Tracker
        totals move through the exact accumulator (remove + add, both
        exact), preserving the canonical-per-multiset property crash
        recovery depends on.

        Stages at capacity 0.0 (outage) keep each record's previous
        charge — an infinite charge can never enter a tracker — and
        :meth:`repair_region` evicts demand-bearing tasks at outage
        stages instead.  Records restored from pre-v4 snapshots carry
        no raw demand and keep their charges unchanged.

        Args:
            stage: Stage index.
            capacity: Fraction of nominal speed in ``[0, 1]``.

        Raises:
            ValueError: If ``capacity`` is outside ``[0, 1]`` or not
                finite.
        """
        if not math.isfinite(capacity) or not (0.0 <= capacity <= 1.0):
            raise ValueError(f"capacity must be in [0, 1], got {capacity}")
        self._capacities[stage] = capacity
        self._charges_follow_capacity = True
        for task_id, record in self._admitted.items():
            if record.demand is None:
                continue
            charged = self._recharge(record)
            if charged == record.contributions:
                continue
            for tracker, old, new in zip(
                self.trackers, record.contributions, charged
            ):
                if new == old or task_id not in tracker:
                    # Bitwise-equal charge, or a stage that already
                    # released the task (idle reset): nothing to move.
                    continue
                departed = tracker.is_departed(task_id)
                tracker.remove(task_id)
                tracker.add(task_id, new, record.expiry)
                if departed:
                    tracker.mark_departed(task_id)
            record.contributions = charged

    def _recharge(self, record: _Admitted) -> Tuple[float, ...]:
        """Re-derive a record's charges from its raw demand.

        Mirrors :meth:`_contributions` stage by stage (same float
        expressions, same order) except at outage stages, where the
        record's existing charge is retained.
        """
        assert record.demand is not None
        contributions = []
        for j, (c, capacity) in enumerate(zip(record.demand, self._capacities)):
            if capacity == 1.0:
                contributions.append(c / record.deadline)
            elif capacity == 0.0:
                contributions.append(record.contributions[j])
            else:
                contributions.append(c / (capacity * record.deadline))
        return tuple(contributions)

    def region_ok(self) -> bool:
        """Whether the live admitted set satisfies Eq. 12/15 right now.

        Re-runs the region test over the *current* tracker state: every
        stage utilization strictly inside saturation and the summed
        delay factors within the (locking-aware) budget.  This is the
        post-repair feasibility check — fresh admissions are tested
        incrementally by the admission lane, but a capacity rescale moves
        already-charged utilization, which only this whole-set test
        catches.
        """
        if self.betas is not None and math.fsum(self.betas) >= 1.0:
            return False
        for tracker in self.trackers:
            if approx_ge(tracker.value, 1.0):
                return False
        return approx_le(self.region_value(), self.budget)

    def repair_region(self) -> List[Hashable]:
        """Evict admitted tasks until the feasible region holds again.

        The sacrifice loop of the degradation layer: victims are chosen
        in :class:`~repro.faults.degradation.BrownoutController` order —
        ascending importance class, ties broken by admission sequence
        (oldest first) — exactly the deterministic order replay needs.
        Two categories are evicted:

        1. every demand-bearing task using a stage in outage
           (capacity 0.0), unconditionally — the stage cannot serve
           them, and their retained charges would otherwise pin stale
           utilization; then
        2. further victims, lowest importance first, until
           :meth:`region_ok` passes.

        On a locking controller each eviction drops the victim's
        critical sections from the blocking state, so ``beta_j`` and
        the budget are re-previewed implicitly before the next
        :meth:`region_ok` evaluation — a repair plan is only accepted
        once both the utilization terms and the blocking budget fit.

        Returns:
            The evicted task ids, in eviction order.
        """
        sacrificed: List[Hashable] = []
        outage = [j for j, c in enumerate(self._capacities) if c == 0.0]
        if outage:
            doomed = [
                (record.importance, record.seq, task_id)
                for task_id, record in self._admitted.items()
                if record.demand is not None
                and any(record.demand[j] > 0.0 for j in outage)
            ]
            for _, _, task_id in sorted(doomed):
                self._evict(task_id)
                sacrificed.append(task_id)
        if self.region_ok():
            return sacrificed
        victims = sorted(
            (record.importance, record.seq, task_id)
            for task_id, record in self._admitted.items()
        )
        for _, _, task_id in victims:
            self._evict(task_id)
            sacrificed.append(task_id)
            if self.region_ok():
                break
        return sacrificed

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def would_admit(self, task: PipelineTask, now: float) -> bool:
        """Evaluate the O(N) test without committing the task."""
        self.expire(now)
        contributions = self._contributions(task)
        budget = self._candidate_budget(task)
        return budget is not None and self._fits(contributions, budget)

    def request(self, task: PipelineTask, now: float) -> AdmissionDecision:
        """Run the admission test and commit the task when it passes.

        The one-row call of the admission lane (:meth:`_admit_many_fast`),
        so a sequence of ``request`` calls and one :meth:`admit_many`
        over the same arrivals decide and commit identically.  On a
        locking controller the test runs against the budget the
        controller *would* hold after admitting the task — including
        the blocking its own critical sections add — so an arrival that
        would push ``sum_j beta_j`` out of the region is refused even
        when the utilization terms alone still fit.

        Args:
            task: The arriving task (its pipeline length must match).
            now: Current time, used to lapse expired contributions
                first.

        Returns:
            An :class:`AdmissionDecision`; when admitted, the task's
            contributions are installed on every stage until
            ``task.absolute_deadline``.

        Raises:
            ValueError: If the task's id still holds an admission at
                ``now`` (:meth:`collides`); nothing is changed.
        """
        return self._admit_many_fast([task], [now])[0]

    def admit_many(
        self,
        tasks: Sequence[PipelineTask],
        times: Optional[Sequence[float]] = None,
        presorted: bool = False,
    ) -> List[AdmissionDecision]:
        """Batched admission: decide a time-ordered arrival sequence in one pass.

        Runs the admission lane (:meth:`_admit_many_fast`) over the whole
        sequence, on every controller, locking or not.  Expiry sweeps
        run only once the earliest pending expiry has passed, and the
        region value returned with each decision is served from a
        per-stage cache of ``f(min(U_j, 1))`` terms instead of being
        recomputed ``O(N)`` per rejection.

        Correctness guarantee: the decisions, the reported region
        values and the final controller state are *bitwise identical*
        to the per-task reference loop that
        ``tests/test_vectorized_admission.py`` keeps as the lane's
        oracle — per task: :meth:`expire`, :meth:`_contributions`,
        :meth:`_candidate_budget`, :meth:`_fits`, install — at any batch
        split, :meth:`request` being the split into single rows.  The
        lane performs the exact same float operations in the exact same
        order as :meth:`_fits`, and cache entries are always recomputed
        from ``tracker.value`` with the same expression
        :meth:`region_value` uses — so not even the last ulp differs.

        The guarantee requires every task's expiry to lie strictly
        after its decision timestamp: the equal-timestamp expiry skip
        would otherwise keep an already-lapsed admission charged for
        the rest of its burst, where the oracle would have expired it.
        Such a task is dead on arrival anyway (its deadline passed
        before it was decided), so the batch path rejects the input
        outright.  Default timestamps always satisfy this
        (``absolute_deadline > arrival_time`` for any valid task).

        Args:
            tasks: Arriving tasks, ordered by decision time.
            times: Decision timestamp per task; defaults to each task's
                ``arrival_time``.  Must be non-decreasing, and each must
                precede its task's ``absolute_deadline``.
            presorted: The caller vouches that both preconditions
                already hold, so the validation sweep is skipped.  The
                serving layer qualifies: its pipeline clock rejects any
                timestamp regression before queueing, and its wire
                validation only accepts ``deadline > 0`` (so every
                ``arrival_time``-timestamped decision strictly precedes
                the task's expiry).

        Returns:
            One :class:`AdmissionDecision` per task, in input order.

        Raises:
            ValueError: If ``times`` has the wrong length, the
                timestamps are not non-decreasing, or a task would be
                decided at or after its absolute deadline (the latter
                two only checked when ``presorted`` is false), or a
                task reuses the id of a live admission (raised before
                that task changes anything).
        """
        task_list = list(tasks)
        if times is None:
            time_list = [task.arrival_time for task in task_list]
        else:
            time_list = [float(t) for t in times]
            if len(time_list) != len(task_list):
                raise ValueError(
                    f"{len(time_list)} timestamps for {len(task_list)} tasks"
                )
        if not presorted:
            prev = -math.inf
            for task, now in zip(task_list, time_list):
                if now < prev:
                    raise ValueError(
                        f"batch timestamps must be non-decreasing, got {prev} "
                        f"then {now}"
                    )
                prev = now
                # Raw comparison on purpose: expiry uses raw `expiry <= now`
                # (StageUtilizationTracker.expire_until), so the divergence
                # this precondition excludes begins exactly at equality.
                if now >= task.absolute_deadline:  # repro: noqa[FLT002] — must mirror the raw `expiry <= now` expiry comparison exactly
                    raise ValueError(
                        f"task {task.task_id!r} decided at {now}, at or after "
                        f"its absolute deadline {task.absolute_deadline}; "
                        "sequential equivalence requires every decision to "
                        "precede the task's expiry"
                    )
        return self._admit_many_fast(task_list, time_list)

    def _admit_many_fast(
        self, task_list: List[PipelineTask], time_list: List[float]
    ) -> List[AdmissionDecision]:
        """The admission lane: the one loop that decides and commits.

        :meth:`admit_many`, :meth:`request` and every re-test of
        :meth:`request_with_shedding` run through it.  Same decisions,
        same final state, same floats as the per-task reference loop in
        ``tests/test_vectorized_admission.py`` — DESIGN.md §16.1 maps
        each hoist to the same-ulp argument.  Per-task work is reduced
        to the irreducible float expressions:

        - without locking the budget is a loop constant; a locking row
          previews its own budget (:meth:`_candidate_budget`, where
          ``None`` refuses the row) and commits through
          :meth:`_locking_track`,
        - ``values`` mirrors each ``tracker.value`` float and is
          refreshed only when a tracker actually changes (install, or
          an :meth:`expire` that released utilization), so the region
          test reads a list instead of properties,
        - the contribution column is built into a preallocated row
          reused across tasks, with the all-nominal capacity vector
          pre-resolved to the plain ``c / D_i`` form,
        - :meth:`expire` is skipped entirely while the controller
          expiry heap's head (a lower bound on every live tracker
          expiry, since tracker entries are pushed alongside a
          controller entry with the same expiry) lies in the future,
        - the cached region sum is reused across consecutive
          rejections, which also share one frozen decision object.

        The inequality chain inlines ``approx_ge(u, 1.0)``,
        ``stage_delay_factor(u)`` and ``approx_le(value, budget)`` with
        identical float expressions in identical order; the inlined
        ``approx_*`` reductions are exact because ``u >= 0`` always
        holds here and a NaN utilization raises exactly where
        ``stage_delay_factor`` would.
        """
        trackers = self.trackers
        num_stages = self.num_stages
        blocking = self._blocking
        budget = self.budget
        demand_model = self.demand_model
        exact_demand = type(demand_model) is ExactDemand
        capacities = self._capacities
        nominal = True
        for capacity in capacities:
            if capacity != 1.0:
                nominal = False
                break
        heap = self._expiry_heap
        eps = EPS
        _sdf = stage_delay_factor
        values = [t.value for t in trackers]
        # f(min(U_j, 1)) per stage; kept exactly equal to the terms
        # region_value() would compute, so sum(cache) == region_value().
        cache = [_sdf(min(v, 1.0)) for v in values]
        region_total = sum(cache)
        row = [0.0] * num_stages
        # |budget|, hoisted for the inlined approx_eq tolerance term
        # max(1.0, |value|, |budget|): value >= 0 always (a sum of
        # non-negative region terms), so only the budget needs abs().
        abs_budget = budget if budget >= 0.0 else -budget  # repro: noqa[FLT002] — sign probe for the hoisted |budget|, not a boundary decision
        decision_cls = AdmissionDecision
        new_decision = decision_cls.__new__
        set_dict = object.__setattr__
        # Install, unrolled: prebound per-stage tracker adds, a locally
        # carried admission sequence, and direct record construction.
        admitted_map = self._admitted
        tracker_adds = [t.add for t in trackers]
        record_cls = _Admitted
        new_record = record_cls.__new__
        push_expiry = heapq.heappush
        next_expiry = heap[0][0] if heap else math.inf
        reject: Optional[AdmissionDecision] = None
        decisions: List[AdmissionDecision] = []
        append = decisions.append
        last_now: Optional[float] = None
        for task, now in zip(task_list, time_list):
            if last_now is None or now > last_now:
                if next_expiry <= now:
                    # A release of 0.0 cannot have moved the exact
                    # accumulator, so only a real release re-derives
                    # the mirrored values and cached region terms.
                    if self.expire(now):
                        values = [t.value for t in trackers]
                        cache = [_sdf(min(v, 1.0)) for v in values]
                        region_total = sum(cache)
                        reject = None
                    next_expiry = heap[0][0] if heap else math.inf
                last_now = now
            demand = (
                task.computation_times if exact_demand else demand_model.demand(task)
            )
            if len(demand) != num_stages:
                raise ValueError(
                    f"task {task.task_id} has {len(demand)} stages, controller has "
                    f"{num_stages}"
                )
            deadline = task.deadline
            if not nominal:
                # Degraded capacities: _contributions stage by stage
                # into the preallocated row.
                for j, c in enumerate(demand):
                    capacity = capacities[j]
                    if capacity == 1.0:
                        row[j] = c / deadline
                    elif capacity == 0.0:
                        row[j] = math.inf
                    else:
                        row[j] = c / (capacity * deadline)
            if blocking is None:
                fits = True
            else:
                # The budget the controller would hold after admitting
                # this row; None: the previewed blocking alone empties
                # the region.
                budget = self._candidate_budget(task)
                fits = budget is not None
                if fits:
                    abs_budget = budget if budget >= 0.0 else -budget  # repro: noqa[FLT002] — sign probe for the row's |budget|, not a boundary decision
            # Inline of _fits: same expressions, same order (equivalence
            # depends on it).  The nominal branch folds _contributions
            # into the test loop — each stage's ``c / deadline`` is
            # computed where it is consumed, so a task rejected at stage
            # j never pays the remaining divisions and no row is
            # materialized; the install path recomputes the same
            # divisions (float division is deterministic, so the
            # installed tuple holds the exact bits the row would have
            # carried).
            value = 0.0
            if fits and nominal:
                for v, c in zip(values, demand):
                    u = v + c / deadline
                    gap = 1.0 - u
                    # approx_ge(u, 1.0) specialized to u in [0, inf]: the
                    # tolerance term max(1.0, |u|, 1.0) is exactly 1.0 for
                    # u < 1.0, and |u - 1.0| is bitwise 1.0 - u there.
                    if u >= 1.0 or gap <= eps:
                        fits = False
                        break
                    if u != u:  # repro: noqa[FLT001] — NaN probe: request()'s isnan check without the call
                        raise ValueError(f"utilization must be finite, got {u}")
                    value += u * (1.0 - u / 2.0) / gap
                    # approx_le(value, budget): value <= budget
                    # short-circuits; past it, the inlined approx_eq
                    # complement (value and budget finite and unequal
                    # here, so the a == b / isinf / isnan prefixes all
                    # fall through to the tolerance test).
                    if value > budget:  # repro: noqa[FLT002] — inlined approx_le short-circuit, resolved by the tolerance test below
                        m = value if value > abs_budget else abs_budget  # repro: noqa[FLT002] — magnitude pick for the tolerance term, not an admission compare
                        if value - budget > eps * (m if m > 1.0 else 1.0):  # repro: noqa[FLT002] — inlined approx_eq complement, same tolerance expression
                            fits = False
                            break
                if fits:
                    contributions = tuple(c / deadline for c in demand)
            elif fits:
                for v, extra in zip(values, row):
                    u = v + extra
                    gap = 1.0 - u
                    if u >= 1.0 or gap <= eps:
                        fits = False
                        break
                    if u != u:  # repro: noqa[FLT001] — NaN probe: request()'s isnan check without the call
                        raise ValueError(f"utilization must be finite, got {u}")
                    value += u * (1.0 - u / 2.0) / gap
                    if value > budget:  # repro: noqa[FLT002] — inlined approx_le short-circuit, resolved by the tolerance test below
                        m = value if value > abs_budget else abs_budget  # repro: noqa[FLT002] — magnitude pick for the tolerance term, not an admission compare
                        if value - budget > eps * (m if m > 1.0 else 1.0):  # repro: noqa[FLT002] — inlined approx_eq complement, same tolerance expression
                            fits = False
                            break
                if fits:
                    contributions = tuple(row)
            if fits:
                # Install.  A reused live id raises before any stage
                # changes; then per-stage tracker adds, the admitted
                # record built directly with the sequence number
                # written back immediately, the blocking commit (which
                # reuses the row's preview), and the expiry heap.
                task_id = task.task_id
                if task_id in admitted_map and self.collides(task_id, now):
                    raise ValueError(
                        f"task {task_id!r} is already admitted and still holds "
                        "charges"
                    )
                expiry = task.arrival_time + deadline
                for add, contribution in zip(tracker_adds, contributions):
                    add(task_id, contribution, expiry)
                self._admission_seq = seq = self._admission_seq + 1
                record = new_record(record_cls)
                record.__dict__ = {
                    "contributions": contributions,
                    "expiry": expiry,
                    "importance": task.importance,
                    "deadline": deadline,
                    "resources": task.resources,
                    "demand": tuple(demand),
                    "seq": seq,
                }
                admitted_map[task_id] = record
                if blocking is not None:
                    self._locking_track(task_id, deadline, task.resources)
                push_expiry(heap, (expiry, task_id))
                if expiry < next_expiry:
                    next_expiry = expiry
                for j, tracker in enumerate(trackers):
                    v = tracker.value
                    values[j] = v
                    cache[j] = _sdf(min(v, 1.0))
                region_total = sum(cache)
                reject = None
                # Frozen-dataclass fast construction: __init__ +
                # frozen __setattr__ cost twice what the admit lane
                # can afford, and the field set is fixed.
                admitted = new_decision(decision_cls)
                set_dict(
                    admitted,
                    "__dict__",
                    {"admitted": True, "region_value": region_total, "shed": ()},
                )
                append(admitted)
            else:
                if reject is None:
                    # Frozen dataclass: consecutive rejections at an
                    # unchanged region share one decision object.
                    reject = AdmissionDecision(
                        admitted=False, region_value=region_total
                    )
                append(reject)
        return decisions

    def request_with_shedding(
        self, task: PipelineTask, now: float
    ) -> AdmissionDecision:
        """Admit an important task, shedding less important load if needed.

        Implements the Section-5 overload architecture: if the arrival
        would leave the feasible region, admitted tasks of *strictly
        lower* importance are shed in increasing order of importance
        (FIFO within a class) until the arrival fits or no candidates
        remain.  Shedding is rolled back if the arrival still cannot be
        admitted.  The first test and each re-test after an eviction
        run through the admission lane, which re-previews a locking
        controller's budget every time.

        Returns:
            The decision; ``shed`` lists the removed task ids (callers
            must abort those tasks in the execution substrate).
        """
        lane = self._admit_many_fast
        decision = lane([task], [now])[0]
        if decision.admitted:
            return decision
        candidates = sorted(
            (
                (record.importance, task_id)
                for task_id, record in self._admitted.items()
                if record.importance < task.importance
            ),
        )
        shed: List[Hashable] = []
        rollback: List[Tuple[Hashable, _Admitted, Tuple[float, ...]]] = []
        for _, victim_id in candidates:
            record = self._admitted[victim_id]
            if not any(t.contribution_of(victim_id) for t in self.trackers):
                # All of the victim's contributions already lapsed
                # (idle resets / expiry): shedding it frees nothing.
                # On a locking controller its blocking sections may
                # still be charged, but eviction of zero-contribution
                # blockers is handled by expiry, not shedding.
                continue
            removed = self._evict(victim_id)
            shed.append(victim_id)
            rollback.append((victim_id, record, removed))
            decision = lane([task], [now])[0]
            if decision.admitted:
                return AdmissionDecision(
                    admitted=True, region_value=decision.region_value, shed=tuple(shed)
                )
        # Not admissible even after shedding everything less important:
        # roll the victims back (exactly the amounts removed) and reject.
        for victim_id, record, removed in rollback:
            self._reinstall(victim_id, record, removed)
        return AdmissionDecision(admitted=False, region_value=self.region_value())

    # ------------------------------------------------------------------
    # Lifecycle notifications
    # ------------------------------------------------------------------

    def expire(self, now: float) -> bool:
        """Lapse contributions of tasks whose deadlines passed.

        On a locking controller an expired job also stops blocking:
        its critical sections leave the ``B_ij`` bound and the budget
        grows back accordingly.

        Returns:
            Whether any stage released utilization.  Lapsing only
            zero-cost contributions cannot move a stage's exact sum, so
            the admission lane re-reads its mirrored tracker values
            only when this is true.
        """
        released = False
        for tracker in self.trackers:
            if tracker.expire_until(now):
                released = True
        heap = self._expiry_heap
        admitted = self._admitted
        pop = heapq.heappop
        blocking = self._blocking
        while heap and heap[0][0] <= now:
            _, task_id = pop(heap)
            record = admitted.get(task_id)
            if record is not None and record.expiry <= now:
                del admitted[task_id]
                if blocking is not None:
                    self._locking_discard(task_id)
        return released

    def notify_subtask_departure(self, task_id: Hashable, stage: int) -> None:
        """Record that the task finished executing at ``stage``.

        The stage's tracker will drop the contribution at its next idle
        instant (if the idle-reset rule is enabled).
        """
        self.trackers[stage].mark_departed(task_id)

    def notify_stage_idle(self, stage: int) -> float:
        """Apply the idle-reset rule at ``stage``; returns released utilization."""
        if not self.reset_on_idle:
            return 0.0
        return self.trackers[stage].reset_on_idle()

    def withdraw(self, task_id: Hashable) -> None:
        """Remove a task's contributions everywhere (abort/shed support)."""
        self._evict(task_id)

    def next_expiry(self) -> float:
        """Earliest pending contribution expiry across stages (``inf`` if none)."""
        return min((t.next_expiry() for t in self.trackers), default=math.inf)

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------

    def resync(self, now: float, frontier: Dict[Hashable, int]) -> ResyncReport:
        """Rebuild tracker state from the ground-truth set of in-flight tasks.

        Recovery path for lost ``notify_subtask_departure`` /
        ``notify_stage_idle`` events (or any other bookkeeping
        corruption): the canonical synthetic-utilization state is a pure
        function of the admitted records and each task's execution
        frontier, so it can be reconstructed wholesale.

        For every unexpired admitted task the contribution vector is
        re-installed; stages the task has already departed (``stage <
        frontier``) are re-marked departed so the next idle instant
        releases them, per the Section-4 reset rule.  Contributions with
        no admitted record (orphans) and records past their deadline are
        dropped.

        Args:
            now: Current time (expired records are discarded first).
            frontier: Ground truth per live task: the stage index the
                task currently occupies (``num_stages`` once it has left
                the last stage).  Tasks absent from the mapping are
                treated as fully departed.

        Returns:
            A :class:`ResyncReport` summarizing the rebuild.
        """
        self.expire(now)
        expired = [
            task_id
            for task_id, record in self._admitted.items()
            if record.expiry <= now
        ]
        for task_id in expired:
            del self._admitted[task_id]
            self._locking_discard(task_id)
        live = set(self._admitted)
        orphans = sum(
            len(tracker.tracked_ids() - live) for tracker in self.trackers
        )
        for tracker in self.trackers:
            tracker.clear()
        self._expiry_heap = []
        restored = 0
        departures = 0
        for task_id, record in self._admitted.items():
            stage_frontier = frontier.get(task_id, self.num_stages)
            for j, (tracker, contribution) in enumerate(
                zip(self.trackers, record.contributions)
            ):
                tracker.add(task_id, contribution, record.expiry)
                restored += 1
                if j < stage_frontier:
                    tracker.mark_departed(task_id)
                    departures += 1
            heapq.heappush(self._expiry_heap, (record.expiry, task_id))
        return ResyncReport(
            restored=restored,
            departures_marked=departures,
            dropped_orphans=orphans,
            dropped_expired=len(expired),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _contributions(self, task: PipelineTask) -> Tuple[float, ...]:
        demand = self.demand_model.demand(task)
        if len(demand) != self.num_stages:
            raise ValueError(
                f"task {task.task_id} has {len(demand)} stages, controller has "
                f"{self.num_stages}"
            )
        contributions = []
        for c, capacity in zip(demand, self._capacities):
            if capacity == 1.0:
                contributions.append(c / task.deadline)
            elif capacity == 0.0:
                # Outage: an infinite charge can never fit, so the task
                # is rejected by _fits before anything is installed.
                contributions.append(math.inf)
            else:
                contributions.append(c / (capacity * task.deadline))
        return tuple(contributions)

    def _candidate_budget(self, task: PipelineTask) -> Optional[float]:
        """Region budget the controller would hold after admitting ``task``.

        Without locking this is the static :attr:`budget`.  With
        locking it is ``alpha (1 - sum_j beta_j)`` over the previewed
        blocking vector that *includes* the candidate's own critical
        sections (and the candidate as a blocking victim).  ``None``
        means the previewed blocking alone empties the region — the
        arrival is refused before any utilization term is examined.
        """
        if self._blocking is None:
            return self.budget
        betas = self._blocking.preview(task.task_id, task.deadline, task.resources)
        if math.fsum(betas) >= 1.0:
            return None
        return region_budget(self.alpha, betas)

    def _locking_track(
        self,
        task_id: Hashable,
        deadline: float,
        resources: Tuple[ResourceSpec, ...],
    ) -> None:
        """Commit a task to the blocking engine; betas/budget follow."""
        if self._blocking is None:
            return
        self.betas = self._blocking.add(task_id, deadline, resources)
        self.budget = region_budget(self.alpha, self.betas)

    def _locking_discard(self, task_id: Hashable) -> None:
        """Drop a task from the blocking engine; betas/budget follow.

        Removal can only relax the bound, so the refreshed budget never
        raises (``sum beta`` is monotonically non-increasing here).
        """
        if self._blocking is None or task_id not in self._blocking:
            return
        self.betas = self._blocking.remove(task_id)
        self.budget = region_budget(self.alpha, self.betas)

    def _fits(self, contributions: Tuple[float, ...], budget: float) -> bool:
        """The region test for a candidate's contributions at ``budget``.

        The scalar form the admission lane inlines; :meth:`would_admit`
        and the lane's test oracle call it directly.
        """
        value = 0.0
        for tracker, extra in zip(self.trackers, contributions):
            u = tracker.value + extra
            if approx_ge(u, 1.0):
                return False
            value += stage_delay_factor(u)
            if not approx_le(value, budget):
                return False
        return True

    def _evict(self, task_id: Hashable) -> Tuple[float, ...]:
        """Remove a task everywhere; returns what was actually removed.

        Contributions that already lapsed (deadline expiry or idle
        reset) come back as 0.0 so a later rollback restores exactly
        the pre-eviction state rather than resurrecting released
        utilization.
        """
        removed = tuple(tracker.remove(task_id) for tracker in self.trackers)
        self._admitted.pop(task_id, None)
        self._locking_discard(task_id)
        return removed

    def _reinstall(
        self, task_id: Hashable, record: _Admitted, removed: Tuple[float, ...]
    ) -> None:
        for tracker, contribution in zip(self.trackers, removed):
            if contribution:
                tracker.add(task_id, contribution, record.expiry)
        self._admitted[task_id] = record
        self._locking_track(task_id, record.deadline, record.resources)
        heapq.heappush(self._expiry_heap, (record.expiry, task_id))
