"""Snapshot/restore of admission-controller state.

The controller's bookkeeping is small and fully explicit — per-stage
reserved baselines and capacities, plus one record per admitted task
(charged contributions, expiry, importance) and the trackers' live
per-stage state (amounts still counted, departed marks).  A snapshot
serializes exactly that as a JSON-safe document; restore rebuilds a
controller whose *future decisions* match the snapshotted one.

Floats survive the JSON round trip exactly (shortest-repr encoding is
lossless for IEEE doubles), and the snapshot carries each stage's
*exact accumulator state* alongside the per-task contributions, so a
restored controller is *bitwise identical* to the snapshotted one —
same future decisions, same region values, down to the last ulp, and
independent of the order the records are replayed in.  Each record
also carries the task's deadline and resources (the online PCP
blocking state), raw demand and admission sequence number (capacity
rescales and sacrifice tie-breaks).  Crash recovery
(``repro.serve.recovery``) leans on this to prove a recovered gateway
equivalent to one that never crashed.

There is one restore path: :func:`upgrade_snapshot` lifts an older
document v1 → v2 → v3 → v4 and is the only code that knows how the
schemas differ; :func:`restore_controller` loads the current schema
with every field required.  :func:`verify_restored` audits a private
copy with the :class:`~repro.core.audit.ControllerAuditor`, so an audit
never changes the controller it vouches for; the gateway's ``restore``
operation and crash recovery refuse state that does not audit clean.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.admission import (
    DemandModel,
    ExactDemand,
    MeanDemand,
    PipelineAdmissionController,
    ScaledDemand,
)
from ..core.audit import ControllerAuditor, InvariantViolation
from ..core.numeric import ExactSum
from ..locking.model import resources_from_wire, resources_to_wire

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_FORMAT_V1",
    "SNAPSHOT_FORMAT_V2",
    "SNAPSHOT_FORMAT_V3",
    "SUPPORTED_SNAPSHOT_FORMATS",
    "controller_snapshot",
    "upgrade_snapshot",
    "restore_controller",
    "verify_restored",
    "demand_model_to_wire",
    "demand_model_from_wire",
]

#: Version tag embedded in every snapshot document written today:
#: schema v4 adds the degradation state — per-record raw demand and
#: admission sequence number, plus the controller's admission counter
#: and charges-follow-capacity flag.
SNAPSHOT_FORMAT = "repro.serve.controller-snapshot/4"

#: The locking flag plus per-record deadlines and resources.
SNAPSHOT_FORMAT_V3 = "repro.serve.controller-snapshot/3"

#: Exact per-stage accumulator states, no resource model.
SNAPSHOT_FORMAT_V2 = "repro.serve.controller-snapshot/2"

#: Rounded per-stage running sums (the first writer kept none).
SNAPSHOT_FORMAT_V1 = "repro.serve.controller-snapshot/1"

#: Every format :func:`restore_controller` accepts, newest first.
SUPPORTED_SNAPSHOT_FORMATS = (
    SNAPSHOT_FORMAT,
    SNAPSHOT_FORMAT_V3,
    SNAPSHOT_FORMAT_V2,
    SNAPSHOT_FORMAT_V1,
)


def demand_model_to_wire(model: DemandModel) -> Dict[str, Any]:
    """Encode a known demand model as a JSON document.

    Raises:
        ValueError: For custom :class:`DemandModel` subclasses the wire
            format has no spelling for.
    """
    if isinstance(model, ScaledDemand):
        return {"kind": "scaled", "factor": model.factor}
    if isinstance(model, MeanDemand):
        return {"kind": "mean", "means": list(model.mean_computation_times)}
    if isinstance(model, ExactDemand):
        return {"kind": "exact"}
    raise ValueError(f"demand model {type(model).__name__} has no wire encoding")


def demand_model_from_wire(doc: Optional[Dict[str, Any]]) -> DemandModel:
    """Decode a demand-model document (``None`` means exact demand).

    Raises:
        ValueError: On a non-object document, an unknown ``kind`` or
            missing parameters.
    """
    if doc is None:
        return ExactDemand()
    if not isinstance(doc, dict):
        raise ValueError("demand model must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "exact":
            return ExactDemand()
        if kind == "scaled":
            return ScaledDemand(float(doc["factor"]))
        if kind == "mean":
            return MeanDemand([float(c) for c in doc["means"]])
    except KeyError as exc:
        raise ValueError(f"demand model {kind!r} requires {exc}") from exc
    raise ValueError(f"unknown demand model kind {kind!r}")


def controller_snapshot(
    controller: PipelineAdmissionController,
) -> Dict[str, Any]:
    """Serialize a controller's full state as a JSON-safe document.

    The admitted records are emitted sorted by task id so a given
    controller state always snapshots to byte-identical JSON.

    Raises:
        ValueError: If the controller uses a demand model the wire
            format cannot express, or an admitted task id is not an
            integer (the protocol's task-id type).
    """
    records = controller.iter_admitted()
    for task_id, *_ in records:
        _check_task_id(task_id)
    admitted: List[Dict[str, Any]] = []
    tracked = [t.tracked_ids() for t in controller.trackers]
    for (
        task_id,
        contributions,
        expiry,
        importance,
        deadline,
        resources,
        demand,
        seq,
    ) in sorted(records, key=lambda record: record[0]):
        # None marks a stage that no longer tracks the task (released
        # by an idle reset) — distinct from a tracked 0.0 contribution
        # (a zero-cost stage), which must survive the round trip so
        # departed marks and idle-reset bookkeeping stay exact.
        live = [
            t.contribution_of(task_id) if task_id in ids else None
            for t, ids in zip(controller.trackers, tracked)
        ]
        departed = [
            j for j, t in enumerate(controller.trackers) if t.is_departed(task_id)
        ]
        admitted.append(
            {
                "task_id": task_id,
                "contributions": list(contributions),
                "expiry": expiry,
                "importance": importance,
                # Schema v3: relative deadline D_i and the canonical
                # resource declarations — all the blocking engine needs
                # to rebuild B_ij / beta_j bitwise on restore.
                "deadline": deadline,
                "resources": resources_to_wire(resources),
                # Schema v4: the raw demand charged at admission (None
                # for records whose lineage predates v4 — their charges
                # stay pinned across rescales) and the admission
                # sequence number (sacrifice tie-break order).
                "demand": None if demand is None else list(demand),
                "seq": seq,
                "live": live,
                "departed": departed,
            }
        )
    return {
        "format": SNAPSHOT_FORMAT,
        "num_stages": controller.num_stages,
        "alpha": controller.alpha,
        "betas": None if controller.betas is None else list(controller.betas),
        "locking": controller.locking,
        "reserved": [t.reserved for t in controller.trackers],
        "reset_on_idle": controller.reset_on_idle,
        "capacities": list(controller.stage_capacities()),
        # Schema v4 degradation state: the monotonic admission counter
        # and whether charges are a pure function of the capacities
        # (set by an authoritative rescale).
        "admission_seq": controller.admission_seq,
        "charges_follow_capacity": controller.charges_follow_capacity,
        "demand_model": demand_model_to_wire(controller.demand_model),
        "admitted": admitted,
        # Rounded per-stage running sums: diagnostics, and what a v1
        # reader would have recorded.  The decision-relevant state is
        # carried exactly by `accumulators` below.
        "sums": [t.audit_sums()[0] for t in controller.trackers],
        # Exact per-stage accumulator state (schema v2).  For a healthy
        # tracker this equals the exact sum of its live contributions —
        # order-independent by construction — but snapshots whose
        # lineage passed through a legacy v1 restore may carry a
        # rounded total; adopting the recorded state verbatim keeps
        # either lineage bitwise-stable across round trips.
        "accumulators": [t.exact_state() for t in controller.trackers],
    }


def _check_task_id(task_id: Any) -> None:
    if not isinstance(task_id, int):
        raise ValueError(
            f"task id {task_id!r} is not an integer; snapshots require "
            "protocol-typed ids"
        )


def _records(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The document's admitted records, which must be JSON objects."""
    records = doc["admitted"]
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        raise ValueError("snapshot admitted must be a list of record objects")
    return records


def _v1_to_v2(doc: Dict[str, Any]) -> None:
    """Rounded running sums become exact accumulator states.

    The first v1 writer kept no sums; its trackers held the exact sum
    of the live amounts.  The capacities vector counts the stages, so
    a hostile ``num_stages`` costs nothing here (the loader checks it).
    """
    sums = doc.get("sums")
    if sums is None:
        totals = [ExactSum() for _ in doc["capacities"]]
        for record in doc["admitted"]:
            for total, amount in zip(totals, record["live"]):
                if amount is not None:
                    total.add(float(amount))
    else:
        totals = [ExactSum() for _ in sums]
        for total, value in zip(totals, sums):
            total.load_float(float(value))
    doc["accumulators"] = [total.state() for total in totals]


def _v2_to_v3(doc: Dict[str, Any]) -> None:
    """Static betas; records with unknown deadline 0.0 and no resources.

    A demand can only be re-charged against a known deadline, so a
    record that takes the unknown one keeps pinned charges.
    """
    doc.setdefault("locking", False)
    for record in doc["admitted"]:
        if "deadline" not in record:
            record.update(deadline=0.0, demand=None)
        record.setdefault("resources", [])


def _v3_to_v4(doc: Dict[str, Any]) -> None:
    """Pinned charges; a record without ``seq`` takes the next number
    after the highest seen so far, and the counter is the highest."""
    counter = 0
    for record in doc["admitted"]:
        if record.get("seq") is None:
            counter += 1
            record["seq"] = counter
        else:
            counter = max(counter, int(record["seq"]))
        record.setdefault("demand", None)
    doc.setdefault("admission_seq", counter)
    doc.setdefault("charges_follow_capacity", False)


#: One step per schema bump, oldest first.  A format's index in
#: :data:`SUPPORTED_SNAPSHOT_FORMATS` (newest first) counts the steps
#: it is behind, so it runs that many of the last ones.
_UPGRADES = (_v1_to_v2, _v2_to_v3, _v3_to_v4)


def upgrade_snapshot(doc: Any) -> Dict[str, Any]:
    """Lift a controller snapshot of any supported schema to the current one.

    Pure: a current document comes back as is, an older one as an
    upgraded copy.  Each step only fills in what its schema lacks, so
    fields an older writer did carry (``seq``/``demand`` on a v3
    record) are kept.

    Raises:
        ValueError: On a missing/unknown format tag or admitted records
            that are not objects.
    """
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt not in SUPPORTED_SNAPSHOT_FORMATS:
        raise ValueError(
            f"unsupported snapshot format {fmt!r}; "
            f"expected one of {SUPPORTED_SNAPSHOT_FORMATS!r}"
        )
    if fmt == SNAPSHOT_FORMAT:
        return doc
    # The steps assign keys of the document and its records only.
    records = [dict(record) for record in _records(doc)]
    doc = dict(doc, format=SNAPSHOT_FORMAT, admitted=records)
    for step in _UPGRADES[-SUPPORTED_SNAPSHOT_FORMATS.index(fmt):]:
        step(doc)
    return doc


def restore_controller(state: Dict[str, Any]) -> PipelineAdmissionController:
    """Rebuild a controller from a :func:`controller_snapshot` document.

    Older schemas are lifted by :func:`upgrade_snapshot` first; the
    current one is loaded with every field required.

    Raises:
        ValueError: On a missing/unknown format tag, a record or vector
            the writer could not have produced, or state that
            disagrees with its own records.
    """
    state = upgrade_snapshot(state)
    records = _records(state)
    locking = bool(state["locking"])
    controller = PipelineAdmissionController(
        num_stages=int(state["num_stages"]),
        alpha=float(state["alpha"]),
        betas=None if locking else state["betas"],
        reserved=state["reserved"],
        demand_model=demand_model_from_wire(state["demand_model"]),
        reset_on_idle=bool(state["reset_on_idle"]),
        locking=locking,
    )
    capacities = state["capacities"]
    if len(capacities) != controller.num_stages:
        raise ValueError(
            f"snapshot has {len(capacities)} capacities for "
            f"{controller.num_stages} stages"
        )
    for stage, capacity in enumerate(capacities):
        if capacity != 1.0:
            controller.set_stage_capacity(stage, float(capacity))
    for record in records:
        task_id = record["task_id"]
        _check_task_id(task_id)
        deadline = float(record["deadline"])
        if record["demand"] is not None and not deadline > 0:
            # Rescales and the auditor divide a raw demand by D_i.
            raise ValueError(
                f"task {task_id} carries a demand but its deadline "
                f"{deadline!r} is not positive"
            )
        controller.load_admitted(
            task_id=task_id,
            contributions=record["contributions"],
            expiry=float(record["expiry"]),
            importance=int(record["importance"]),
            live=record["live"],
            departed_stages=record["departed"],
            deadline=deadline,
            resources=resources_from_wire(record["resources"]),
            demand=record["demand"],
            seq=record["seq"],
        )
    controller.load_degradation_state(
        admission_seq=int(state["admission_seq"]),
        charges_follow_capacity=bool(state["charges_follow_capacity"]),
    )
    if locking:
        # The online beta vector is derived state: the records must
        # rebuild exactly the vector the snapshotted controller held.
        recorded = state["betas"]
        rebuilt = None if controller.betas is None else list(controller.betas)
        if recorded != rebuilt:
            raise ValueError(
                f"snapshot beta vector {recorded!r} does not match the "
                f"blocking state rebuilt from its records {rebuilt!r}"
            )
    accumulators = state["accumulators"]
    if len(accumulators) != controller.num_stages:
        raise ValueError(
            f"snapshot has {len(accumulators)} accumulator states for "
            f"{controller.num_stages} stages"
        )
    for tracker, acc_state in zip(controller.trackers, accumulators):
        tracker.load_exact(acc_state)
    return controller


def verify_restored(
    controller: PipelineAdmissionController, now: Optional[float]
) -> List[InvariantViolation]:
    """Audit a controller's internal consistency without changing it.

    Runs every ground-truth-free :class:`ControllerAuditor` check
    (sum drift, negative utilization, orphan and expired
    contributions) at ``now`` — a pipeline clock, where ``None`` (no
    timestamp seen yet) audits at 0.0.  The auditor's expiry sweep
    mutates what it audits, so it audits a snapshot/restore copy and
    ``controller`` stays bitwise what it was.  A clean controller
    returns an empty list.
    """
    audited = restore_controller(controller_snapshot(controller))
    return ControllerAuditor(audited).audit(0.0 if now is None else now)
