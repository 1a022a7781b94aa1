"""Crash recovery: rebuild a gateway bitwise from its durable state.

Recovery rebuilds a gateway from its durable state directory: load the
compaction snapshot (if one exists; older controller schemas upgrade
on the one restore path of :mod:`repro.serve.snapshot`), replay the
journal suffix through a fresh
:class:`~repro.serve.gateway.AdmissionGateway`, audit every recovered
controller with :func:`~repro.serve.snapshot.verify_restored` (the
``restore`` op's non-mutating audit), and hand back a
:class:`~repro.serve.journal.DurableGateway` ready to serve.  Because
the core is deterministic and the journal is written *before* each
mutation — a refused request included, which replays to the same
error — the recovered gateway is bitwise identical to the pre-crash
one: :func:`registry_fingerprint` compares pipeline state documents,
pending admission batches and the idempotency window.

The chaos gates of :mod:`repro.serve.chaos` crash durable gateways and
fleet workers on purpose and hold every recovery to that contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from .gateway import DEFAULT_DEDUP_WINDOW, AdmissionGateway
from .journal import (
    DEFAULT_SNAPSHOT_EVERY,
    GATEWAY_SNAPSHOT_FORMAT,
    DurableGateway,
    Journal,
    scan_journal,
)
from .protocol import encode, task_to_wire
from .registry import ServedPipeline
from .snapshot import verify_restored

__all__ = [
    "SNAPSHOT_FILE",
    "JOURNAL_FILE",
    "RecoveryError",
    "RecoveryReport",
    "restore_gateway_snapshot",
    "recover",
    "registry_fingerprint",
]

#: File names inside a gateway state directory.
SNAPSHOT_FILE = "snapshot.json"
JOURNAL_FILE = "journal.ndjson"


class RecoveryError(ValueError):
    """Durable state that cannot be recovered into a clean gateway."""


@dataclass
class RecoveryReport:
    """What one recovery pass found and did.

    Attributes:
        snapshot_loaded: Whether a compaction snapshot was restored.
        snapshot_seq: Journal sequence the snapshot covered (0 if none).
        last_seq: Highest journal sequence after replay.
        replayed: Journal records applied.
        skipped: Records at or below ``snapshot_seq`` (a crash between
            snapshot write and journal reset leaves these behind).
        truncated_bytes: Torn-tail bytes removed from the journal.
        pipelines: Recovered pipeline names, sorted.
        region_values: Post-recovery region value per pipeline.
    """

    snapshot_loaded: bool = False
    snapshot_seq: int = 0
    last_seq: int = 0
    replayed: int = 0
    skipped: int = 0
    truncated_bytes: int = 0
    pipelines: List[str] = field(default_factory=list)
    region_values: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_loaded": self.snapshot_loaded,
            "snapshot_seq": self.snapshot_seq,
            "last_seq": self.last_seq,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "truncated_bytes": self.truncated_bytes,
            "pipelines": list(self.pipelines),
            "region_values": dict(self.region_values),
        }


def restore_gateway_snapshot(
    gateway: AdmissionGateway, doc: Dict[str, Any]
) -> int:
    """Load a gateway-level snapshot document into a fresh gateway.

    Returns:
        The journal sequence number the snapshot covers.

    Raises:
        RecoveryError: On a wrong format tag or an unloadable pipeline.
    """
    if not isinstance(doc, dict) or doc.get("format") != GATEWAY_SNAPSHOT_FORMAT:
        raise RecoveryError(
            f"expected a {GATEWAY_SNAPSHOT_FORMAT!r} snapshot document, "
            f"got format {doc.get('format') if isinstance(doc, dict) else doc!r}"
        )
    try:
        for pipeline_doc in doc["pipelines"]:
            gateway.registry.adopt(ServedPipeline.from_snapshot(pipeline_doc))
        gateway.draining = bool(doc["draining"])
        gateway.errors = int(doc["errors"])
        gateway.op_counts = {
            key: int(value) for key, value in doc["op_counts"].items()
        }
        gateway.dedup_hits = int(doc["dedup_hits"])
        gateway.load_dedup_state(doc["dedup"])
        return int(doc["seq"])
    except RecoveryError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise RecoveryError(f"unloadable gateway snapshot: {exc}") from exc


def recover(
    state_dir: Union[str, Path],
    fsync: bool = False,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    dedup_window: int = DEFAULT_DEDUP_WINDOW,
) -> Tuple[DurableGateway, RecoveryReport]:
    """Rebuild a durable gateway from its state directory.

    An empty (or missing) directory recovers to a fresh gateway, so
    this is also the way to *open* durable state for the first time.
    Every recovered controller is audited by
    :func:`~repro.serve.snapshot.verify_restored`, which leaves it
    bitwise identical to the pre-crash one.

    Raises:
        RecoveryError: On an unloadable snapshot or a recovered
            controller that fails the invariant audit.
        JournalError: On mid-journal corruption or a sequence gap.
    """
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    snapshot_path = state_dir / SNAPSHOT_FILE
    journal_path = state_dir / JOURNAL_FILE

    gateway = AdmissionGateway(dedup_window=dedup_window)
    report = RecoveryReport()
    if snapshot_path.exists():
        with open(snapshot_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        report.snapshot_seq = restore_gateway_snapshot(gateway, doc)
        report.snapshot_loaded = True

    scan = scan_journal(journal_path)
    report.truncated_bytes = scan.truncated_bytes
    report.last_seq = report.snapshot_seq
    for record in scan.records:
        if record["seq"] <= report.snapshot_seq:
            # The snapshot already covers this record: the pre-crash
            # gateway checkpointed but died before resetting the
            # journal.  Replaying it would double-apply the op.
            report.skipped += 1
            continue
        op = record["op"]
        if op.get("synthetic") and op.get("op") == "drain":
            gateway.drain()
        else:
            gateway.handle_line(encode(op), origin=None)
        report.replayed += 1
        report.last_seq = record["seq"]

    for pipeline in gateway.registry:
        violations = verify_restored(pipeline.controller, pipeline.clock)
        if violations:
            raise RecoveryError(
                f"recovered pipeline {pipeline.name!r} failed audit: "
                + "; ".join(f"{v.kind}: {v.detail}" for v in violations)
            )
        report.pipelines.append(pipeline.name)
        report.region_values[pipeline.name] = pipeline.controller.region_value()
    report.pipelines.sort()

    journal = Journal(journal_path, fsync=fsync, next_seq=report.last_seq + 1)
    durable = DurableGateway(
        gateway,
        journal,
        snapshot_path,
        snapshot_every=snapshot_every,
        last_snapshot_seq=report.snapshot_seq,
    )
    # Replayed ops count toward the compaction period — otherwise a
    # gateway that crashes faster than ``snapshot_every`` fresh ops
    # arrive replays an ever-growing journal on every recovery.
    durable._ops_since_snapshot = report.replayed
    durable._maybe_compact()
    return durable, report


def registry_fingerprint(gateway: Union[AdmissionGateway, DurableGateway]) -> str:
    """Canonical JSON string of everything the durability contract covers.

    Includes each pipeline's snapshot body
    (:meth:`~repro.serve.registry.ServedPipeline.state_doc`: policy,
    virtual clock, serving counters, controller snapshot, degradation
    state) plus its *pending* admission-batch queue, and the gateway's
    drain flag and idempotency window.  Deliberately
    excludes ``op_counts``/``errors``/``dedup_hits`` — those are
    diagnostics (dedup hits, for one, are served without journaling).
    Two gateways with equal fingerprints make identical future
    decisions.
    """
    core = gateway.gateway if isinstance(gateway, DurableGateway) else gateway
    doc = {
        "draining": core.draining,
        "dedup": core.dedup_state(),
        "pipelines": [
            {
                **pipeline.state_doc(),
                "pending": [
                    task_to_wire(task) for task in pipeline.pending_tasks()
                ],
            }
            for pipeline in core.registry
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
