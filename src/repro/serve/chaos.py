"""One chaos harness for the serve layer's crash, degradation and fleet gates.

:func:`run_chaos` drives a victim and a never-crashed shadow in lockstep
through one seeded op stream, injects faults, recovers the victim, and
compares the two with :func:`~repro.serve.recovery.registry_fingerprint`;
:func:`chaos_gate_failures` turns the report into an accept/reject gate
(``python -m repro.serve.loadgen --chaos-*``, ``make serve-smoke``, CI).
The three topologies share the client, the crash path and the gate; they
differ in the data of :data:`TOPOLOGIES` and in the faults only one of
them injects:

``crash``
    A durable gateway crashes once per cycle on a seeded op, with one of
    the :data:`~repro.faults.schedule.WORKER_KILL_KINDS`:

    ``torn``
        ``kill -9`` mid-journal-write: a prefix of the record reaches
        disk.  The op was never acknowledged; recovery truncates the
        tail and the client's retry re-runs it.
    ``after_journal``
        Crash between the journal append and the in-memory mutation.
        The op *is* durable — replay applies it — but the client never
        saw a response and retries; the dedup window serves the replayed
        decision instead of double-admitting.
    ``after_apply``
        Crash (or connection drop) after the mutation but before the
        response is delivered.  The retry is served from the dedup cache.

    Slow-response stalls (the answer arrives after the client already
    retried) exercise live deduplication between crashes.
``degradation``
    The crash topology plus capacity waves every cycle: an explicit
    ``set_capacity`` drop (every fourth a full outage) and its restore,
    and every other cycle a ``report`` burst that must pass the
    hysteresis filter.  After every op the shadow's admitted sets must
    lie inside the region — repair-by-sacrifice always restores
    feasibility — and mid-run a live snapshot downgraded to schema v3
    must restore into both gateways.
``fleet``
    A :class:`~repro.serve.fleet.FleetSupervisor` against a shadow fleet
    under one :class:`~repro.faults.schedule.NetworkFaultSchedule` per
    cycle: a worker kill (rotating over every worker, kind and detection
    path), a torn frame that must bounce as a structured error, a
    partial write retried after the cycle, a slow-client stall and a
    connection storm that must never touch a journal.  Mid-run one
    pipeline live-migrates and its stale route must bounce and
    re-resolve.  With ``degradation=True`` authoritative
    ``set_capacity``/``report`` ops ride the stream too.

After every recovery the client retries each unacknowledged request id.
The gates require zero lost and zero duplicated admissions, no decision
changed by a retry, and every recovered victim bitwise equal to its
shadow.  Reports hold no wall clock and no paths: the same arguments
give the same bytes.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from collections import Counter, OrderedDict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..faults.schedule import (
    WORKER_KILL_DETECTIONS,
    WORKER_KILL_KINDS,
    ConnectionStorm,
    NetworkFaultSchedule,
    PartialWrite,
    SlowClientStall,
    TornFrame,
    WorkerKill,
)
from .fleet import (
    DEFAULT_MISS_THRESHOLD,
    WORKER_UNAVAILABLE,
    FleetSupervisor,
    land_crash,
)
from .gateway import AdmissionGateway
from .journal import DurableGateway
from .protocol import encode
from .recovery import recover, registry_fingerprint
from .router import ShardMap
from .snapshot import SNAPSHOT_FORMAT_V3

__all__ = ["Topology", "TOPOLOGIES", "run_chaos", "chaos_gate_failures"]

Gates = Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class Topology:
    """What one chaos topology runs and what its gate demands.

    Attributes:
        report_format: Version tag of the report document.
        policies: The pipelines the op stream targets, by name.
        resources: Shared-resource pool of locking admits.
        ops: ``(roll bound, op)`` table of the background op mix.
        deadline: Range of an admit's relative deadline.
        costs: Range of an admit's per-stage cost.
        contention: Chance a locking admit declares critical sections.
        section: Longest declared critical section.
        cycles: Default cycle count.
        ops_per_cycle: Default background ops per cycle.
        snapshot_every: Default compaction period.
        min_ops: Fewest ops per cycle a run accepts.
        min_recoveries: Recoveries the gate requires by default.
        victim: Report name of the crashed side.
        crash: The gate's word for one crash.
        crashes: Report section counting crashes by kind.
        recovered: The gate's words for the recoveries it counts.
        must_hold: ``(report path, failure)``: a falsy value fails.
        must_not: ``(report path, failure template)``: a truthy value
            fails, formatted into the template.
        omit: Report paths this topology leaves out.
        min_cycles: Fewest cycles a run accepts.
        first_crash: Earliest op index a durable crash lands on.
        stall: Per-op chance of a slow-response stall retry.
        rotate_kinds: Crash kinds rotate by cycle instead of by draw.
        importance: Admits draw an importance level.
        wide_stats: ``stats`` ops ask the whole gateway.
    """

    report_format: str
    policies: Dict[str, Dict[str, Any]]
    resources: Tuple[str, ...]
    ops: Tuple[Tuple[float, str], ...]
    deadline: Tuple[float, float]
    costs: Tuple[float, float]
    contention: float
    section: float
    cycles: int
    ops_per_cycle: int
    snapshot_every: int
    min_ops: int
    min_recoveries: int
    victim: str
    crash: str
    crashes: str
    recovered: str
    must_hold: Gates
    must_not: Gates = ()
    omit: Tuple[str, ...] = ()
    min_cycles: int = 1
    first_crash: int = 1
    stall: float = 0.0
    rotate_kinds: bool = False
    importance: bool = False
    wide_stats: bool = False


#: Aggressive hysteresis so seeded report bursts confirm within a cycle;
#: quantum 0.1 keeps confirmed levels on a coarse grid.
_HYSTERESIS = {"confirm_drops": 2, "confirm_restores": 2, "quantum": 0.1, "floor": 0.2}

#: Pipelines taking the explicit ``set_capacity`` waves, by cycle parity.
_WAVE_TARGETS = ("locked", "batched")

#: Partial capacity levels of explicit drop waves (outages use 0.0).
_DROP_LEVELS = (0.3, 0.5, 0.7)

_NO_LOCKING_ADMITS = "no resource-bearing admissions exercised the locking pipeline"

TOPOLOGIES: Dict[str, Topology] = {
    "crash": Topology(
        report_format="repro.serve.crash-chaos-report/1",
        policies={
            "batched": {"num_stages": 3, "alpha": 0.9, "max_batch": 3},
            "direct": {"num_stages": 2, "alpha": 1.0},
            # Online PCP blocking bounds: admits carry shared-resource
            # declarations and the controller derives beta_j from the
            # admitted set, so replay must rebuild blocking state too.
            "locked": {"num_stages": 2, "alpha": 0.9, "locking": True},
        },
        resources=("lock-a", "lock-b"),
        ops=(
            (0.60, "admit"),
            (0.72, "depart"),
            (0.82, "expire"),
            (0.88, "idle"),
            (0.94, "capacity"),
            (1.0, "stats"),
        ),
        deadline=(0.8, 2.5),
        costs=(0.02, 0.15),
        contention=0.7,
        section=0.08,
        cycles=24,
        ops_per_cycle=12,
        snapshot_every=25,
        min_ops=2,
        min_recoveries=20,
        victim="durable",
        crash="crash",
        crashes="crashes",
        recovered="crash/recover cycles",
        must_hold=(
            (
                "crashes_with_pending_batch",
                "no crash landed while an admission batch was pending",
            ),
            ("stall_retries", "no slow-response stall retries were injected"),
            ("contended_admits", _NO_LOCKING_ADMITS),
        ),
        stall=0.2,
    ),
    "degradation": Topology(
        report_format="repro.serve.degradation-chaos-report/1",
        # ``web`` takes the report waves (observation-driven estimation);
        # ``locked`` and ``batched`` take the explicit waves, covering the
        # locking beta re-preview and the batch-barrier path.
        policies={
            "web": {"num_stages": 3, "alpha": 0.9, "degradation": _HYSTERESIS},
            "locked": {
                "num_stages": 2,
                "alpha": 0.9,
                "locking": True,
                "degradation": _HYSTERESIS,
            },
            "batched": {
                "num_stages": 2,
                "alpha": 0.9,
                "max_batch": 3,
                "degradation": _HYSTERESIS,
            },
        },
        resources=("lock-a", "lock-b"),
        ops=(
            (0.62, "admit"),
            (0.74, "depart"),
            (0.84, "expire"),
            (0.92, "idle"),
            (1.0, "stats"),
        ),
        deadline=(1.5, 4.0),
        costs=(0.02, 0.12),
        contention=0.6,
        section=0.06,
        cycles=24,
        ops_per_cycle=16,
        snapshot_every=40,
        min_ops=4,
        min_recoveries=12,
        victim="durable",
        crash="crash",
        crashes="crashes",
        recovered="crash/recover cycles",
        must_hold=(
            ("degradation.rescales", "no capacity rescale was ever applied"),
            ("degradation.sacrificed", "no repair ever had to sacrifice a task"),
            (
                "degradation.confirmed_drops",
                "no observation-driven capacity drop was confirmed",
            ),
            (
                "degradation.confirmed_restores",
                "no observation-driven capacity restore was confirmed",
            ),
            ("waves.drops", "no explicit capacity drop wave ran"),
            ("waves.outages", "no full-outage (capacity 0.0) wave ran"),
            ("waves.restores", "no capacity restore wave ran"),
            (
                "snapshot_upgrade.restored",
                "the v3-to-v4 snapshot upgrade restore did not succeed",
            ),
            ("stall_retries", "no slow-response stall retries were injected"),
        ),
        must_not=(
            ("degradation.region_violations", "{} post-repair region violations"),
        ),
        omit=(
            "crashes_with_pending_batch",
            "contended_admits",
            "dedup_hits",
            "recoveries.skipped",
            "admissions.shadow_admitted",
        ),
        min_cycles=2,
        first_crash=2,
        stall=0.15,
        rotate_kinds=True,
        importance=True,
        wide_stats=True,
    ),
    "fleet": Topology(
        report_format="repro.serve.fleet-chaos-report/1",
        # More pipelines than shards, so every worker owns at least one
        # and the mid-run migration has a donor and a receiver.
        policies={
            "api": {"num_stages": 3, "alpha": 0.9, "max_batch": 3},
            "img": {"num_stages": 2, "alpha": 1.0},
            "web": {"num_stages": 2, "alpha": 0.8, "max_batch": 2},
            "etl": {"num_stages": 4, "alpha": 0.95},
            # Online PCP blocking bounds: failover must rebuild the
            # derived beta_j / budget state bitwise as well.
            "mtx": {"num_stages": 2, "alpha": 0.9, "locking": True},
        },
        resources=("gpu", "cache"),
        ops=(
            (0.62, "admit"),
            (0.74, "depart"),
            (0.84, "expire"),
            (0.92, "idle"),
            (1.0, "capacity"),
        ),
        deadline=(0.8, 2.5),
        costs=(0.02, 0.15),
        contention=0.7,
        section=0.08,
        cycles=12,
        ops_per_cycle=16,
        snapshot_every=20,
        min_ops=4,
        min_recoveries=10,
        victim="fleet",
        crash="kill",
        crashes="kills",
        recovered="worker recoveries",
        must_hold=(
            (
                "kills.with_pending_batch",
                "no kill landed while an admission batch was pending",
            ),
            *(
                (f"detection.{detect}", f"detection path {detect!r} was never exercised")
                for detect in WORKER_KILL_DETECTIONS
            ),
            ("faults.torn_frames", "no torn frames were injected"),
            ("faults.partial_writes", "no partial writes were injected"),
            ("faults.stall_retries", "no slow-client stall retries were injected"),
            ("faults.storms", "no connection storms were injected"),
            ("faults.contended_admits", _NO_LOCKING_ADMITS),
            ("routing.migrations", "no live migration was exercised"),
            ("routing.stale_routes_resolved", "no stale route was bounced and re-resolved"),
        ),
        must_not=(
            (
                "detection.seq_regressions",
                "{} heartbeats saw the journal sequence regress "
                "(recovered worker lost durable state)",
            ),
            ("faults.storm_journal_writes", "a connection storm wrote to a journal"),
            ("routing.stale_route_failures", "{} stale routes failed to re-resolve"),
        ),
        omit=(
            "crashes_with_pending_batch",
            "stall_retries",
            "contended_admits",
            "region_values",
        ),
    ),
}


def run_chaos(
    topology: str,
    seed: int = 0,
    cycles: Optional[int] = None,
    ops_per_cycle: Optional[int] = None,
    state_dir: Optional[Union[str, Path]] = None,
    snapshot_every: Optional[int] = None,
    workers: Optional[int] = None,
    degradation: bool = False,
) -> Dict[str, Any]:
    """Run one chaos topology; return its byte-stable report.

    Args:
        topology: ``"crash"``, ``"degradation"`` or ``"fleet"``.
        seed: RNG seed driving the op stream and every fault choice.
        cycles: Fault cycles, each crashing the victim once.
        ops_per_cycle: Background ops per cycle (faults ride on top).
        state_dir: Durable state root; a private temporary directory
            (removed afterwards) if ``None``.
        snapshot_every: Compaction period of every durable gateway.
        workers: Fleet size (fleet only; default 3).
        degradation: Mix authoritative ``set_capacity``/``report`` ops
            into the fleet stream, so failover also has to replay
            capacity rescales and sacrifices bitwise (fleet only).

    ``cycles``, ``ops_per_cycle`` and ``snapshot_every`` default to the
    topology's values in :data:`TOPOLOGIES`.

    Raises:
        ValueError: An unknown topology, a run too short to gate, or a
            fleet option on a durable topology.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown chaos topology {topology!r}; choose one of "
            + ", ".join(sorted(TOPOLOGIES))
        )
    t = TOPOLOGIES[topology]
    cycles = t.cycles if cycles is None else cycles
    ops_per_cycle = t.ops_per_cycle if ops_per_cycle is None else ops_per_cycle
    if cycles < t.min_cycles:
        raise ValueError(f"cycles must be >= {t.min_cycles}, got {cycles}")
    if ops_per_cycle < t.min_ops:
        raise ValueError(f"ops_per_cycle must be >= {t.min_ops}, got {ops_per_cycle}")
    if topology != "fleet" and (workers is not None or degradation):
        raise ValueError("workers and degradation apply to the fleet topology only")
    owns_dir = state_dir is None
    root = Path(tempfile.mkdtemp(prefix="repro-chaos-") if owns_dir else state_dir)
    try:
        return _ChaosRun(
            topology,
            seed,
            cycles,
            ops_per_cycle,
            root,
            t.snapshot_every if snapshot_every is None else snapshot_every,
            3 if workers is None else workers,
            degradation,
        ).run()
    finally:
        if owns_dir:
            shutil.rmtree(root, ignore_errors=True)


def chaos_gate_failures(
    report: Dict[str, Any], min_recoveries: Optional[int] = None
) -> List[str]:
    """Check a :func:`run_chaos` report against its topology's gates.

    Args:
        report: The report; its ``format`` names the topology.
        min_recoveries: Recoveries the run must show; the topology's
            ``min_recoveries`` if ``None``.
    """
    t = next(t for t in TOPOLOGIES.values() if t.report_format == report["format"])
    failures = [
        message.format(value)
        for path, message in (
            ("admissions.lost", "{} acked admissions lost to " + t.crashes),
            ("admissions.duplicated", "{} admissions double-counted"),
            ("admissions.decision_mismatches", "{} retries changed their decision"),
            (
                "admissions.response_mismatches",
                "{} " + t.victim + "/shadow response divergences",
            ),
            ("admissions.unresolved", "{} requests never acknowledged"),
            (
                "equivalence.fingerprint_mismatches",
                "{} post-recovery fingerprint mismatches",
            ),
        )
        + t.must_not
        if (value := _at(report, path))
    ]
    needed = t.min_recoveries if min_recoveries is None else min_recoveries
    count = report["recoveries"]["count"]
    if count < needed:
        failures.append(f"only {count} {t.recovered} ran (need >= {needed})")
    failures += [
        message
        for path, message in (
            ("equivalence.final_identical", f"final {t.victim}/shadow fingerprints differ"),
            *(
                (f"{t.crashes}.{kind}", f"{t.crash} kind {kind!r} was never exercised")
                for kind in WORKER_KILL_KINDS
            ),
            ("recoveries.snapshot_loads", "no recovery ever loaded a compaction snapshot"),
        )
        + t.must_hold
        if not _at(report, path)
    ]
    if t is TOPOLOGIES["fleet"]:
        failures += [
            f"worker {worker} was never killed"
            for worker, kills in enumerate(report["kills"]["by_worker"])
            if kills == 0
        ]
        faults = report["faults"]
        if faults["torn_frame_errors"] != faults["torn_frames"]:
            failures.append(
                f"{faults['torn_frames'] - faults['torn_frame_errors']} torn frames "
                "did not come back as structured errors"
            )
        missing = report["workers"] - report["aggregation"]["stats_shards_reporting"]
        if missing:
            failures.append(f"cross-shard stats aggregation missing {missing} shards")
    return failures


def _at(report: Dict[str, Any], path: str) -> Any:
    """The value at a dotted report path, ``None`` where it is absent."""
    value: Any = report
    for key in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def _lines(side: Any, doc: Dict[str, Any]) -> List[str]:
    """Response lines of one request on either side of the lockstep pair."""
    if isinstance(side, FleetSupervisor):
        return side.dispatch(doc)
    return [response for _, response in side.handle_line(encode(doc))]


def _cores(side: Any) -> List[AdmissionGateway]:
    """The gateway cores behind one side of the lockstep pair."""
    if isinstance(side, FleetSupervisor):
        return [w.durable.gateway for w in side.workers if w.durable is not None]
    return [side.gateway if isinstance(side, DurableGateway) else side]


def _fleet_schedule(
    rng: random.Random, cycle: int, workers: int, ops_per_cycle: int
) -> NetworkFaultSchedule:
    """One fleet cycle's deterministic fault mix.

    Every family fires every cycle (coverage is guaranteed, the gate
    need not hope); *where* in the cycle each lands, which worker dies,
    and how, rotate deterministically so ``cycles >= 3 * workers``
    covers the full (worker × kind) matrix and both detection paths.
    """
    at = lambda: rng.randrange(1, ops_per_cycle)  # noqa: E731
    return NetworkFaultSchedule(
        torn_frames=(TornFrame(at_op=at(), keep=rng.uniform(0.2, 0.8)),),
        partial_writes=(PartialWrite(at_op=at(), cut=rng.uniform(0.2, 0.8)),),
        stalls=(SlowClientStall(at_op=at(), retries=1 + rng.randrange(2)),),
        storms=(ConnectionStorm(at_op=at(), count=2 + rng.randrange(3)),),
        kills=(
            WorkerKill(
                at_op=at(),
                worker=cycle % workers,
                # cycle // workers walks the kind axis while cycle %
                # workers walks the worker axis: 3*workers cycles cover
                # the full (worker x kind) matrix.
                kind=WORKER_KILL_KINDS[(cycle // workers) % len(WORKER_KILL_KINDS)],
                detect=WORKER_KILL_DETECTIONS[cycle % len(WORKER_KILL_DETECTIONS)],
            ),
        ),
    )


Events = Dict[int, List[Callable[[], Any]]]


class _ChaosRun:
    """One chaos run: the client ledger, the lockstep pair, the faults."""

    def __init__(
        self,
        topology: str,
        seed: int,
        cycles: int,
        ops_per_cycle: int,
        root: Path,
        snapshot_every: int,
        workers: int,
        degradation: bool,
    ) -> None:
        self.t = TOPOLOGIES[topology]
        self.fleet = topology == "fleet"
        self.waves = topology == "degradation"
        self.degradation = degradation
        self.rng = random.Random(seed)
        self.seed = seed
        self.cycles = cycles
        self.ops_per_cycle = ops_per_cycle
        self.root = root
        self.snapshot_every = snapshot_every
        self.workers = workers
        self.names = sorted(self.t.policies)
        self.victim: Any
        self.shadow: Any
        if self.fleet:
            shard_map = ShardMap.balanced(self.names, workers)
            self.victim, self.shadow = (
                FleetSupervisor(
                    workers, root / side, shard_map=shard_map, snapshot_every=snapshot_every
                )
                for side in ("fleet", "shadow")
            )
            self.victim.start()
            self.shadow.start()
        else:
            self.victim, _ = recover(root, snapshot_every=snapshot_every)
            self.shadow = AdmissionGateway()
        # The client: request ids, the unacknowledged set, the decisions.
        self.next_id = 0
        self.id_to_rid: Dict[int, str] = {}
        self.unacked: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.ledger: Dict[str, Any] = {}
        self.partial: List[Dict[str, Any]] = []
        # The op stream's clock and task ids.
        self.now = 0.0
        self.next_task_id = 0
        # Counters the report reads.
        self.n: Counter = Counter()
        self.crashes: Counter = Counter()
        self.detections: Counter = Counter()
        self.faults = dict.fromkeys(("torn_frames", "partial_writes", "stalls", "storms"), 0)
        self.killed = [0] * workers
        self.recoveries: List[Any] = []
        self.migrations: List[Dict[str, Any]] = []
        self.upgrade = {"attempted": False, "restored": False}

    # -- the client ---------------------------------------------------

    def fresh_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def envelope(self, name: Optional[str] = None) -> Dict[str, Any]:
        request_id = self.fresh_id()
        doc: Dict[str, Any] = {"id": request_id, "rid": f"r{request_id}"}
        if name is not None:
            doc["pipeline"] = name
        return doc

    def issue(self, doc: Dict[str, Any]) -> None:
        self.id_to_rid[doc["id"]] = doc["rid"]
        if doc["rid"] not in self.ledger:
            self.unacked[doc["rid"]] = doc

    def ack(self, line: str) -> None:
        response = json.loads(line)
        rid = self.id_to_rid.get(response.get("id"))
        if rid is None or response.get("error") == "duplicate-request":
            # Not ours, or "still queued, retry later" — no final answer.
            return
        self.unacked.pop(rid, None)
        decision = response.get("admitted")
        if rid not in self.ledger:
            self.ledger[rid] = decision
        elif self.ledger[rid] != decision:
            self.n["decision_mismatches"] += 1

    def compare(self, got: List[str], want: List[str]) -> List[str]:
        """The victim/shadow compare: count a divergence, pass ``got`` on."""
        if got != want:
            self.n["response_mismatches"] += 1
        return got

    def apply(self, doc: Dict[str, Any]) -> List[str]:
        got = self.compare(_lines(self.victim, doc), _lines(self.shadow, doc))
        for line in got:
            self.ack(line)
        self.check_region()
        return got

    def send(self, doc: Dict[str, Any]) -> List[str]:
        self.issue(doc)
        return self.apply(doc)

    def retry(self, doc: Dict[str, Any]) -> None:
        again = dict(doc, id=self.fresh_id())
        self.id_to_rid[again["id"]] = doc["rid"]
        self.apply(again)

    def retry_unacked(self) -> None:
        for doc in list(self.unacked.values()):
            self.retry(doc)

    def drain(self) -> None:
        """Force every pending batch to flush, then retry once more."""
        doc = self.envelope()
        doc["op"] = "drain"
        self.send(doc)
        self.retry_unacked()

    def settle(self) -> None:
        """Client retry protocol after a recovery: retry everything
        unacknowledged; if retries bounce off a still-pending batch,
        drain and retry once more."""
        self.retry_unacked()
        if self.unacked:
            self.drain()

    def check_region(self) -> None:
        """The post-repair feasibility invariant, after every op."""
        if self.waves:
            self.n["region_violations"] += sum(
                1 for p in self.shadow.registry if not p.controller.region_ok()
            )

    # -- the op stream ------------------------------------------------

    def gen_op(self, name: Optional[str] = None) -> Dict[str, Any]:
        """One seeded background op; ``name`` pins its pipeline."""
        t, rng = self.t, self.rng
        self.n["ops_issued"] += 1
        self.now += rng.uniform(0.05, 0.3)
        if name is None:
            name = self.names[rng.randrange(len(self.names))]
        stages = t.policies[name]["num_stages"]
        doc = self.envelope(name)
        roll = rng.random()
        op = next(op for bound, op in t.ops if roll < bound)
        if op == "admit":
            self.next_task_id += 1
            task: Dict[str, Any] = {
                "task_id": self.next_task_id,
                "arrival": self.now,
                "deadline": self.now + rng.uniform(*t.deadline),
                "costs": [rng.uniform(*t.costs) for _ in range(stages)],
            }
            if t.importance:
                task["importance"] = rng.randrange(3)
            if t.policies[name].get("locking") and rng.random() < t.contention:
                # Contention workload: most locking admits declare
                # critical sections on a tiny shared pool, so beta_j
                # churns on every admit/expire and recovery has real
                # blocking state to rebuild.
                self.n["contended_admits"] += 1
                picks = rng.sample(
                    [(s, r) for s in range(stages) for r in t.resources],
                    rng.randrange(1, 3),
                )
                task["resources"] = [
                    {
                        "stage": stage,
                        "resource": resource,
                        "max_length": rng.uniform(0.0, t.section),
                    }
                    for stage, resource in sorted(picks)
                ]
            doc.update(op="admit", task=task)
        elif op == "depart":
            doc["op"] = "depart"
            doc["task_id"] = rng.randrange(1, max(2, self.next_task_id + 1))
            doc["stage"] = rng.randrange(stages)
        elif op == "expire":
            doc.update(op="expire", now=self.now)
        elif op == "idle":
            doc.update(op="idle", stage=rng.randrange(stages))
        elif op == "stats":
            doc["op"] = "stats"
            if t.wide_stats:
                del doc["pipeline"]
        elif self.degradation and rng.random() < 0.67:
            # The fleet's degradation cross: authoritative rescales (and
            # the odd fault report) ride the failover stream, so a
            # restarted worker must replay re-charges and sacrifices.
            # The guard short-circuits before the extra draw, keeping
            # default-mode op streams unchanged.
            self.n["degradation_ops"] += 1
            doc["stage"] = rng.randrange(stages)
            if rng.random() < 0.7:
                doc.update(op="set_capacity", capacity=rng.choice((0.5, 0.7, 1.0)))
            else:
                doc.update(op="report", kind="slowdown", ratio=rng.choice((0.5, 1.0)))
        else:
            doc["op"] = "capacity"
            doc["stage"] = rng.randrange(stages)
            doc["capacity"] = rng.uniform(0.6, 1.0)
        return doc

    # -- crash and recovery -------------------------------------------

    def crash(
        self, kind: str, doc: Dict[str, Any], fault: Optional[WorkerKill] = None
    ) -> None:
        """Crash the victim on in-flight ``doc``, recover, compare, settle.

        ``fault`` names the fleet worker that dies; without one the
        durable gateway itself crashes.
        """
        # The fleet gate draws the torn fraction on every kill, the
        # durable gates only on torn crashes.
        keep = self.rng.uniform(0.1, 0.9) if kind == "torn" or fault is not None else 0.5
        durable = self.victim if fault is None else self.victim.workers[fault.worker].durable
        got = land_crash(durable, kind, doc, keep)
        if kind != "torn":
            # The victim journaled (and maybe applied) the op; the
            # shadow applies it to stay in step with the replay.
            want = _lines(self.shadow, doc)
            if kind == "after_apply":
                self.compare(got, want)
        self.crashes[kind] += 1
        # The durable gates ask whether the shadow (which holds an
        # after_journal op) has a pending batch, the fleet gate the
        # victim worker.
        registry = (self.shadow if fault is None else durable.gateway).registry
        if any(p.pending for p in registry):
            self.n["with_pending"] += 1
        if fault is None:
            durable.close()
            self.victim, report = recover(self.root, snapshot_every=self.snapshot_every)
            self.recoveries.append(report)
            pair = (registry_fingerprint(self.victim), registry_fingerprint(self.shadow))
        else:
            pair = self.fail_over(fault)
        self.n["fingerprint_matches" if pair[0] == pair[1] else "fingerprint_mismatches"] += 1
        self.settle()
        self.check_region()

    def fail_over(self, fault: WorkerKill) -> Tuple[str, str]:
        """Kill the fleet worker, heal it by the fault's detection path;
        return its (victim, shadow) fingerprints."""
        fleet, victim = self.victim, fault.worker
        fleet.workers[victim].kill()
        self.detections[fault.detect] += 1
        self.killed[victim] += 1
        if fault.detect == "heartbeat":
            # The supervisor learns of the death only when seq-stamped
            # probes go unanswered past the miss threshold.
            while fleet.monitor.states[victim] != WORKER_UNAVAILABLE:
                self.heartbeat()
            self.recoveries.extend(fleet.heal())
        else:
            # Exit-status detection: the supervisor reaps the dead child
            # immediately and restarts it.
            self.recoveries.append(fleet.restart(victim))
        self.heartbeat()  # the recovered worker re-arms to healthy
        return fleet.workers[victim].fingerprint(), self.shadow.workers[victim].fingerprint()

    def heartbeat(self) -> None:
        self.n["heartbeat_rounds"] += 1
        self.victim.probe()

    # -- cycles -------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        for name in self.names:
            doc = self.envelope(name)
            doc.update(op="register", policy=dict(self.t.policies[name]))
            self.send(doc)
        for cycle in range(self.cycles):
            self.cycle(cycle)
        self.drain()
        return self.report()

    def cycle(self, cycle: int) -> None:
        """One cycle: scheduled faults or waves, background ops, and (on
        the durable topologies) a crash on a seeded op."""
        t, rng = self.t, self.rng
        kind = ""
        crash_at = -1
        if self.fleet:
            events = self.fleet_faults(cycle)
        else:
            if t.rotate_kinds:
                kind = WORKER_KILL_KINDS[cycle % len(WORKER_KILL_KINDS)]
            else:
                kind = WORKER_KILL_KINDS[rng.randrange(len(WORKER_KILL_KINDS))]
            crash_at = rng.randrange(t.first_crash, self.ops_per_cycle)
            events = self.capacity_waves(cycle) if self.waves else {}
        for index in range(self.ops_per_cycle):
            for event in events.pop(index, ()):
                event()
            doc = self.gen_op()
            self.issue(doc)
            if index == crash_at:
                self.crash(kind, doc)
                break
            self.apply(doc)
            if t.stall and rng.random() < t.stall:
                # Slow-write / slow-response stall: the answer arrives
                # so late the client has already retried.
                self.n["stall_retries"] += 1
                self.retry(doc)
        # Deliver the wave ops the crash preempted: a restore follows its
        # drop even across a crash, as a monitoring client would retry.
        for index in sorted(events):
            for event in events[index]:
                event()
        if cycle == self.cycles // 2:
            if self.fleet:
                self.migrate()
            elif self.waves:
                self.snapshot_upgrade()
        # Retried partial writes: the connection died before the
        # newline, so the op reaches the fleet for the first time here.
        for doc in self.partial:
            self.retry(doc)
        self.partial.clear()

    # -- degradation: capacity waves and the v3 snapshot upgrade -------

    def wave_op(self, name: str, op: str, **operands: Any) -> Dict[str, Any]:
        self.n["ops_issued"] += 1
        doc = self.envelope(name)
        doc["op"] = op
        doc.update(operands)
        return doc

    def capacity_waves(self, cycle: int) -> Events:
        """An explicit drop + restore on one wave pipeline and, every
        other cycle, a report wave on ``web`` (a drop burst, then a
        restoring ``ok`` burst), at seeded op indices."""
        rng = self.rng
        target = _WAVE_TARGETS[cycle % len(_WAVE_TARGETS)]
        stage = rng.randrange(self.t.policies[target]["num_stages"])
        # Every fourth cycle is a full outage so the coverage gates hold
        # for any seed; the rest draw a partial level.
        outage = cycle % 4 == 1
        level = 0.0 if outage else _DROP_LEVELS[rng.randrange(len(_DROP_LEVELS))]
        scheduled = [self.wave_op(target, "set_capacity", stage=stage, capacity=level)]
        if cycle % 2 == 0:
            web_stage = rng.randrange(self.t.policies["web"]["num_stages"])
            kind, ratio = ("slowdown", 0.5) if cycle % 4 == 0 else ("overrun", 2.0)
            scheduled += [
                self.wave_op("web", "report", stage=web_stage, kind=kind, ratio=ratio)
                for _ in range(_HYSTERESIS["confirm_drops"])
            ]
            scheduled += [
                self.wave_op("web", "report", stage=web_stage, kind="ok")
                for _ in range(_HYSTERESIS["confirm_restores"])
            ]
            self.n["report_waves"] += 1
        scheduled.append(self.wave_op(target, "set_capacity", stage=stage, capacity=1.0))
        self.n["outages" if outage else "drops"] += 1
        self.n["restores"] += 1
        # Seeded positions that keep the waves' relative order.
        slots = sorted(rng.randrange(self.ops_per_cycle) for _ in scheduled)
        events: Events = {}
        for slot, doc in zip(slots, scheduled):
            events.setdefault(slot, []).append(partial(self.send, doc))
        return events

    def snapshot_upgrade(self) -> None:
        """Harvest a live snapshot, downgrade it to v3, restore it (v3→v4)."""
        self.upgrade["attempted"] = True
        doc = self.envelope("web")
        doc["op"] = "snapshot"
        snapshot_doc = None
        for line in self.send(doc):
            response = json.loads(line)
            if response.get("op") == "snapshot" and response.get("ok"):
                snapshot_doc = response["snapshot"]
        if snapshot_doc is None:
            return
        legacy = json.loads(json.dumps(snapshot_doc))
        legacy.pop("degradation", None)
        controller_doc = legacy["controller"]
        controller_doc["format"] = SNAPSHOT_FORMAT_V3
        controller_doc.pop("admission_seq", None)
        controller_doc.pop("charges_follow_capacity", None)
        for record in controller_doc["admitted"]:
            record.pop("demand", None)
            record.pop("seq", None)
        # The clone serves fresh traffic counts, not web's history —
        # carrying the counters over would double-count acked admissions
        # against the client ledger.
        legacy["counters"] = {}
        restore_doc = self.envelope("web-v3")
        restore_doc.update(op="restore", snapshot=legacy)
        self.upgrade["restored"] = any(
            response.get("op") == "restore" and response.get("ok")
            for response in map(json.loads, self.send(restore_doc))
        )

    # -- fleet: network faults and live migration ----------------------

    def fleet_faults(self, cycle: int) -> Events:
        schedule = _fleet_schedule(self.rng, cycle, self.workers, self.ops_per_cycle)
        handlers: Dict[type, Callable[[Any], None]] = {
            TornFrame: self.torn_frame,
            PartialWrite: self.partial_write,
            SlowClientStall: self.slow_client_stall,
            ConnectionStorm: self.connection_storm,
            WorkerKill: self.kill_worker,
        }
        events: Events = {}
        for fault in (
            schedule.torn_frames
            + schedule.partial_writes
            + schedule.stalls
            + schedule.storms
            + schedule.kills
        ):
            events.setdefault(fault.at_op, []).append(partial(handlers[type(fault)], fault))
        return events

    def torn_frame(self, fault: TornFrame) -> None:
        """A request line cut mid-byte must bounce as a structured error."""
        doc = self.gen_op()  # never issued: the client sees the connection die
        line = encode(doc)
        torn = line[: max(1, min(len(line) - 1, int(len(line) * fault.keep)))]
        shard = self.victim.shard_for(doc)
        target = shard if shard is not None else 0
        got = self.compare(
            self.victim.workers[target].handle_line(torn),
            self.shadow.workers[target].handle_line(torn),
        )
        response = json.loads(got[0]) if len(got) == 1 else {}
        if response.get("ok") is False and response.get("error") in ("bad-json", "bad-request"):
            self.n["torn_frame_errors"] += 1
        self.faults["torn_frames"] += 1

    def partial_write(self, fault: PartialWrite) -> None:
        """The newline never lands: no worker sees the op; retry later."""
        doc = self.gen_op()
        self.issue(doc)
        self.partial.append(doc)
        self.faults["partial_writes"] += 1

    def slow_client_stall(self, fault: SlowClientStall) -> None:
        doc = self.gen_op()
        self.send(doc)
        for _ in range(fault.retries):
            self.n["stall_retries"] += 1
            self.retry(doc)
        self.faults["stalls"] += 1

    def connection_storm(self, fault: ConnectionStorm) -> None:
        """A probe burst: liveness churn that must never touch a journal."""
        before = [worker.durable.journal.last_seq for worker in self.victim.workers]
        for _ in range(fault.count):
            self.heartbeat()
            self.n["storm_probes"] += self.workers
        if before != [worker.durable.journal.last_seq for worker in self.victim.workers]:
            self.faults["storm_journal_writes"] = self.faults.get("storm_journal_writes", 0) + 1
        self.faults["storms"] += 1

    def kill_worker(self, fault: WorkerKill) -> None:
        # The in-flight op must be headed for the victim, so generate it
        # against a pipeline the victim owns.
        owned = self.victim.shard_map.owned_by(fault.worker)
        doc = self.gen_op(name=owned[self.rng.randrange(len(owned))])
        self.issue(doc)
        self.crash(fault.kind, doc, fault)

    def migrate(self) -> None:
        """Live-migrate one pipeline, then replay its pre-migration route:
        the ``wrong-shard`` bounce must re-resolve to the new owner."""
        fleet = self.victim
        pipeline = self.names[0]
        old_shard = fleet.shard_map.shard_of(pipeline)
        new_shard = (old_shard + 1) % self.workers
        fleet.migrate(pipeline, new_shard)
        self.shadow.migrate(pipeline, new_shard)
        self.migrations.append(
            {
                "pipeline": pipeline,
                "from": old_shard,
                "to": new_shard,
                "map_version": fleet.shard_map.version,
            }
        )
        doc = self.gen_op(name=pipeline)
        self.issue(doc)
        got = self.compare(
            fleet.workers[old_shard].handle_line(encode(doc)),
            self.shadow.workers[old_shard].handle_line(encode(doc)),
        )
        bounce = json.loads(got[0]) if got else {}
        resolved = (
            ShardMap.from_wire(bounce["map"])
            if bounce.get("error") == "wrong-shard" and "map" in bounce
            else None
        )
        if (
            resolved is None
            or resolved.shard_of(pipeline) == old_shard
            or resolved.version <= 1
        ):
            self.n["stale_route_failures"] += 1
        else:
            self.n["stale_routes_resolved"] += 1
            # Re-issue on the authoritative owner with the SAME rid: the
            # re-route must not double-apply.
            self.retry(doc)
        self.settle()

    # -- the report ---------------------------------------------------

    def report(self) -> Dict[str, Any]:
        t, n = self.t, self.n
        victim_cores, shadow_cores = _cores(self.victim), _cores(self.shadow)
        victim_pipelines = [p for core in victim_cores for p in core.registry]
        shadow_pipelines = [p for core in shadow_cores for p in core.registry]
        acked = sum(1 for decision in self.ledger.values() if decision is True)
        counted = sum(p.counters.admitted for p in victim_pipelines)
        crashes = {kind: self.crashes[kind] for kind in WORKER_KILL_KINDS}
        report: Dict[str, Any] = {
            "format": t.report_format,
            "seed": self.seed,
            "cycles": self.cycles,
            "ops_per_cycle": self.ops_per_cycle,
            "snapshot_every": self.snapshot_every,
            "fsync": False,
            "ops_issued": n["ops_issued"],
            t.crashes: {**crashes, "total": sum(crashes.values())},
            "crashes_with_pending_batch": n["with_pending"],
            "stall_retries": n["stall_retries"],
            "contended_admits": n["contended_admits"],
            "recoveries": {
                "count": len(self.recoveries),
                "snapshot_loads": sum(1 for r in self.recoveries if r.snapshot_loaded),
                "replayed": sum(r.replayed for r in self.recoveries),
                "skipped": sum(r.skipped for r in self.recoveries),
                "truncated_bytes": sum(r.truncated_bytes for r in self.recoveries),
            },
            "dedup_hits": {
                t.victim: sum(core.dedup_hits for core in victim_cores),
                "shadow": sum(core.dedup_hits for core in shadow_cores),
            },
            "admissions": {
                "acked_admitted": acked,
                "counted_admitted": counted,
                "shadow_admitted": sum(p.counters.admitted for p in shadow_pipelines),
                "lost": max(0, acked - counted),
                "duplicated": max(0, counted - acked),
                "decision_mismatches": n["decision_mismatches"],
                "response_mismatches": n["response_mismatches"],
                "unresolved": len(self.unacked),
            },
            "equivalence": {
                "fingerprint_matches": n["fingerprint_matches"],
                "fingerprint_mismatches": n["fingerprint_mismatches"],
                "final_identical": [registry_fingerprint(c) for c in victim_cores]
                == [registry_fingerprint(c) for c in shadow_cores],
            },
            "region_values": {
                p.name: p.controller.region_value() for p in victim_pipelines
            },
        }
        if self.waves:
            report["waves"] = {
                key: n[key] for key in ("drops", "outages", "restores", "report_waves")
            }
            report["degradation"] = {
                "rescales": sum(p.counters.rescales for p in shadow_pipelines),
                "sacrificed": sum(p.counters.sacrificed for p in shadow_pipelines),
                "confirmed_drops": sum(
                    p.degradation.estimator.confirmed_drops for p in shadow_pipelines
                ),
                "confirmed_restores": sum(
                    p.degradation.estimator.confirmed_restores for p in shadow_pipelines
                ),
                "region_violations": n["region_violations"],
            }
            report["snapshot_upgrade"] = dict(self.upgrade)
        if self.fleet:
            report["kills"].update(
                by_worker=list(self.killed), with_pending_batch=n["with_pending"]
            )
            report.update(self.fleet_sections(victim_pipelines))
        for path in t.omit:
            *parents, key = path.split(".")
            section = report
            for parent in parents:
                section = section[parent]
            del section[key]
        self.victim.close()
        if self.fleet:
            self.shadow.close()
        return report

    def fleet_sections(self, pipelines: List[Any]) -> Dict[str, Any]:
        fleet, n = self.victim, self.n
        report = {
            "workers": self.workers,
            "miss_threshold": DEFAULT_MISS_THRESHOLD,
            "detection": {
                **{detect: self.detections[detect] for detect in WORKER_KILL_DETECTIONS},
                "heartbeat_rounds": n["heartbeat_rounds"],
                "seq_regressions": fleet.monitor.seq_regressions,
                "transitions": len(fleet.monitor.transitions),
            },
            "faults": {
                **self.faults,
                "torn_frame_errors": n["torn_frame_errors"],
                "stall_retries": n["stall_retries"],
                "storm_probes": n["storm_probes"],
                "contended_admits": n["contended_admits"],
            },
            "routing": {
                "map_version": fleet.shard_map.version,
                "migrations": self.migrations,
                "stale_routes_resolved": n["stale_routes_resolved"],
                "stale_route_failures": n["stale_route_failures"],
                "wrong_shard_bounces": sum(
                    w.gateway.bounced for w in fleet.workers if w.gateway is not None
                ),
            },
            "degradation": {
                "ops": n["degradation_ops"],
                "rescales": sum(p.counters.rescales for p in pipelines),
                "sacrificed": sum(p.counters.sacrificed for p in pipelines),
            },
        }
        # Last: fleet_stats sends a request to every worker, so it runs
        # after every count and fingerprint above is taken.
        health = fleet.fleet_health()
        stats = fleet.fleet_stats()
        report["aggregation"] = {
            "health_degraded": health["degraded"],
            "health_unavailable": health["unavailable"],
            "stats_pipelines": sorted(stats["pipelines"]),
            "stats_shards_reporting": sum(
                1 for entry in stats["shards"].values() if entry["stats"] is not None
            ),
        }
        return report
