"""Supervised shard fleet: health-checked workers with WAL failover.

The single durable gateway of PR 4 scales out here: a
:class:`FleetSupervisor` partitions the pipeline registry across N
workers via a versioned :class:`~repro.serve.router.ShardMap`, probes
each worker with **seq-stamped heartbeats** over the ordinary
``health`` op, and restarts dead workers through the PR-4 recovery
path (snapshot + journal-suffix replay), so a worker that dies between
two heartbeats comes back with bitwise-identical registry state.

Heartbeats are seq-stamped twice over:

* each probe carries a fleet-wide monotonic ``probe`` id, so a stale
  (reordered, replayed) health answer is detectable and ignored; and
* each answer carries the worker's durable ``journal_seq`` /
  ``snapshot_seq`` (via the ``health_extra`` hook on the gateway core),
  so a worker that restarts *without* its durable state — journal
  sequence regressed — is flagged as lost state rather than trusted.

Per-worker failure detection is a small state machine driven by the
:class:`HeartbeatMonitor`::

    healthy --miss--> degraded --miss--> unavailable
       ^                                     |
       '----- probe ok <--- recovering <-- restart

Two worker flavours share the supervisor logic:

:class:`InProcessWorker`
    A :class:`~repro.serve.journal.DurableGateway` wrapped in a
    :class:`~repro.serve.router.ShardGateway`, living in this process
    with its own state directory.  "SIGKILL" is modelled by
    :func:`land_crash`, the crash kinds of every chaos gate — close
    without drain, optionally tearing or pre-acking the in-flight
    journal record — which keeps the fleet chaos gate
    (:mod:`repro.serve.chaos`) fully deterministic.

:class:`ProcessWorker` / :class:`ProcessFleet`
    Real ``python -m repro.serve`` subprocesses, each bound to its own
    TCP port and state directory, killed with a real ``SIGKILL`` and
    respawned (recovery happens in the child on restart).  Exercised
    only by the ``slow_serve`` test tier; the module has no command
    line of its own.

See DESIGN.md §13 for how supervisor states map onto the exact
``U_j(t)`` bookkeeping invariants.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..faults.schedule import WORKER_KILL_KINDS
from .gateway import DEFAULT_DEDUP_WINDOW
from .journal import DEFAULT_SNAPSHOT_EVERY, DurableGateway
from .protocol import encode
from .recovery import RecoveryReport, recover, registry_fingerprint
from .router import ShardGateway, ShardMap

__all__ = [
    "WORKER_HEALTHY",
    "WORKER_DEGRADED",
    "WORKER_UNAVAILABLE",
    "WORKER_RECOVERING",
    "DEFAULT_MISS_THRESHOLD",
    "land_crash",
    "FleetError",
    "WorkerUnavailable",
    "HeartbeatMonitor",
    "InProcessWorker",
    "FleetSupervisor",
    "ProcessWorker",
    "ProcessFleet",
]

WORKER_HEALTHY = "healthy"
WORKER_DEGRADED = "degraded"
WORKER_UNAVAILABLE = "unavailable"
WORKER_RECOVERING = "recovering"

#: Consecutive missed heartbeats before a worker is declared
#: unavailable (one miss only degrades it — a single late answer must
#: not trigger a restart).
DEFAULT_MISS_THRESHOLD = 2


class FleetError(RuntimeError):
    """A fleet-level operational failure."""


class WorkerUnavailable(FleetError):
    """A request was routed to a worker that is currently down."""


class HeartbeatMonitor:
    """Seq-stamped failure detection for one fleet.

    Tracks, per worker: the liveness state machine, consecutive missed
    probes, the highest probe id answered, and the last observed
    durable ``journal_seq``/``snapshot_seq``.  A successful probe whose
    ``journal_seq`` is *lower* than previously observed is counted in
    ``seq_regressions`` — the worker answered, but without the durable
    state it had before, which the fleet invariants treat as data loss,
    not recovery.
    """

    def __init__(self, workers: int, miss_threshold: int = DEFAULT_MISS_THRESHOLD) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1, got {miss_threshold}")
        self.miss_threshold = miss_threshold
        self.states = [WORKER_HEALTHY] * workers
        self.misses = [0] * workers
        self.last_probe = [0] * workers
        self.journal_seqs = [0] * workers
        self.snapshot_seqs = [0] * workers
        self.seq_regressions = 0
        self.stale_probes = 0
        self.transitions: List[Dict[str, Any]] = []

    def _transition(self, worker: int, state: str, probe: int) -> None:
        if self.states[worker] == state:
            return
        self.transitions.append(
            {
                "worker": worker,
                "from": self.states[worker],
                "to": state,
                "probe": probe,
            }
        )
        self.states[worker] = state

    def observe(
        self, worker: int, probe: int, response: Optional[Dict[str, Any]]
    ) -> str:
        """Feed one probe outcome; returns the worker's new state.

        Args:
            worker: Worker index.
            probe: The monotonic probe id this answer (or miss) is for.
            response: The parsed ``health`` answer, or ``None`` for a
                missed/failed probe.
        """
        if probe <= self.last_probe[worker]:
            # A reordered or replayed answer for an already-settled
            # probe carries no fresh liveness information.
            self.stale_probes += 1
            return self.states[worker]
        self.last_probe[worker] = probe
        if response is None:
            self.misses[worker] += 1
            if self.misses[worker] >= self.miss_threshold:
                self._transition(worker, WORKER_UNAVAILABLE, probe)
            elif self.states[worker] == WORKER_HEALTHY:
                self._transition(worker, WORKER_DEGRADED, probe)
            return self.states[worker]
        self.misses[worker] = 0
        journal_seq = int(response.get("journal_seq", 0))
        snapshot_seq = int(response.get("snapshot_seq", 0))
        if journal_seq < self.journal_seqs[worker]:
            self.seq_regressions += 1
        self.journal_seqs[worker] = journal_seq
        self.snapshot_seqs[worker] = snapshot_seq
        self._transition(worker, WORKER_HEALTHY, probe)
        return self.states[worker]

    def mark_recovering(self, worker: int, probe: int) -> None:
        """A restart is in flight; the next good probe flips healthy."""
        self.misses[worker] = 0
        self._transition(worker, WORKER_RECOVERING, probe)


def land_crash(
    durable: DurableGateway, kind: str, doc: Dict[str, Any], keep: float = 0.5
) -> List[str]:
    """Land a crash of ``kind`` on the in-flight request ``doc``.

    The kinds are :data:`~repro.faults.schedule.WORKER_KILL_KINDS`:

    ``torn``
        kill -9 mid-journal-write: a ``keep`` fraction of the record
        lands on disk; the op was never applied.
    ``after_journal``
        Crash between WAL append and the mutation: the op is durable
        (recovery replays it) but nobody answered.
    ``after_apply``
        Crash after applying, before the answer reached the client.

    Returns:
        The response lines the crash loses (``after_apply`` only).  The
        caller then closes ``durable`` without draining it.
    """
    if kind not in WORKER_KILL_KINDS:
        raise ValueError(f"unknown crash kind {kind!r}")
    if kind == "torn":
        durable.journal.append_torn(doc, keep=keep)
    elif kind == "after_journal":
        durable.journal.append(doc)
    else:
        return [response for _, response in durable.handle_line(encode(doc))]
    return []


class InProcessWorker:
    """One shard's durable gateway, hosted in this process.

    Owns a state directory (snapshot + journal) and wraps the durable
    gateway in a :class:`ShardGateway` so misrouted requests bounce
    before touching the journal.  :meth:`kill` lands its crash through
    :func:`land_crash`, the crash path of the chaos gates.
    """

    def __init__(
        self,
        shard: int,
        state_dir: Union[str, Path],
        shard_map: ShardMap,
        fsync: bool = False,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        dedup_window: int = DEFAULT_DEDUP_WINDOW,
    ) -> None:
        self.shard = shard
        self.state_dir = Path(state_dir)
        self.shard_map = shard_map
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.dedup_window = dedup_window
        self.durable: Optional[DurableGateway] = None
        self.gateway: Optional[ShardGateway] = None
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.gateway is not None

    def start(self) -> RecoveryReport:
        """Recover (or freshly open) this worker's durable state."""
        if self.alive:
            raise FleetError(f"worker {self.shard} is already running")
        durable, report = recover(
            self.state_dir,
            fsync=self.fsync,
            snapshot_every=self.snapshot_every,
            dedup_window=self.dedup_window,
        )
        self.durable = durable
        self.gateway = ShardGateway(durable, self.shard, self.shard_map)
        return report

    def handle_line(self, line: str) -> List[str]:
        """Dispatch one request line; response lines in order."""
        if self.gateway is None:
            raise WorkerUnavailable(f"worker {self.shard} is down")
        return [response for _, response in self.gateway.handle_line(line)]

    def probe(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Answer a health probe, or ``None`` if the worker is down."""
        if self.gateway is None:
            return None
        responses = self.handle_line(encode(request))
        return json.loads(responses[0]) if responses else None

    def install_map(self, shard_map: ShardMap) -> None:
        self.shard_map = shard_map
        if self.gateway is not None:
            self.gateway.install_map(shard_map)

    def fingerprint(self) -> str:
        if self.durable is None:
            raise WorkerUnavailable(f"worker {self.shard} is down")
        return registry_fingerprint(self.durable)

    def kill(
        self,
        kind: str = "torn",
        doc: Optional[Dict[str, Any]] = None,
        keep: float = 0.5,
    ) -> None:
        """Whole-worker SIGKILL, optionally mid-operation.

        With ``doc`` the crash lands *on* that operation according to
        ``kind`` (see :func:`land_crash`); without it the worker simply
        dies between operations.  Either way nothing is drained or
        flushed — pending batches die with the process and must come
        back via recovery replay.
        """
        if self.durable is None:
            raise WorkerUnavailable(f"worker {self.shard} is already down")
        if doc is not None:
            land_crash(self.durable, kind, doc, keep)
        self.durable.close()
        self.durable = None
        self.gateway = None

    def close(self) -> None:
        if self.durable is not None:
            self.durable.close()
            self.durable = None
            self.gateway = None


class FleetSupervisor:
    """Partition, probe, and heal a fleet of in-process workers.

    Routes pipeline-targeted request lines by the installed
    :class:`ShardMap`, broadcasts fleet-wide ops, drives seq-stamped
    heartbeats through the :class:`HeartbeatMonitor`, and restarts
    unavailable workers through the recovery path.  All methods are
    synchronous and deterministic: the supervisor's observable state
    is a pure function of the call sequence, which is what lets the
    chaos harness compare a crashed fleet against a shadow fleet
    line-for-line.
    """

    def __init__(
        self,
        workers: int,
        root_dir: Union[str, Path],
        shard_map: Optional[ShardMap] = None,
        fsync: bool = False,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        dedup_window: int = DEFAULT_DEDUP_WINDOW,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.root_dir = Path(root_dir)
        self.shard_map = shard_map if shard_map is not None else ShardMap(shards=workers)
        if self.shard_map.shards != workers:
            raise ValueError(
                f"map covers {self.shard_map.shards} shards, fleet has {workers}"
            )
        self.workers = [
            InProcessWorker(
                shard,
                self.root_dir / f"worker-{shard}",
                self.shard_map,
                fsync=fsync,
                snapshot_every=snapshot_every,
                dedup_window=dedup_window,
            )
            for shard in range(workers)
        ]
        self.monitor = HeartbeatMonitor(workers, miss_threshold=miss_threshold)
        self._probe_seq = 0
        self._control_seq = 0
        self.recoveries: List[RecoveryReport] = []

    def start(self) -> List[RecoveryReport]:
        return [worker.start() for worker in self.workers]

    # -- routing ------------------------------------------------------

    def shard_for(self, doc: Dict[str, Any]) -> Optional[int]:
        """The owning shard of a request doc, or ``None`` (fleet-wide)."""
        name = doc.get("pipeline")
        if not isinstance(name, str):
            return None
        return self.shard_map.shard_of(name)

    def dispatch(self, doc: Dict[str, Any]) -> List[str]:
        """Route one request to its owning shard.

        Fleet-wide ops (no ``pipeline`` operand) are broadcast; the
        per-shard responses are concatenated in shard order.

        Raises:
            WorkerUnavailable: The owning worker is down and has not
                been restarted yet.
        """
        shard = self.shard_for(doc)
        line = encode(doc)
        if shard is None:
            responses: List[str] = []
            for worker in self.workers:
                responses.extend(worker.handle_line(line))
            return responses
        return self.workers[shard].handle_line(line)

    # -- heartbeats and healing ---------------------------------------

    def probe(self) -> List[str]:
        """One heartbeat round; returns the per-worker states."""
        states = []
        for worker in self.workers:
            self._probe_seq += 1
            probe_id = self._probe_seq
            request = {"id": f"hb-{probe_id}", "op": "health", "probe": probe_id}
            response = worker.probe(request)
            states.append(self.monitor.observe(worker.shard, probe_id, response))
        return states

    def heal(self) -> List[RecoveryReport]:
        """Restart every worker the monitor declared unavailable."""
        reports = []
        for worker in self.workers:
            if self.monitor.states[worker.shard] == WORKER_UNAVAILABLE:
                reports.append(self.restart(worker.shard))
        return reports

    def restart(self, shard: int) -> RecoveryReport:
        """Recover one dead worker from its WAL; re-arm its heartbeat."""
        worker = self.workers[shard]
        if worker.alive:
            raise FleetError(f"worker {shard} is still running")
        self._probe_seq += 1
        self.monitor.mark_recovering(shard, self._probe_seq)
        worker.install_map(self.shard_map)
        report = worker.start()
        worker.restarts += 1
        self.recoveries.append(report)
        return report

    # -- topology -----------------------------------------------------

    def _control_request(self, op: str, **operands: Any) -> Dict[str, Any]:
        self._control_seq += 1
        return {
            "id": f"fleet-{self._control_seq}",
            "rid": f"fleet-r{self._control_seq}",
            "op": op,
            **operands,
        }

    def install_map(self, shard_map: ShardMap) -> None:
        """Push a newer topology to the supervisor and every worker."""
        if shard_map.version < self.shard_map.version:
            raise ValueError(
                f"map version {shard_map.version} rolls back installed "
                f"version {self.shard_map.version}"
            )
        self.shard_map = shard_map
        for worker in self.workers:
            worker.install_map(shard_map)

    def migrate(self, pipeline: str, to_shard: int) -> ShardMap:
        """Move one pipeline to another shard, state included.

        Snapshot on the current owner, unregister there, install the
        bumped map fleet-wide, then restore on the new owner — all via
        ordinary protocol ops, so every step is journaled and the
        migration itself survives a crash of either worker (the
        snapshot travels inside the restore request, which the new
        owner journals before applying).

        The snapshot's barrier decides any admits still queued in the
        pipeline's batch, and their answers stay with this call, not
        with their clients.  The snapshot response carries those
        requests' dedup entries and the restore hands them to the new
        owner, so a client's retry there gets its original decision
        instead of running the admit a second time.

        Raises:
            WorkerUnavailable: Either worker involved is down.
            FleetError: A migration step was refused by a worker.
        """
        from_shard = self.shard_map.shard_of(pipeline)
        if from_shard == to_shard:
            raise FleetError(
                f"pipeline {pipeline!r} is already on shard {to_shard}"
            )
        snap_doc = self._control_request("snapshot", pipeline=pipeline)
        snap = self._expect_ok(self.workers[from_shard].handle_line(encode(snap_doc)))
        unreg_doc = self._control_request("unregister", pipeline=pipeline)
        self._expect_ok(self.workers[from_shard].handle_line(encode(unreg_doc)))
        self.install_map(self.shard_map.assign(pipeline, to_shard))
        restore_doc = self._control_request(
            "restore", pipeline=pipeline, snapshot=snap["snapshot"]
        )
        if "dedup" in snap:
            restore_doc["dedup"] = snap["dedup"]
        self._expect_ok(self.workers[to_shard].handle_line(encode(restore_doc)))
        return self.shard_map

    @staticmethod
    def _expect_ok(responses: List[str]) -> Dict[str, Any]:
        for line in responses:
            doc = json.loads(line)
            request_id = doc.get("id")
            if isinstance(request_id, str) and request_id.startswith("fleet-"):
                if not doc.get("ok"):
                    raise FleetError(
                        f"fleet control op failed: {doc.get('error')}: "
                        f"{doc.get('detail')}"
                    )
                return doc
        raise FleetError("fleet control op produced no direct response")

    # -- aggregation --------------------------------------------------

    def fleet_health(self) -> Dict[str, Any]:
        """Cross-shard health: per-worker state, seqs, and pipelines."""
        shards: List[Dict[str, Any]] = []
        for worker in self.workers:
            entry: Dict[str, Any] = {
                "shard": worker.shard,
                "state": self.monitor.states[worker.shard],
                "restarts": worker.restarts,
                "journal_seq": self.monitor.journal_seqs[worker.shard],
                "snapshot_seq": self.monitor.snapshot_seqs[worker.shard],
            }
            if worker.alive and worker.durable is not None:
                entry["pipelines"] = sorted(
                    p.name for p in worker.durable.gateway.registry
                )
                entry["draining"] = worker.durable.draining
            shards.append(entry)
        degraded = [s["shard"] for s in shards if s["state"] == WORKER_DEGRADED]
        unavailable = [
            s["shard"]
            for s in shards
            if s["state"] in (WORKER_UNAVAILABLE, WORKER_RECOVERING)
        ]
        return {
            "map_version": self.shard_map.version,
            "workers": len(self.workers),
            "degraded": degraded,
            "unavailable": unavailable,
            "seq_regressions": self.monitor.seq_regressions,
            "shards": shards,
        }

    def fleet_stats(self) -> Dict[str, Any]:
        """Cross-shard ``stats`` aggregation.

        Down shards are reported as ``{"state": "unavailable"}`` rather
        than omitted — a consumer must be able to tell "no pipelines"
        from "no answer".
        """
        per_shard: Dict[str, Any] = {}
        merged: Dict[str, Any] = {}
        for worker in self.workers:
            key = str(worker.shard)
            if not worker.alive:
                per_shard[key] = {
                    "state": self.monitor.states[worker.shard],
                    "stats": None,
                }
                continue
            doc = self._control_request("stats")
            answer = self._expect_ok(worker.handle_line(encode(doc)))
            stats = answer.get("stats", {})
            per_shard[key] = {
                "state": self.monitor.states[worker.shard],
                "stats": stats,
            }
            merged.update(stats)
        return {
            "map_version": self.shard_map.version,
            "pipelines": dict(sorted(merged.items())),
            "shards": per_shard,
        }

    def fingerprints(self) -> List[str]:
        """Per-shard registry fingerprints (shard order)."""
        return [worker.fingerprint() for worker in self.workers]

    def close(self) -> None:
        for worker in self.workers:
            worker.close()


# ----------------------------------------------------------------------
# Real-process fleet (slow_serve tier and the CLI)
# ----------------------------------------------------------------------


class ProcessWorker:
    """One ``python -m repro.serve`` subprocess with durable state.

    The child recovers from ``state_dir`` on every (re)spawn, binds an
    ephemeral port, and prints its bound address, which the parent
    parses.  :meth:`kill` delivers a real ``SIGKILL`` — no drain, no
    atexit — so respawn exercises the same torn-tail recovery the
    in-process chaos gate proves deterministic.
    """

    _BANNER = "repro.serve gateway listening on "

    def __init__(
        self,
        shard: int,
        state_dir: Union[str, Path],
        shard_count: int,
        fsync: bool = False,
    ) -> None:
        self.shard = shard
        self.state_dir = Path(state_dir)
        self.shard_count = shard_count
        self.fsync = fsync
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.spawns = 0

    def spawn(self, timeout: float = 30.0) -> None:
        if self.process is not None and self.process.poll() is None:
            raise FleetError(f"worker {self.shard} is already running")
        command = [
            sys.executable,
            "-m",
            "repro.serve",
            "--host",
            self.host,
            "--port",
            "0",
            "--state-dir",
            str(self.state_dir),
            "--shard-index",
            str(self.shard),
            "--shard-count",
            str(self.shard_count),
        ]
        if self.fsync:
            command.append("--fsync")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            bufsize=1,
        )
        self.spawns += 1
        assert self.process.stdout is not None
        while True:
            line = self.process.stdout.readline()
            if not line:
                raise FleetError(
                    f"worker {self.shard} exited before binding "
                    f"(rc={self.process.poll()})"
                )
            if line.startswith(self._BANNER):
                _, _, address = line.rstrip().rpartition(" ")
                host, _, port = address.rpartition(":")
                self.host, self.port = host, int(port)
                return

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def kill(self) -> None:
        """Real SIGKILL: the journal's torn tail is the only goodbye."""
        if self.process is None or self.process.poll() is not None:
            raise FleetError(f"worker {self.shard} is not running")
        os.kill(self.process.pid, signal.SIGKILL)
        self.process.wait()

    def close(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()
        self.process = None


class ProcessFleet:
    """A fleet of real subprocess workers under one root directory."""

    def __init__(
        self,
        workers: int,
        root_dir: Optional[Union[str, Path]] = None,
        fsync: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._owns_root = root_dir is None
        self.root_dir = Path(
            tempfile.mkdtemp(prefix="repro-fleet-") if root_dir is None else root_dir
        )
        self.workers = [
            ProcessWorker(
                shard, self.root_dir / f"worker-{shard}", workers, fsync=fsync
            )
            for shard in range(workers)
        ]

    def spawn(self) -> None:
        for worker in self.workers:
            worker.spawn()

    def close(self) -> None:
        for worker in self.workers:
            worker.close()
        if self._owns_root:
            import shutil

            shutil.rmtree(self.root_dir, ignore_errors=True)

    def __enter__(self) -> "ProcessFleet":
        self.spawn()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
