"""Write-ahead journal for the admission gateway.

The gateway core is deterministic: its state is a pure function of the
request-line sequence it has processed.  Durability therefore reduces
to *command journaling* — append each state-mutating request to an
append-only log **before** dispatching it, and a crashed gateway can be
rebuilt bitwise-identically by replaying the log through a fresh core
(see :mod:`repro.serve.recovery`).  This is what lets the recovered
controller keep the paper's premise that the synthetic-utilization
bookkeeping ``U_j(t)`` is *exact*: no admitted contribution is lost to
a crash, so Theorem 1's sufficient condition keeps holding across
restarts (DESIGN.md §10).

Journal records are canonical NDJSON::

    {"crc":"184f2c3b","op":{...request...},"seq":12}

- ``seq`` is a strictly monotonic sequence number (contiguous within a
  journal file).
- ``crc`` is the CRC-32 of the canonical encoding of ``{"op":...,
  "seq":...}`` — a torn or bit-flipped record never validates.
- ``op`` is the decoded request document — the very dict the core
  then dispatches — re-encoded canonically, so a record replays
  through :meth:`AdmissionGateway.handle_line
  <repro.serve.gateway.AdmissionGateway.handle_line>` exactly as the
  original request did.

Torn-tail semantics (see :func:`scan_journal`): a crash can leave a
*prefix* of the final record on disk (records are written in one
``write`` of ``line + "\\n"``).  Any unterminated or invalid tail is
truncated — its operation was never acknowledged, so dropping it is
safe and the idempotent client retries it.  Invalid records *before*
the final line, or sequence gaps, mean real corruption and raise
:class:`JournalError` instead of being silently skipped.

Compaction: the journal grows forever unless checkpointed.
:class:`DurableGateway` periodically writes a gateway-level snapshot
(wrapping the audited PR-3 pipeline snapshots) and resets the journal;
recovery loads the snapshot and replays only the journal suffix.  The
snapshot is written atomically (temp file + ``os.replace``) and the
journal reset *afterwards*, so a crash between the two leaves a journal
whose early records duplicate the snapshot — recovery skips records
with ``seq`` at or below the snapshot's sequence number.

Event loop: the journal's I/O (append, flush, optional fsync,
compaction) must not run on the asyncio server's loop.
:meth:`DurableGateway.handle_frames_async` runs a whole read chunk —
decode, appends, dispatch, compaction — in the default executor, one
hop per chunk.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .gateway import AdmissionGateway, Routed
from .protocol import OPS, ProtocolError, parse_request

__all__ = [
    "GATEWAY_SNAPSHOT_FORMAT",
    "JOURNALED_OPS",
    "JournalError",
    "Journal",
    "JournalScan",
    "scan_journal",
    "encode_record",
    "decode_record",
    "record_crc",
    "fsync_dir",
    "gateway_snapshot",
    "write_gateway_snapshot",
    "DurableGateway",
    "DEFAULT_SNAPSHOT_EVERY",
]

#: Version tag of the gateway-level snapshot written by compaction.
GATEWAY_SNAPSHOT_FORMAT = "repro.serve.gateway-snapshot/1"

#: Operations that reach the journal.  ``health`` is read-only; every
#: other op can mutate state (barrier ops flush pending batches even
#: when their own operand is invalid, so they are journaled too).
JOURNALED_OPS = frozenset(OPS) - {"health"}

#: Journaled operations between snapshot compactions, by default.
DEFAULT_SNAPSHOT_EVERY = 256


class JournalError(ValueError):
    """A journal that cannot be trusted: mid-file corruption or a
    sequence gap (torn *tails* are expected and truncated instead)."""


def _canonical(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def fsync_dir(path: Union[str, Path]) -> None:
    """fsync a *directory*, making completed renames in it durable.

    ``os.replace`` (and the journal's truncate-and-reopen reset) only
    update the directory entry; on power loss the rename itself can
    vanish even though the file's *data* was fsynced.  POSIX requires
    an fsync of the directory's own file descriptor to pin the entry
    (``O_DIRECTORY`` narrows the open where the platform supports it).
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    fd = os.open(str(path), flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def record_crc(op: Dict[str, Any], seq: int) -> str:
    """CRC-32 (8 hex chars) over the canonical ``{"op":...,"seq":...}``."""
    payload = _canonical({"op": op, "seq": seq}).encode("utf-8")
    return "%08x" % (zlib.crc32(payload) & 0xFFFFFFFF)


def encode_record(op: Dict[str, Any], seq: int) -> str:
    """Render one journal record as its canonical NDJSON line.

    The op is encoded once: sorted keys put ``crc`` first, so the
    canonical record is the CRC field spliced in front of the very
    ``{"op":...,"seq":...}`` text the CRC covers (:func:`record_crc`).
    """
    payload = _canonical({"op": op, "seq": seq})
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return '{"crc":"%08x",' % crc + payload[1:]


def decode_record(line: str) -> Dict[str, Any]:
    """Parse and validate one journal line.

    Returns:
        The record as ``{"crc": ..., "op": ..., "seq": ...}``.

    Raises:
        ValueError: On malformed JSON, a wrong field set, an ill-typed
            ``seq``/``op``, or a CRC mismatch.
    """
    doc = json.loads(line)
    if not isinstance(doc, dict) or set(doc) != {"crc", "op", "seq"}:
        raise ValueError("journal record must have exactly crc/op/seq fields")
    seq = doc["seq"]
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise ValueError(f"journal seq must be a positive integer, got {seq!r}")
    op = doc["op"]
    if not isinstance(op, dict):
        raise ValueError("journal op must be a JSON object")
    want = record_crc(op, seq)
    if doc["crc"] != want:
        raise ValueError(f"journal crc {doc['crc']!r} != computed {want!r}")
    return doc


@dataclass
class JournalScan:
    """Result of scanning a journal file.

    Attributes:
        records: Validated records in sequence order.
        truncated_bytes: Length of the torn tail removed, if any.
    """

    records: List[Dict[str, Any]] = field(default_factory=list)
    truncated_bytes: int = 0


def scan_journal(path: Union[str, Path], truncate: bool = True) -> JournalScan:
    """Read, validate, and (optionally) repair a journal file.

    A missing file scans as empty.  An invalid *final* line that is not
    newline-terminated is a torn write from a crash: it is dropped
    (and, with ``truncate``, physically removed so appends resume on a
    clean boundary).  Anything else invalid — a corrupt record before
    the tail, a newline-terminated record that fails validation, or a
    non-contiguous sequence — raises.

    Raises:
        JournalError: On mid-file corruption or a sequence gap.
    """
    path = Path(path)
    if not path.exists():
        return JournalScan()
    data = path.read_bytes()
    scan = JournalScan()
    good_size = 0
    expected_seq: Optional[int] = None
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        chunk = data[offset:] if newline < 0 else data[offset:newline]
        terminated = newline >= 0
        try:
            record = decode_record(chunk.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            if not terminated:
                # Torn tail: a prefix of the final record.  Its op was
                # never acknowledged, so dropping it loses nothing.
                scan.truncated_bytes = len(data) - offset
                break
            raise JournalError(
                f"corrupt journal record at byte {offset} of {path.name}: {exc}"
            ) from exc
        if not terminated:
            # A record that validates but lost its newline still counts
            # as torn: the write was cut exactly at the terminator and
            # the op was never acknowledged.  Treating it as durable
            # would make recovery depend on *where* the tear landed.
            scan.truncated_bytes = len(data) - offset
            break
        if expected_seq is not None and record["seq"] != expected_seq:
            raise JournalError(
                f"journal sequence gap in {path.name}: expected seq "
                f"{expected_seq}, found {record['seq']}"
            )
        expected_seq = record["seq"] + 1
        scan.records.append(record)
        good_size = newline + 1
        offset = newline + 1
    if scan.truncated_bytes and truncate:
        with open(path, "r+b") as handle:
            handle.truncate(good_size)
    return scan


class Journal:
    """Append-only NDJSON write-ahead log.

    Every append is flushed to the OS before returning — a process
    crash (the ``kill -9`` model) loses at most the final, torn record.
    ``fsync=True`` additionally survives whole-machine power loss at a
    large throughput cost (see ``benchmarks/bench_serve.py``).

    Args:
        path: Journal file (created if missing, appended otherwise).
        fsync: Force each record to stable storage.
        next_seq: Sequence number of the next record (recovery passes
            ``last replayed seq + 1``).
    """

    def __init__(
        self, path: Union[str, Path], fsync: bool = False, next_seq: int = 1
    ) -> None:
        if next_seq < 1:
            raise ValueError(f"next_seq must be >= 1, got {next_seq}")
        self.path = Path(path)
        self.fsync = fsync
        self._next_seq = next_seq
        self._file = open(self.path, "a", encoding="utf-8")

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._next_seq - 1

    def _sync(self) -> None:
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())

    def append(self, op: Dict[str, Any]) -> int:
        """Append one op record; return its sequence number."""
        seq = self._next_seq
        self._file.write(encode_record(op, seq) + "\n")
        self._sync()
        self._next_seq += 1
        return seq

    def append_torn(self, op: Dict[str, Any], keep: float = 0.5) -> None:
        """Write a *partial* record with no newline (crash injection).

        Simulates a ``kill -9`` mid-write: a prefix of the record
        reaches disk, the terminator does not, and the sequence number
        is *not* consumed (the op never became durable).  The journal
        must be discarded afterwards — only :func:`scan_journal` can
        repair the tail.
        """
        if not 0.0 < keep < 1.0:
            raise ValueError(f"keep must be in (0, 1), got {keep}")
        line = encode_record(op, self._next_seq)
        cut = max(1, int(len(line) * keep))
        self._file.write(line[:cut])
        self._sync()

    def reset(self, next_seq: int) -> None:
        """Truncate the journal (after a snapshot made it redundant).

        In fsync mode the parent directory is fsynced too: the
        truncate-and-reopen rewrites the directory entry, and losing
        that update to a power cut would resurrect pre-compaction
        records *below* the snapshot's sequence — harmless for replay
        (recovery skips them) but a durability lie about journal size.
        """
        if next_seq < 1:
            raise ValueError(f"next_seq must be >= 1, got {next_seq}")
        self._file.close()
        self._file = open(self.path, "w", encoding="utf-8")
        self._sync()
        if self.fsync:
            fsync_dir(self.path.parent)
        self._next_seq = next_seq

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


# ----------------------------------------------------------------------
# Gateway-level snapshot (compaction checkpoint)
# ----------------------------------------------------------------------


def gateway_snapshot(gateway: AdmissionGateway, seq: int) -> Dict[str, Any]:
    """Serialize full gateway state as of journal sequence ``seq``.

    Wraps one audited pipeline snapshot per registered pipeline plus
    the gateway-level counters and the idempotency window, so recovery
    restores retry deduplication along with controller state.

    Raises:
        ProtocolError: If any pipeline has a pending admission batch
            (compaction callers check first).
    """
    return {
        "format": GATEWAY_SNAPSHOT_FORMAT,
        "seq": seq,
        "draining": gateway.draining,
        "errors": gateway.errors,
        "op_counts": dict(sorted(gateway.op_counts.items())),
        "dedup_hits": gateway.dedup_hits,
        "dedup": gateway.dedup_state(),
        "pipelines": [pipeline.snapshot() for pipeline in gateway.registry],
    }


def write_gateway_snapshot(
    path: Union[str, Path], doc: Dict[str, Any], fsync: bool = False
) -> None:
    """Atomically write a snapshot document (temp file + ``os.replace``).

    With ``fsync``, the write is made power-loss durable in the full
    three-step discipline: fsync the temp file's *data*, rename it over
    the target, then fsync the *parent directory* so the rename's
    directory-entry update itself survives — without the last step a
    crash can roll the directory back to the old snapshot even though
    the new bytes were stable.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(_canonical(doc) + "\n")
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        if fsync:
            fsync_dir(path.parent)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class DurableGateway:
    """A write-ahead-journaled wrapper around :class:`AdmissionGateway`.

    Satisfies :class:`~repro.serve.gateway.GatewayLike`, so it drops
    into :class:`~repro.serve.gateway.GatewayServer` and
    :class:`~repro.serve.client.InProcessTransport` unchanged.  Each
    state-mutating request is journaled *before* the core dispatches
    it — the same decoded dict, so a request is parsed once however
    the stack is built; requests that cannot mutate controller state
    (bad JSON, ``health``, idempotent-retry hits) bypass the journal.

    Args:
        gateway: The wrapped core (usually freshly recovered).
        journal: The open write-ahead log.
        snapshot_path: Where compaction checkpoints go.
        snapshot_every: Journaled ops between compaction attempts
            (``0`` disables automatic compaction).
        last_snapshot_seq: Sequence already covered by the snapshot on
            disk (recovery passes this through).
    """

    def __init__(
        self,
        gateway: AdmissionGateway,
        journal: Journal,
        snapshot_path: Union[str, Path],
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        last_snapshot_seq: int = 0,
    ) -> None:
        if snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
        self.gateway = gateway
        self.journal = journal
        self.snapshot_path = Path(snapshot_path)
        self.snapshot_every = snapshot_every
        self.last_snapshot_seq = last_snapshot_seq
        self._ops_since_snapshot = 0
        # Surface durable progress in ``health`` responses so fleet
        # heartbeats can seq-stamp liveness: a journal sequence that
        # regresses between probes means the worker came back without
        # its durable state.
        gateway.health_extra = self._health_extra

    def _health_extra(self) -> Dict[str, Any]:
        return {
            "journal_seq": self.journal.last_seq,
            "snapshot_seq": self.last_snapshot_seq,
        }

    # -- GatewayLike surface ------------------------------------------

    @property
    def draining(self) -> bool:
        return self.gateway.draining

    @draining.setter
    def draining(self, value: bool) -> None:
        self.gateway.draining = value

    @property
    def registry(self) -> Any:
        return self.gateway.registry

    def handle_line(self, line: str, origin: Any = None) -> List[Routed]:
        """Journal (when mutating) then dispatch one request line."""
        return self.handle_frames((line,), origin)

    def handle_frames(
        self, frames: Sequence[Union[bytes, str]], origin: Any = None
    ) -> List[Routed]:
        """Decode each frame once, then journal and dispatch it (the
        loop of :meth:`AdmissionGateway.handle_frames`)."""
        routed: List[Routed] = []
        for frame in frames:
            try:
                request = parse_request(frame)
            except ProtocolError as exc:
                self.handle_decode_error(exc, origin, routed)
                continue
            if request is not None:
                self.handle_request(request, origin, routed)
        return routed

    def handle_request(
        self, request: Dict[str, Any], origin: Any, routed: List[Routed]
    ) -> None:
        """Journal ``request`` if it can mutate state, then dispatch it.

        Durability is per request: the append completes before the core
        sees the request, so its effects never exist unjournaled.
        Bypassed: non-mutating ops, and idempotent retries already
        decided or pending in the dedup window (journaling a retry
        would replay a second, state-mutating copy of the op).
        """
        rid = request.get("rid")
        if request["op"] not in JOURNALED_OPS or (
            rid is not None and self.gateway.dedup_status(rid) != "unknown"
        ):
            self.gateway.handle_request(request, origin, routed)
            return
        self.journal.append(request)
        self.gateway.handle_request(request, origin, routed)
        self._ops_since_snapshot += 1
        self._maybe_compact()

    def handle_decode_error(
        self, exc: ProtocolError, origin: Any, routed: List[Routed]
    ) -> None:
        """Undecodable requests mutate nothing: straight to the core.

        Only its error counter moves, and counters are diagnostics, not
        part of the durability contract.
        """
        self.gateway.handle_decode_error(exc, origin, routed)

    async def handle_frames_async(
        self, frames: Sequence[bytes], origin: Any = None
    ) -> List[Routed]:
        """Event-loop-safe :meth:`handle_frames`: the whole chunk —
        decode, journal appends (flush, optional fsync), dispatch and
        compaction — runs in the default executor, one hop per chunk.

        Ordering is identical to the sync path — each append completes
        before its request dispatches, and the server's dispatch lock is
        held across the whole call — so durability and bitwise
        determinism are unchanged.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.handle_frames, frames, origin)

    def drain(self) -> List[Routed]:
        """Journal a synthetic drain record, then flush pending batches.

        Flushing decides queued admissions — a mutation — so it must
        hit the journal first.  The record is marked ``synthetic`` so
        recovery replays it via :meth:`AdmissionGateway.drain` (no op
        counter) exactly as it ran here.
        """
        if not any(pipeline.pending for pipeline in self.gateway.registry):
            return []
        self.journal.append({"op": "drain", "synthetic": True})
        routed = self.gateway.drain()
        self._ops_since_snapshot += 1
        self._maybe_compact()
        return routed

    async def drain_async(self) -> List[Routed]:
        """Event-loop-safe :meth:`drain`, in the default executor."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.drain)

    # -- Compaction ----------------------------------------------------

    def _maybe_compact(self) -> None:
        if self.snapshot_every and self._ops_since_snapshot >= self.snapshot_every:
            self.compact()

    def compact(self) -> bool:
        """Checkpoint gateway state and reset the journal.

        Skipped (returns ``False``) while any pipeline holds a pending
        admission batch — pipeline snapshots refuse to drop queued
        arrivals, and the journal suffix already covers them.
        """
        if any(pipeline.pending for pipeline in self.gateway.registry):
            return False
        seq = self.journal.last_seq
        doc = gateway_snapshot(self.gateway, seq)
        write_gateway_snapshot(self.snapshot_path, doc, fsync=self.journal.fsync)
        self.journal.reset(next_seq=seq + 1)
        self.last_snapshot_seq = seq
        self._ops_since_snapshot = 0
        return True

    def close(self) -> None:
        self.journal.close()
