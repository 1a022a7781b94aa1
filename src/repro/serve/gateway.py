"""The admission gateway: protocol dispatch and the asyncio server.

Two layers:

:class:`AdmissionGateway`
    Synchronous, deterministic core.  Each request is decoded once
    and dispatched by :meth:`~AdmissionGateway.handle_request`, which
    yields zero or more ``(origin, response line)`` pairs (batched
    admissions defer their responses until the batch flushes, so a
    single request can release responses owed to *earlier* requests,
    potentially from other connections).  All protocol errors become
    error responses — the gateway never raises for request content.

:class:`GatewayServer`
    Asyncio TCP front end.  Reads newline-delimited requests per
    connection, feeds them to the shared core, routes responses to the
    connection that issued each request, applies write backpressure
    (``await drain()``), and performs a graceful drain on shutdown:
    pending admission batches are flushed and their responses delivered
    before sockets close.

The core is also driven directly by
:class:`repro.serve.client.InProcessTransport` — same lines, same
bytes, no event loop — which keeps tests and the load generator
deterministic and fast while exercising the full protocol stack.
"""

from __future__ import annotations

import asyncio
import json
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Protocol, Sequence, Tuple, Union,
)

# ``orjson`` and ``_folded_holds_huge_int`` are not used here; they are
# re-exported only because the per-layer tracer in perfbench/layers.py
# patches both names on this module.
from .protocol import (
    MAX_REQUEST_CHARS,
    OPS,
    NdjsonFramer,
    ProtocolError,
    _folded_holds_huge_int,  # noqa: F401 — tracer re-export
    admit_response_batch,
    encode,
    error_response,
    frontier_from_wire,
    ok_response,
    orjson,  # noqa: F401 — tracer re-export
    parse_request,
    task_from_wire,
)
from .registry import Decided, PipelinePolicy, PipelineRegistry, ServedPipeline
from .snapshot import verify_restored

__all__ = [
    "AdmissionGateway",
    "GatewayLike",
    "GatewayServer",
    "serve_forever",
    "DEFAULT_DEDUP_WINDOW",
]

#: ``(origin, response line)`` — origin is the opaque connection token
#: the request arrived with (``None`` for in-process callers).
Routed = Tuple[Any, str]

#: Default size of the idempotency deduplication window: how many
#: decided ``rid``-tagged responses the gateway remembers for retries.
DEFAULT_DEDUP_WINDOW = 1024

#: Placeholder for a dedup entry whose original request id is unknown
#: (restored from serialized state); resolved lazily on first retry.
_UNKNOWN_ID = object()

#: Canonical op instances (``parse_request`` swaps every parsed op for
#: its canonical string), so the dispatcher's hot comparisons are
#: identity tests instead of string equality.
_OP_ADMIT = OPS[OPS.index("admit")]
_OP_HEALTH = OPS[OPS.index("health")]


class GatewayLike(Protocol):
    """The surface the server/transports need from a gateway core.

    Satisfied by :class:`AdmissionGateway` and by the wrappers that
    stack on it, :class:`repro.serve.journal.DurableGateway` and
    :class:`repro.serve.router.ShardGateway`.  A stack decodes each
    request once, in its outermost layer's :meth:`handle_frames`; every
    layer then receives the same dict through :meth:`handle_request`,
    or the decode failure through :meth:`handle_decode_error`.

    The ``*_async`` variants are what the asyncio server calls: a stack
    that performs real I/O (the durable journal) must keep it off the
    event loop there.  The sync variants remain the interface for
    in-process transports and recovery replay, where there is no loop
    to stall.
    """

    @property
    def draining(self) -> bool: ...

    @draining.setter
    def draining(self, value: bool) -> None: ...

    def handle_request(
        self, request: Dict[str, Any], origin: Any, routed: List[Routed]
    ) -> None: ...

    def handle_decode_error(
        self, exc: ProtocolError, origin: Any, routed: List[Routed]
    ) -> None: ...

    def handle_line(self, line: str, origin: Any = None) -> List[Routed]: ...

    def handle_frames(
        self, frames: Sequence[Union[bytes, str]], origin: Any = None
    ) -> List[Routed]: ...

    def drain(self) -> List[Routed]: ...

    async def handle_frames_async(
        self, frames: Sequence[bytes], origin: Any = None
    ) -> List[Routed]: ...

    async def drain_async(self) -> List[Routed]: ...


class AdmissionGateway:
    """Deterministic protocol core over a :class:`PipelineRegistry`.

    Args:
        registry: The pipeline registry to serve (fresh if ``None``).
        dedup_window: How many decided idempotent (``rid``-tagged)
            responses to keep for retry deduplication; oldest entries
            are evicted first.
    """

    def __init__(
        self,
        registry: Optional[PipelineRegistry] = None,
        dedup_window: int = DEFAULT_DEDUP_WINDOW,
    ) -> None:
        if dedup_window < 1:
            raise ValueError(f"dedup_window must be >= 1, got {dedup_window}")
        self.registry = registry if registry is not None else PipelineRegistry()
        self.draining = False
        #: Optional provider of extra ``health`` payload fields — the
        #: durable wrapper reports its journal/snapshot sequence here so
        #: fleet heartbeats can watch replication progress (a regressing
        #: sequence means the worker lost durable state).
        self.health_extra: Optional[Callable[[], Dict[str, Any]]] = None
        self.op_counts: Dict[str, int] = {}
        self.errors = 0
        self.dedup_window = dedup_window
        self.dedup_hits = 0
        #: rids whose requests are in flight (queued in an admission
        #: batch) and not yet answered.
        self._rid_pending: set = set()
        #: rid -> ``[line, original_id, parsed_doc_or_None]``.  The
        #: original request id lets a retry carrying the same id be
        #: served the cached line verbatim in O(1); the parsed document
        #: is materialized lazily, once, for retries that need the id
        #: echo rewritten.  A plain dict doubles as the FIFO eviction
        #: queue: CPython dicts iterate in insertion order, delete-then-
        #: reinsert moves a refreshed rid to the back, and ``del
        #: window[next(iter(window))]`` evicts the oldest — amortized
        #: O(1), cheaper per settle than ``OrderedDict``'s link juggling.
        self._rid_decided: Dict[str, List[Any]] = {}
        #: op -> bound handler for every op but ``admit`` (which
        #: :meth:`handle_request` runs inline).  ``parse_request``
        #: guarantees the op is one of ``OPS``, so dispatch is one dict
        #: lookup instead of a per-request ``getattr`` string build.
        self._handlers: Dict[str, Callable[[Dict[str, Any], Any, List[Routed]], None]] = {
            op: getattr(self, f"_op_{op}") for op in OPS if op is not _OP_ADMIT
        }

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def handle_line(self, line: str, origin: Any = None) -> List[Routed]:
        """Process one request line; return routed response lines."""
        return self.handle_frames((line,), origin)

    def handle_frames(
        self, frames: Sequence[Union[bytes, str]], origin: Any = None
    ) -> List[Routed]:
        """Decode each frame once and dispatch it; return routed responses.

        ``frames`` are :class:`~repro.serve.protocol.NdjsonFramer`
        frames, where a blank one carries no request and gets no
        response, or in-process lines.  Each is decoded by
        :func:`~repro.serve.protocol.parse_request` and handed to
        :meth:`handle_request`.  The wrappers' ``handle_frames`` are
        this loop over their own ``handle_request``.
        """
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
        """Dispatch one decoded request, appending its responses to ``routed``.

        Never raises for request content — an unserviceable request
        produces an error response to ``origin``.  Handlers accumulate
        into the shared ``routed``, so responses already released by the
        request (batched admissions flushed by a barrier operation) are
        still delivered when the operation itself subsequently fails:
        the batch's decisions mutate controller state, and the clients
        that queued them must see them even though the failing request
        only gets an error.
        """
        try:
            op = request["op"]
            # ``health`` is read-only and unjournaled, so its responses
            # must stay out of the (durable) idempotency window.  The
            # envelope validation guarantees any present rid is a
            # string, so no type re-check is needed here.
            if op is not _OP_HEALTH:
                rid = request.get("rid")
                if rid is not None:
                    entry = self._rid_decided.get(rid)
                    if entry is not None:
                        # Idempotent retry of an already-decided
                        # request: serve the cached decision without
                        # re-running the operation (and without
                        # counting it as a new op).  The window stays
                        # in decision order — a hit must NOT refresh
                        # the entry's position, because hits are served
                        # without journaling and an LRU bump here could
                        # never be reproduced by crash-recovery replay
                        # (eviction order, and with it future dedup
                        # decisions, would diverge from a never-crashed
                        # gateway).
                        self.dedup_hits += 1
                        routed.append((origin, self._replay(entry, request)))
                        return
                    if rid in self._rid_pending:
                        # The original is still queued in an admission
                        # batch; there is no decision to replay yet.
                        # Not an ``errors`` increment — the client did
                        # nothing wrong, it just retried too early.
                        routed.append(
                            (
                                origin,
                                error_response(
                                    request,
                                    "duplicate-request",
                                    f"request rid {rid!r} is still queued in "
                                    "an admission batch; retry after it is "
                                    "decided",
                                ),
                            )
                        )
                        return
                    self._rid_pending.add(rid)
            op_counts = self.op_counts
            op_counts[op] = op_counts.get(op, 0) + 1
            if op is _OP_ADMIT:
                # The dominant op, run inline: no handler-table hop and
                # no barrier.  Responses settle when their batch
                # flushes (see :meth:`_emit_decided`).
                if self.draining:
                    raise ProtocolError(
                        "draining", "gateway is draining; no new admits"
                    )
                pipeline = self.registry.get(request["pipeline"])
                task = task_from_wire(request.get("task"))
                decided = pipeline.admit((origin, request), task)
                if decided:
                    self._emit_decided(decided, routed)
            else:
                self._handlers[op](request, origin, routed)
                # Every non-admit handler appends the response
                # answering *this* request last.
                self._settle(request, routed[-1][1])
        except ProtocolError as exc:
            self.errors += 1
            response = error_response(request, exc.code, exc.detail)
            self._settle(request, response)
            routed.append((origin, response))

    def handle_decode_error(
        self, exc: ProtocolError, origin: Any, routed: List[Routed]
    ) -> None:
        """Answer a request that failed to decode.

        With no decoded request there is no ``id``/``op`` to echo and
        no rid to settle into the dedup window.
        """
        self.errors += 1
        routed.append((origin, error_response(None, exc.code, exc.detail)))

    def drain(self) -> List[Routed]:
        """Flush every pipeline's pending batch (shutdown path)."""
        routed: List[Routed] = []
        for pipeline in self.registry:
            self._emit_decided(pipeline.flush(), routed)
        return routed

    async def handle_frames_async(
        self, frames: Sequence[bytes], origin: Any = None
    ) -> List[Routed]:
        """Async facade over :meth:`handle_frames` — the core is pure
        compute, so there is nothing to offload."""
        return self.handle_frames(frames, origin)

    async def drain_async(self) -> List[Routed]:
        """Async facade over :meth:`drain` (pure compute)."""
        return self.drain()

    # ------------------------------------------------------------------
    # Idempotency (rid deduplication)
    # ------------------------------------------------------------------

    def _settle(self, request: Dict[str, Any], line: str) -> None:
        """Record ``line`` as the decision for ``request``'s rid, if any."""
        rid = request.get("rid")
        if not isinstance(rid, str) or request.get("op") == "health":
            return
        self._remember(rid, line, request.get("id"))

    def _remember(self, rid: str, line: str, original_id: Any) -> None:
        """Make ``line`` the newest decided answer for ``rid``."""
        self._rid_pending.discard(rid)
        decided = self._rid_decided
        if rid in decided:
            # Re-deciding an existing rid must move it to the back of
            # the eviction order; deleting first makes the reinsert
            # land there.
            del decided[rid]
        decided[rid] = [line, original_id, None]
        while len(decided) > self.dedup_window:
            del decided[next(iter(decided))]

    @staticmethod
    def _replay(entry: List[Any], request: Dict[str, Any]) -> str:
        """The cached decision line, with the ``id`` echo matching ``request``.

        The dominant retry (same request id as the original, or a
        restored entry retried once before) is served the stored line
        verbatim — no JSON parse, no re-encode.  Only a retry carrying
        a *different* id pays for rewriting, against a parsed document
        cached on the entry.  The type check keeps int/bool ids apart:
        ``1 == True`` but they encode differently.
        """
        line, original_id, doc = entry
        request_id = request.get("id")
        if type(request_id) is type(original_id) and request_id == original_id:
            return line
        if doc is None:
            doc = json.loads(line)
            entry[2] = doc
            if original_id is _UNKNOWN_ID:
                entry[1] = doc.get("id")
                if (
                    type(request_id) is type(entry[1])
                    and request_id == entry[1]
                ):
                    return line
        rewritten = dict(doc)
        rewritten["id"] = request_id
        return encode(rewritten)

    def dedup_status(self, rid: str) -> str:
        """One of ``"decided"``, ``"pending"``, ``"unknown"`` for a rid."""
        if rid in self._rid_decided:
            return "decided"
        if rid in self._rid_pending:
            return "pending"
        return "unknown"

    def dedup_state(self) -> Dict[str, Any]:
        """The dedup window as a JSON-serializable document.

        ``decided`` preserves eviction (insertion) order so a restored
        gateway evicts in the same order as the original.
        """
        return {
            "decided": [
                [rid, entry[0]] for rid, entry in self._rid_decided.items()
            ],
            "pending": sorted(self._rid_pending),
        }

    def load_dedup_state(self, state: Dict[str, Any]) -> None:
        """Replace the dedup window with a :meth:`dedup_state` document."""
        self._rid_decided = {}
        for rid, line in state.get("decided", []):
            self._remember(rid, line, _UNKNOWN_ID)
        self._rid_pending = set(state.get("pending", []))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _emit_decided(self, decided: List[Decided], routed: List[Routed]) -> None:
        """Append decided admissions to ``routed``, settling their rids.

        The whole flush is encoded in one :func:`admit_response_batch`
        call (byte-identical to per-decision :func:`admit_response` —
        pinned by test); an empty shed tuple skips the ``sorted`` call,
        which encodes identically because both are falsy.
        """
        if not decided:
            return
        lines = admit_response_batch(
            [
                (
                    token[1],
                    decision.admitted,
                    decision.region_value,
                    sorted(decision.shed, key=repr) if decision.shed else decision.shed,
                )
                for token, _task, decision in decided
                if decision is not None
            ]
        )
        if len(lines) < len(decided):
            lines = self._with_duplicates(decided, lines)
        for (token, _task, _decision), line in zip(decided, lines):
            self._settle(token[1], line)
            routed.append((token[0], line))

    def _with_duplicates(self, decided: List[Decided], lines: List[str]) -> List[str]:
        """Splice a ``duplicate-task`` error in for every ``None`` decision.

        The registry refuses an admit that reuses a live task id without
        deciding it (:class:`~repro.serve.registry.ServedPipeline`); the
        answer is an error like any other refused request, so it counts
        in ``errors`` and settles its rid.
        """
        answered = iter(lines)
        merged: List[str] = []
        for token, task, decision in decided:
            if decision is None:
                self.errors += 1
                merged.append(
                    error_response(
                        token[1],
                        "duplicate-task",
                        f"task {task.task_id!r} is already admitted and still "
                        "holds charges; use a fresh task id",
                    )
                )
            else:
                merged.append(next(answered))
        return merged

    def _barrier(self, request: Dict[str, Any], routed: List[Routed]) -> ServedPipeline:
        """Look up the target pipeline and flush its pending batch.

        Every non-admit pipeline operation is a batch barrier: queued
        admissions are decided (and their responses released) *before*
        the operation runs, so observers see sequential-equivalent
        state.  The flushed decisions go straight into ``routed`` so
        they survive even if the operation fails after the barrier
        (handlers validate their operands first, but some failures —
        e.g. a time regression — are only detectable afterwards).
        """
        pipeline = self.registry.get(request["pipeline"])
        self._emit_decided(pipeline.flush(), routed)
        return pipeline

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def _op_health(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        extra = self.health_extra() if self.health_extra is not None else {}
        routed.append(
            (
                origin,
                ok_response(
                    request,
                    pipelines=sorted(self.registry.names()),
                    draining=self.draining,
                    errors=self.errors,
                    dedup_hits=self.dedup_hits,
                    **extra,
                ),
            )
        )

    def _op_register(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        policy = PipelinePolicy.from_dict(request.get("policy"))
        pipeline = self.registry.register(request["pipeline"], policy)
        routed.append(
            (
                origin,
                ok_response(
                    request,
                    pipeline=pipeline.name,
                    region_budget=pipeline.controller.budget,
                ),
            )
        )

    def _op_unregister(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        pipeline = self._barrier(request, routed)
        self.registry.unregister(pipeline.name)
        routed.append((origin, ok_response(request, pipeline=pipeline.name)))

    def _op_depart(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        task_id = _task_id_operand(request)
        stage = _stage_operand(request)
        pipeline = self._barrier(request, routed)
        pipeline.depart(task_id, stage)
        routed.append((origin, ok_response(request)))

    def _op_idle(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        stage = _stage_operand(request)
        pipeline = self._barrier(request, routed)
        released = pipeline.idle(stage)
        routed.append((origin, ok_response(request, released=released)))

    def _op_expire(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        now = _time_operand(request)
        pipeline = self._barrier(request, routed)
        pipeline.expire(now)
        routed.append(
            (
                origin,
                ok_response(
                    request, region_value=pipeline.controller.region_value()
                ),
            )
        )

    def _op_capacity(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        value = request.get("capacity")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError("bad-request", "capacity must be a number")
        stage = _stage_operand(request)
        pipeline = self._barrier(request, routed)
        pipeline.set_capacity(stage, float(value))
        routed.append(
            (
                origin,
                ok_response(
                    request,
                    capacities=list(pipeline.controller.stage_capacities()),
                ),
            )
        )

    def _op_set_capacity(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        value = request.get("capacity")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError("bad-request", "capacity must be a number")
        stage = _stage_operand(request)
        pipeline = self._barrier(request, routed)
        summary = pipeline.rescale_capacity(stage, float(value))
        routed.append(
            (
                origin,
                ok_response(
                    request,
                    capacities=list(pipeline.controller.stage_capacities()),
                    sacrificed=summary["sacrificed"],
                    region_value=summary["region_value"],
                ),
            )
        )

    def _op_report(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        kind = request.get("kind")
        if not isinstance(kind, str):
            raise ProtocolError("bad-request", "'kind' must be a string")
        ratio = request.get("ratio")
        if ratio is not None and (
            not isinstance(ratio, (int, float)) or isinstance(ratio, bool)
        ):
            raise ProtocolError("bad-request", "'ratio' must be a number")
        stage = _stage_operand(request)
        pipeline = self._barrier(request, routed)
        result = pipeline.report_observation(stage, kind, ratio)
        routed.append(
            (
                origin,
                ok_response(
                    request,
                    confirmed=result["confirmed"],
                    capacity=result["capacity"],
                    sacrificed=result["sacrificed"],
                ),
            )
        )

    def _op_resync(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        now = _time_operand(request)
        frontier = frontier_from_wire(request.get("frontier", {}))
        pipeline = self._barrier(request, routed)
        report = pipeline.resync(now, frontier)
        routed.append(
            (
                origin,
                ok_response(
                    request,
                    report=report,
                    region_value=pipeline.controller.region_value(),
                ),
            )
        )

    def _op_snapshot(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        pipeline = self.registry.get(request["pipeline"])
        flushed = pipeline.flush()
        self._emit_decided(flushed, routed)
        try:
            snapshot = pipeline.snapshot()
        except ValueError as exc:
            raise ProtocolError("bad-snapshot", str(exc)) from exc
        # The barrier just decided these queued requests, and a
        # migration restores the snapshot elsewhere before their clients
        # see the answers.  Their dedup entries ride along (``dedup`` on
        # the restore), so a retry at the new owner replays the decision
        # instead of running the admit again.
        rids = [token[1].get("rid") for token, _task, _decision in flushed]
        carried = [
            [rid, self._rid_decided[rid][0]] for rid in rids if rid in self._rid_decided
        ]
        extra = {"dedup": carried} if carried else {}
        routed.append((origin, ok_response(request, snapshot=snapshot, **extra)))

    def _op_restore(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        name = request["pipeline"]
        carried = _dedup_operand(request)
        pipeline = ServedPipeline.from_snapshot(request.get("snapshot"), name=name)
        violations = verify_restored(pipeline.controller, pipeline.clock)
        if violations:
            raise ProtocolError(
                "restore-audit-failed",
                "; ".join(f"{v.kind}: {v.detail}" for v in violations),
            )
        self.registry.adopt(pipeline)
        # Answers decided where the snapshot was taken: they join the
        # window as if decided here (see _op_snapshot).
        for rid, line in carried:
            self._remember(rid, line, _UNKNOWN_ID)
        routed.append(
            (
                origin,
                ok_response(
                    request,
                    pipeline=name,
                    audited=True,
                    region_value=pipeline.controller.region_value(),
                ),
            )
        )

    def _op_stats(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        name = request.get("pipeline")
        if name is not None:
            if not isinstance(name, str):
                raise ProtocolError("bad-request", "pipeline must be a string")
            pipeline = self._barrier({"pipeline": name}, routed)
            stats = {name: pipeline.stats()}
        else:
            for pipeline in self.registry:
                self._emit_decided(pipeline.flush(), routed)
            stats = {p.name: p.stats() for p in self.registry}
        routed.append(
            (
                origin,
                ok_response(
                    request,
                    ops=dict(sorted(self.op_counts.items())),
                    stats=stats,
                ),
            )
        )

    def _op_drain(self, request: Dict[str, Any], origin: Any, routed: List[Routed]) -> None:
        routed.extend(self.drain())
        routed.append((origin, ok_response(request, drained=True)))


def _time_operand(request: Dict[str, Any]) -> float:
    value = request.get("now")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError("bad-request", "'now' must be a number")
    return float(value)


def _stage_operand(request: Dict[str, Any]) -> int:
    value = request.get("stage")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError("bad-request", "'stage' must be an integer")
    return value


def _dedup_operand(request: Dict[str, Any]) -> List[List[str]]:
    """A restore's carried ``[rid, response line]`` dedup entries."""
    value = request.get("dedup", [])
    if not isinstance(value, list) or not all(
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(part, str) for part in entry)
        for entry in value
    ):
        raise ProtocolError("bad-request", "'dedup' must be a list of [rid, line] pairs")
    return value


def _task_id_operand(request: Dict[str, Any]) -> Hashable:
    value = request.get("task_id")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError("bad-request", "'task_id' must be an integer")
    return value


class GatewayServer:
    """Asyncio TCP front end over a shared :class:`AdmissionGateway`.

    One server, many connections, one deterministic core: requests are
    dispatched in arrival order per connection; responses (including
    deferred batched-admission responses owed to other connections) are
    routed to the connection that issued the request.  Writes apply
    backpressure via ``drain()`` so a slow reader cannot balloon server
    memory.
    """

    def __init__(
        self,
        gateway: Optional[GatewayLike] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.gateway: GatewayLike = (
            gateway if gateway is not None else AdmissionGateway()
        )
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._next_origin = 0
        self._lock = asyncio.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    #: Stream-reader buffer limit.  Comfortably above the protocol's
    #: ``MAX_REQUEST_CHARS`` so every line the protocol would accept
    #: (or reject with a structured ``too-large`` error) fits; a line
    #: that overruns even this is answered with the same structured
    #: error and the connection is closed instead of wedged.
    READER_LIMIT = 4 * MAX_REQUEST_CHARS

    #: Bytes requested per socket read.  Frames are re-assembled by
    #: :class:`repro.serve.protocol.NdjsonFramer`, so the chunk size
    #: only trades syscall count against latency, not correctness.
    READ_CHUNK = 64 * 1024

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=self.READER_LIMIT
        )

    async def shutdown(self) -> None:
        """Graceful drain: flush batches, deliver responses, close."""
        self.gateway.draining = True
        async with self._lock:
            await self._deliver(await self.gateway.drain_async())
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.gateway.draining:
            # A draining gateway tells new connections *why* instead of
            # silently closing the socket under them.
            response = error_response(
                None, "draining", "gateway is draining; not accepting connections"
            )
            try:
                writer.write(response.encode("utf-8") + b"\n")
                await writer.drain()
            finally:
                writer.close()
            return
        origin = self._next_origin
        self._next_origin += 1
        self._writers[origin] = writer
        framer = NdjsonFramer(self.READER_LIMIT)
        try:
            while True:
                data = await reader.read(self.READ_CHUNK)
                if data:
                    frames = framer.feed(data)
                else:
                    # EOF: an unterminated trailing line is still a
                    # request, exactly as ``readline()`` returned it.
                    tail = framer.finish()
                    frames = [tail] if tail is not None else []
                if frames:
                    # The lock serializes dispatch across connections, so the
                    # deterministic core only ever sees one request at a time.
                    # The async variant keeps a durable stack's journal I/O
                    # off the event loop (one executor hop per chunk).  One
                    # call per read chunk, delivered with one write+drain
                    # instead of one per line.
                    async with self._lock:
                        routed = await self.gateway.handle_frames_async(
                            frames, origin=origin
                        )
                        await self._deliver(routed)
                if framer.overflowed:
                    # A line longer than READER_LIMIT.  Complete frames
                    # ahead of it were answered above; tell the client
                    # why, then close — the stream position inside the
                    # oversized line is unrecoverable, but the *server*
                    # must not wedge and other connections are
                    # unaffected.
                    response = error_response(
                        None,
                        "too-large",
                        f"request line exceeds the {self.READER_LIMIT}-byte "
                        "stream limit; connection closed",
                    )
                    writer.write(response.encode("utf-8") + b"\n")
                    await writer.drain()
                    break
                if not data:
                    break
        finally:
            # The origin key is written once above and removed only
            # here, both by this connection's own task — no other
            # coroutine touches this key, so the two mutations cannot
            # race across the awaits in between.
            self._writers.pop(origin, None)  # repro: noqa[ASY002] — per-connection key, single-owner
            writer.close()

    async def _deliver(self, routed: List[Routed]) -> None:
        """Write responses, coalesced into one write+drain per connection.

        A batch flush can release dozens of responses at once; paying a
        ``drain()`` round trip per response serializes the event loop on
        the slowest socket.  Responses are grouped by origin — order
        preserved within each connection, which is the only ordering the
        protocol promises — and each connection gets a single buffered
        write followed by a single backpressure ``drain()``.
        """
        if not routed:
            return
        by_origin: Dict[Any, List[str]] = {}
        for origin, response in routed:
            by_origin.setdefault(origin, []).append(response)
        for origin, responses in by_origin.items():
            writer = self._writers.get(origin)
            if writer is None or writer.is_closing():
                continue
            writer.write(("\n".join(responses) + "\n").encode("utf-8"))
            await writer.drain()


async def serve_forever(
    host: str, port: int, gateway: Optional[GatewayLike] = None
) -> None:
    """Run a gateway server until cancelled (``python -m repro.serve``)."""
    server = GatewayServer(gateway, host=host, port=port)
    await server.start()
    bound_host, bound_port = server.address
    print(f"repro.serve gateway listening on {bound_host}:{bound_port}", flush=True)
    try:
        assert server._server is not None
        await server._server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.shutdown()
