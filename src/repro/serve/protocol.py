"""Wire protocol of the admission gateway: newline-delimited JSON.

One request per line, one or more JSON responses per request (batched
``admit`` responses are deferred until their batch flushes).  The
protocol is transport-agnostic — the same lines flow over TCP or the
in-process transport — and strictly deterministic: responses are a pure
function of the request sequence, never of wall-clock time.

Request envelope::

    {"id": 7, "op": "admit", "pipeline": "web", ...operands}

Response envelope::

    {"id": 7, "op": "admit", "ok": true, ...payload}
    {"id": 7, "op": "admit", "ok": false, "error": "unknown-pipeline",
     "detail": "..."}

Idempotency: a request may carry an optional ``rid`` — a
client-chosen unique string (a UUID in practice).  The gateway
remembers the response it gave each ``rid`` inside a bounded
deduplication window; a retry with the same ``rid`` receives the
*cached* decision (with the ``id`` echo rewritten to the retry's own
``id``) instead of re-running the operation, so a client that lost a
response to a crash or connection drop can retry without
double-admitting.  A retry that races its original while the original
is still queued in an admission batch gets a ``duplicate-request``
error and must retry again later.

Numbers in requests must be finite: ``Infinity``/``NaN`` literals are
rejected as ``bad-json`` (the write-ahead journal and the canonical
response encoding have no spelling for them).

Operations (see DESIGN.md §9 for the mapping onto the paper's
Section-4 bookkeeping rules):

==============  ========================================================
``health``      Liveness probe; pipeline count and drain state.
``register``    Create a named pipeline from a policy document.
``unregister``  Flush and remove a pipeline.
``admit``       Run the feasible-region admission test for one arrival.
``depart``      Record a subtask departure (stage bookkeeping).
``idle``        Apply the idle-reset rule at one stage.
``expire``      Lapse contributions whose deadlines passed.
``capacity``    Declare degraded stage capacity (prospective only —
                future admissions are charged at the new level).
``set_capacity``  Authoritative capacity change: re-charge the admitted
                set, then sacrifice tasks until the region holds.
``report``      Fault observation (overrun/slowdown/ok); confirmed
                changes trigger the same rescale-and-repair.
``resync``      Rebuild controller state from a ground-truth frontier.
``snapshot``    Serialize full controller state.
``restore``     Instantiate a pipeline from a snapshot, then audit it.
``stats``       Serving counters and region state, per pipeline.
``drain``       Flush every pending admission batch.
==============  ========================================================
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union, cast

from ..core.task import PipelineTask, make_task
from ..locking.model import resources_from_wire, resources_to_wire

try:  # Optional accelerator: decode-only, gated below.
    import orjson
except ImportError:  # pragma: no cover - environment without orjson
    orjson = None  # type: ignore[assignment]

__all__ = [
    "OPS",
    "PIPELINE_OPS",
    "MAX_REQUEST_CHARS",
    "MAX_REQUEST_DEPTH",
    "NdjsonFramer",
    "ProtocolError",
    "parse_request",
    "encode",
    "ok_response",
    "admit_response",
    "admit_response_batch",
    "error_response",
    "task_to_wire",
    "task_from_wire",
    "frontier_from_wire",
    "json_safe",
]

#: Every operation the gateway dispatches, in documentation order.
OPS = (
    "health",
    "register",
    "unregister",
    "admit",
    "depart",
    "idle",
    "expire",
    "capacity",
    "set_capacity",
    "report",
    "resync",
    "snapshot",
    "restore",
    "stats",
    "drain",
)

#: Operations that require a ``pipeline`` operand.
PIPELINE_OPS = frozenset(OPS) - {"health", "stats", "drain"}

#: Largest request line the gateway will parse.  Big enough for a full
#: ``restore`` snapshot, small enough that a hostile client cannot make
#: a single line balloon server memory.
MAX_REQUEST_CHARS = 1 << 20

#: Deepest container nesting a request may carry.  The stdlib JSON
#: *parser* survives well past this, but the canonical *encoder* (and
#: therefore the write-ahead journal) recurses per level — a request
#: that parses but cannot be journaled would escape the "never raises
#: for request content" contract, so depth is bounded at parse time.
MAX_REQUEST_DEPTH = 32


class ProtocolError(ValueError):
    """A malformed or unserviceable request.

    Attributes:
        code: Short machine-readable error code (e.g.
            ``"bad-request"``, ``"unknown-pipeline"``).
    """

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


def _reject_nonfinite(token: str) -> float:
    raise ValueError(f"non-finite number {token} is not allowed in requests")


def _validate_payload(request: Dict[str, Any]) -> None:
    """Reject payloads the canonical encoders cannot round-trip.

    Two hazards survive ``json.loads`` and would otherwise detonate
    later, inside the write-ahead journal's ``allow_nan=False``
    canonical encoder: number *overflow* (``1e999`` parses to ``inf``
    without ever invoking ``parse_constant``) and container nesting
    deep enough to blow the recursive encoder's stack.  Both are caught
    here with one iterative walk so ``handle_line`` keeps its
    never-raises contract.

    Raises:
        ProtocolError: On a non-finite number anywhere in the request,
            or nesting deeper than :data:`MAX_REQUEST_DEPTH`.
    """
    stack: List[Tuple[Any, int]] = [(request, 1)]
    while stack:
        value, depth = stack.pop()
        if depth > MAX_REQUEST_DEPTH:
            raise ProtocolError(
                "too-deep",
                f"request nesting exceeds {MAX_REQUEST_DEPTH} levels",
            )
        if isinstance(value, dict):
            for child in value.values():
                if isinstance(child, (dict, list)):
                    stack.append((child, depth + 1))
                elif isinstance(child, float) and not math.isfinite(child):
                    raise ProtocolError(
                        "bad-json", "non-finite number is not allowed in requests"
                    )
        elif isinstance(value, list):
            for child in value:
                if isinstance(child, (dict, list)):
                    stack.append((child, depth + 1))
                elif isinstance(child, float) and not math.isfinite(child):
                    raise ProtocolError(
                        "bad-json", "non-finite number is not allowed in requests"
                    )


#: Integer tokens beyond the accelerator's exact range would be
#: silently rounded to floats where the stdlib keeps the
#: arbitrary-precision int, so any line that *may* carry one takes the
#: strict stdlib path.  The accelerator decodes unsigned integers
#: exactly through the full 64-bit range (20 digits up to
#: 18446744073709551615) and signed ones through ``-2**63``, so the
#: dangerous shapes are a run of 20+ digits, or ``-`` followed by 19+
#: digits.  The screen folds every digit to one byte and runs two
#: C-speed substring searches — a regex scan here costs microseconds
#: per line, ``memmem`` costs nanoseconds.  Conservative by design: a
#: long digit run inside a string or a float's integer part also
#: routes to the strict path, which is merely slower, never different.
#: One refinement keeps the dominant float traffic on the fast path: a
#: 20+ digit run immediately after ``.`` is a float's *fraction* (or
#: sits inside a string, or the line is malformed JSON that fails the
#: accelerator anyway), never an integer token — and both parsers
#: round arbitrary-length fractions to the identical nearest double
#: (differentially verified), so those runs are skipped.  Without the
#: refinement every float in ``[1e-4, 1e-3)`` carrying 17 significant
#: digits (20 fraction digits after the leading zeros) would fall back.
_DIGIT_FOLD = bytes.maketrans(b"0123456789", b"\x00" * 10)
_HUGE_POSITIVE_RUN = b"\x00" * 20
_HUGE_NEGATIVE_RUN = b"-" + b"\x00" * 19
_DOT = 0x2E

#: The ASCII subset of ``str.strip``'s whitespace (frames carry no
#: ``\n`` — the framer consumed it).  A frame that still begins with
#: ``{`` after stripping these bytes decodes to a line whose
#: ``str.strip`` result is that same stripped text: any *unicode*
#: whitespace would have to sit inside the braces, where ``strip``
#: cannot reach it.  :func:`parse_request` relies on this to skip the
#: ``bytes -> str -> strip`` round trip per frame.
_FRAME_WS = b" \t\r\x0b\x0c"


def _folded_holds_huge_int(folded: bytes) -> bool:
    """Whether digit-folded ``folded`` has a possibly-huge integer run.

    ``find`` returns the *first* window of each digit run, so a window
    whose predecessor is itself a digit is the interior of a run whose
    start was already classified — the scan just hops on.  Hopping by
    one and letting C-level ``find`` re-anchor beats walking the run's
    bytes in Python (17-significant-digit floats make 20-digit
    fraction runs the common case on the admission wire).
    """
    pos = folded.find(_HUGE_POSITIVE_RUN)
    while pos >= 0:
        if pos == 0:
            return True
        prev = folded[pos - 1]
        # Run start (prev is neither digit nor dot): a real integer
        # token of 20+ digits.  Dot-preceded or interior: keep going.
        if prev and prev != _DOT:
            return True
        pos = folded.find(_HUGE_POSITIVE_RUN, pos + 1)
    return folded.find(_HUGE_NEGATIVE_RUN) >= 0


#: Canonical (interned) instance per op name.  parse_request swaps the
#: freshly parsed op string for the canonical one so every downstream
#: dispatch-dict lookup and ``op != "admit"`` comparison hits the
#: CPython identity fast path.
_OP_CANON = {op: op for op in OPS}


def parse_request(line: Union[str, bytes]) -> Optional[Dict[str, Any]]:
    """Decode and validate one request: an in-process line or a frame.

    A frame is the ``bytes`` :class:`NdjsonFramer` delivers.  It decodes
    exactly as the line ``frame.decode("utf-8", errors="replace")
    .strip()`` would, and a frame that is blank after that strip
    carries no request: the result is ``None``, never an error.  A
    frame that begins with ``{`` once ASCII whitespace is stripped
    skips the ``bytes -> str -> strip`` round trip (see
    :data:`_FRAME_WS`; its byte length also bounds its char length).

    Decoding prefers the ``orjson`` accelerator when three screens
    prove it cannot diverge from the strict stdlib path: the line is
    within the size limit, its total ``{``/``[`` count bounds nesting
    at :data:`MAX_REQUEST_DEPTH` (each nesting level spends at least
    one opening bracket), and it carries no integer token the
    accelerator would round (see :data:`_DIGIT_FOLD`).  The accelerator
    rejects ``Infinity``/``NaN`` literals *and* overflowing numbers
    like ``1e999`` outright, so a successful accelerated parse needs no
    payload walk.  Any accelerator failure re-parses on the strict
    path, keeping error bytes identical to the stdlib-only protocol.

    Returns:
        The decoded request object with a validated envelope, or
        ``None`` for a blank frame.

    Raises:
        ProtocolError: On an oversized line, malformed JSON (including
            non-finite number literals and overflowing numbers like
            ``1e999``), nesting deeper than :data:`MAX_REQUEST_DEPTH`,
            a non-object payload, a missing/unknown ``op``, a missing
            ``pipeline`` operand, or an ill-typed ``rid``.
    """
    raw: Optional[bytes] = None
    text: Optional[str] = None
    if isinstance(line, str):
        text = line
    else:
        raw = line.strip(_FRAME_WS)
        if raw[:1] != b"{" or len(raw) > MAX_REQUEST_CHARS:
            raw = None
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                return None
    if text is not None:
        if len(text) > MAX_REQUEST_CHARS:
            raise ProtocolError(
                "too-large",
                f"request line of {len(text)} chars exceeds the "
                f"{MAX_REQUEST_CHARS}-char limit",
            )
        if orjson is not None:
            try:
                raw = text.encode("utf-8")
            except UnicodeEncodeError:
                pass  # lone surrogates: the strict path owns the bytes
    request: Any = None
    if raw is not None and orjson is not None:
        # The digit fold doubles as the depth screen's input: ``{`` and
        # ``[`` are single ASCII bytes no UTF-8 continuation byte can
        # alias, so counting them on the folded bytes equals counting
        # them on the string.  orjson parses the bytes directly.
        folded = raw.translate(_DIGIT_FOLD)
        if (
            folded.count(b"{") + folded.count(b"[") <= MAX_REQUEST_DEPTH
            and not _folded_holds_huge_int(folded)
        ):
            try:
                request = orjson.loads(raw)
            except Exception:
                pass  # re-parsed below: the strict path owns error bytes
    if request is None:
        if text is None:  # a frame that skipped the str round trip
            text = cast(bytes, line).decode("utf-8", errors="replace").strip()
        request = _parse_request_strict(text)
    elif type(request) is not dict:
        raise ProtocolError("bad-request", "request must be a JSON object")
    # The envelope: op / id / rid / pipeline operand.
    try:
        # One hashed lookup replaces isinstance + membership: the keys
        # are exactly the op strings, no non-string can equal one, and
        # an unhashable op (list/dict) raises into the error path.
        canon = _OP_CANON.get(request.get("op"))
    except TypeError:
        canon = None
    if canon is None:
        op = request.get("op")
        raise ProtocolError(
            "unknown-op", f"op must be one of {', '.join(OPS)}; got {op!r}"
        )
    request["op"] = canon
    request_id = request.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError("bad-request", "id must be an integer or string")
    rid = request.get("rid")
    if rid is not None and (
        not isinstance(rid, str) or not rid or len(rid) > 200
    ):
        raise ProtocolError(
            "bad-request", "rid must be a non-empty string of at most 200 chars"
        )
    if canon in PIPELINE_OPS and not isinstance(request.get("pipeline"), str):
        raise ProtocolError(
            "bad-request", f"op {canon!r} requires a string 'pipeline' operand"
        )
    return request


def _parse_request_strict(line: str) -> Dict[str, Any]:
    """Stdlib reference decoder — the source of truth for error bytes.

    Returns the payload-checked object; :func:`parse_request` checks
    its envelope.
    """
    try:
        request = json.loads(line, parse_constant=_reject_nonfinite)
    except RecursionError:
        # Deeply nested input overruns the parser's stack long before
        # _validate_payload could see it.
        raise ProtocolError(
            "too-deep", "request nesting overran the JSON parser"
        ) from None
    except ValueError as exc:
        raise ProtocolError("bad-json", f"request is not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    _validate_payload(request)
    return request


class NdjsonFramer:
    """Incremental newline framer with asyncio-``readline`` limit semantics.

    Replaces the per-line ``StreamReader.readline()`` loop with chunked
    reads split by a single buffer scan — no ``splitlines`` copies, one
    buffer compaction per feed.  The oversized-line conditions mirror
    ``StreamReader.readuntil`` exactly: a completed frame whose content
    exceeds ``limit`` bytes, or an unterminated tail growing past
    ``limit`` bytes, marks the framer overflowed.  Frames completed
    *before* the oversized segment are still delivered — exactly the
    responses a ``readline()`` loop would have produced before raising.

    Once overflowed the framer is dead: the buffer is dropped and
    further feeds return nothing (the server closes the connection,
    matching the previous ``LimitOverrunError`` handling).
    """

    __slots__ = ("_buf", "_limit", "_overflowed")

    def __init__(self, limit: int) -> None:
        self._buf = bytearray()
        self._limit = limit
        self._overflowed = False

    @property
    def overflowed(self) -> bool:
        """Whether a frame exceeded the limit (connection must close)."""
        return self._overflowed

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting a newline."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb a chunk; return the frames it completed (sans ``\\n``)."""
        if self._overflowed:
            return []
        buf = self._buf
        buf += data
        frames: List[bytes] = []
        start = 0
        while True:
            newline = buf.find(b"\n", start)
            if newline < 0:
                break
            if newline - start > self._limit:
                self._overflowed = True
                break
            frames.append(bytes(buf[start:newline]))
            start = newline + 1
        if start:
            del buf[:start]
        if len(buf) > self._limit:
            self._overflowed = True
        if self._overflowed:
            buf.clear()
        return frames

    def finish(self) -> Optional[bytes]:
        """The trailing unterminated frame at EOF, if any.

        ``readline()`` returns a partial final line when the peer
        closes without a trailing newline; this is that frame.
        """
        if self._overflowed or not self._buf:
            return None
        frame = bytes(self._buf)
        self._buf.clear()
        return frame


def json_safe(value: Any) -> Any:
    """Map non-JSON floats (inf/nan) to ``None``, recursively."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def encode(payload: Dict[str, Any]) -> str:
    """Render one response object as a canonical single-line JSON string."""
    return json.dumps(json_safe(payload), sort_keys=True, separators=(",", ":"))


def ok_response(request: Dict[str, Any], **payload: Any) -> str:
    """A success response echoing the request's ``id`` and ``op``."""
    body: Dict[str, Any] = {"id": request.get("id"), "op": request.get("op"), "ok": True}
    body.update(payload)
    return encode(body)


# Precomputed canonical fragments of the admit response.  The envelope
# is immutable — ``{"admitted":..,"id":..,"ok":true,"op":"admit",
# "region_value":..,"shed":[..]}`` with keys already in sorted order —
# so the hot path only has to render the three variable tokens instead
# of building a dict and running the generic sorted-keys encoder.
_ADMIT_TRUE = '{"admitted":true,"id":'
_ADMIT_FALSE = '{"admitted":false,"id":'
_ADMIT_MID = ',"ok":true,"op":"admit","region_value":'
_ADMIT_SHED_EMPTY = ',"shed":[]}'
_ADMIT_SHED = ',"shed":'


def admit_response(
    request: Dict[str, Any],
    admitted: bool,
    region_value: float,
    shed: Any = (),
) -> str:
    """Fast-path encoder for admission decisions.

    Byte-identical to ``ok_response(request, admitted=...,
    region_value=..., shed=list(shed))`` — the differential test pins
    that equivalence — but ~5x cheaper: the immutable envelope is
    served from precomputed canonical fragments and only the ``id``
    echo, the region value, and the shed list are rendered.  Falls back
    to the generic encoder for anything it cannot prove it renders
    canonically.
    """
    request_id = request.get("id")
    if request_id is None:
        id_token = "null"
    elif request_id is True:
        # bool is an int subclass and passes request validation, but
        # encodes as a JSON literal, not via repr().  JSON booleans are
        # always the singletons, so identity is exhaustive.
        id_token = "true"
    elif request_id is False:
        id_token = "false"
    elif type(request_id) is int:
        id_token = repr(request_id)
    elif type(request_id) is str:
        id_token = json.dumps(request_id)
    else:
        # Includes int/str *subclasses*, whose repr the fragment path
        # cannot prove canonical — the generic encoder owns them.
        return ok_response(
            request, admitted=admitted, region_value=region_value, shed=list(shed)
        )
    if request.get("op") != "admit" or type(region_value) is not float:
        return ok_response(
            request, admitted=admitted, region_value=region_value, shed=list(shed)
        )
    # json.dumps renders floats with float.__repr__; non-finite values
    # (f(U) saturates to inf at U == 1) canonically become null.
    region_token = repr(region_value) if math.isfinite(region_value) else "null"
    prefix = _ADMIT_TRUE if admitted else _ADMIT_FALSE
    if not shed:
        return prefix + id_token + _ADMIT_MID + region_token + _ADMIT_SHED_EMPTY
    shed_token = json.dumps(
        json_safe(list(shed)), sort_keys=True, separators=(",", ":")
    )
    return (
        prefix + id_token + _ADMIT_MID + region_token + _ADMIT_SHED + shed_token + "}"
    )


def admit_response_batch(
    items: Sequence[Tuple[Dict[str, Any], bool, float, Any]],
) -> List[str]:
    """Render a flushed batch of admission decisions in one pass.

    Byte-identical to calling :func:`admit_response` per
    ``(request, admitted, region_value, shed)`` item — the golden test
    pins it — with the fragment and builtin lookups hoisted out of the
    loop, so a size-``B`` flush costs one function call instead of
    ``B``.  Consecutive rejections at an unchanged region share the
    *same* float object (``admit_many`` reuses the frozen decision),
    so the rendered ``region_value`` + empty-shed tail is cached by
    object identity and the dominant overload traffic skips the float
    ``repr`` and two concatenations per response.
    """
    out: List[str] = []
    append = out.append
    isfinite = math.isfinite
    dumps = json.dumps
    admit_canon = _OP_CANON["admit"]
    prev_region: Any = None
    prev_tail = ""
    for request, admitted, region_value, shed in items:
        request_id = request.get("id")
        if request_id is None:
            id_token = "null"
        elif request_id is True:
            id_token = "true"
        elif request_id is False:
            id_token = "false"
        else:
            tid = type(request_id)
            if tid is int:
                id_token = repr(request_id)
            elif tid is str:
                id_token = dumps(request_id)
            else:
                append(
                    ok_response(
                        request,
                        admitted=admitted,
                        region_value=region_value,
                        shed=list(shed),
                    )
                )
                continue
        op = request.get("op")
        if (
            op is not admit_canon and op != "admit"
        ) or type(region_value) is not float:
            append(
                ok_response(
                    request,
                    admitted=admitted,
                    region_value=region_value,
                    shed=list(shed),
                )
            )
            continue
        prefix = _ADMIT_TRUE if admitted else _ADMIT_FALSE
        if not shed:
            if region_value is prev_region:
                append(prefix + id_token + prev_tail)
            else:
                region_token = (
                    repr(region_value) if isfinite(region_value) else "null"
                )
                prev_tail = _ADMIT_MID + region_token + _ADMIT_SHED_EMPTY
                prev_region = region_value
                append(prefix + id_token + prev_tail)
        else:
            region_token = (
                repr(region_value) if isfinite(region_value) else "null"
            )
            shed_token = dumps(
                json_safe(list(shed)), sort_keys=True, separators=(",", ":")
            )
            append(
                prefix
                + id_token
                + _ADMIT_MID
                + region_token
                + _ADMIT_SHED
                + shed_token
                + "}"
            )
    return out


def error_response(
    request: Optional[Dict[str, Any]], code: str, detail: str
) -> str:
    """A failure response; ``request`` may be ``None`` for parse errors."""
    request = request or {}
    return encode(
        {
            "id": request.get("id"),
            "op": request.get("op"),
            "ok": False,
            "error": code,
            "detail": detail,
        }
    )


# ----------------------------------------------------------------------
# Task encoding
# ----------------------------------------------------------------------


def task_to_wire(task: PipelineTask) -> Dict[str, Any]:
    """Encode a task as its wire document."""
    wire: Dict[str, Any] = {
        "task_id": task.task_id,
        "arrival": task.arrival_time,
        "deadline": task.deadline,
        "costs": list(task.computation_times),
    }
    if task.importance:
        wire["importance"] = task.importance
    if task.resources:
        wire["resources"] = resources_to_wire(task.resources)
    return wire


#: ``object.__setattr__``, hoisted: the frozen dataclass's own
#: ``__setattr__`` raises, so the fast constructor installs the whole
#: instance dict in one call instead of eight guarded field sets.
_set_dict = object.__setattr__


def _require_number(doc: Dict[str, Any], key: str) -> float:
    value = doc.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError("bad-task", f"task field {key!r} must be a number")
    return float(value)


def task_from_wire(doc: Any) -> PipelineTask:
    """Decode and validate a wire task document.

    The dominant wire shape — int ``task_id``, numeric
    ``arrival``/``deadline``, numeric ``costs``, no ``resources`` — is
    validated inline (the same invariants ``make_task`` +
    ``validate_task`` enforce, fused into one pass) and constructed
    directly.  Anything else, including every invalid document, re-runs
    the strict path so error messages never change.

    Raises:
        ProtocolError: On missing/ill-typed fields or model-invariant
            violations (non-positive deadline, negative costs, ...).
    """
    if type(doc) is dict and "resources" not in doc:
        get = doc.get
        task_id = get("task_id")
        arrival = get("arrival")
        deadline = get("deadline")
        costs = get("costs")
        importance = get("importance", 0)
        # type() is exact on purpose: it excludes bool (an int subclass
        # the strict path rejects) without a second isinstance check.
        if (
            type(task_id) is int
            and type(importance) is int
            and type(costs) is list
            and costs
            and type(arrival) in (int, float)
            and type(deadline) in (int, float)
        ):
            arrival = float(arrival)
            deadline = float(deadline)
            # ``x - x == 0.0`` is isfinite without the call: nan and
            # inf both yield nan, which compares false.
            if deadline > 0.0 and arrival - arrival == 0.0:  # repro: noqa[FLT001,FLT002] — exact complement of validate_task's `deadline <= 0` gate; boundary docs fall to the strict path
                # All-float costs (the wire-dominant shape: JSON reals
                # decode as float) validate without building a second
                # list — the source list becomes the tuple directly.
                valid = True
                for c in costs:
                    if (
                        type(c) is not float
                        or c < 0.0
                        or c - c != 0.0  # nan-only probe: finite non-negative gate
                    ):
                        valid = False
                        break
                if valid:
                    values = costs
                else:
                    values = []
                    append = values.append
                    valid = True
                    for c in costs:
                        tc = type(c)
                        if tc is float:
                            if c >= 0.0 and c - c == 0.0:  # nan-only probe
                                append(c)
                                continue
                        elif tc is int and c >= 0:
                            append(float(c))
                            continue
                        valid = False
                        break
                if valid:
                    # Frozen dataclass: routing around __init__'s
                    # per-field object.__setattr__ halves construction
                    # cost; the instance dict is indistinguishable.
                    task = PipelineTask.__new__(PipelineTask)
                    _set_dict(
                        task,
                        "__dict__",
                        {
                            "task_id": task_id,
                            "arrival_time": arrival,
                            "deadline": deadline,
                            "computation_times": tuple(values),
                            "importance": importance,
                            "blocking_times": None,
                            "resources": (),
                            "stream_id": None,
                        },
                    )
                    return task
    return _task_from_wire_strict(doc)


def _task_from_wire_strict(doc: Any) -> PipelineTask:
    """Reference decoder — the source of truth for ``bad-task`` bytes."""
    if not isinstance(doc, dict):
        raise ProtocolError("bad-task", "task must be a JSON object")
    task_id = doc.get("task_id")
    if not isinstance(task_id, int) or isinstance(task_id, bool):
        raise ProtocolError("bad-task", "task_id must be an integer")
    costs = doc.get("costs")
    if not isinstance(costs, list) or not costs:
        raise ProtocolError("bad-task", "costs must be a non-empty array")
    importance = doc.get("importance", 0)
    if not isinstance(importance, int) or isinstance(importance, bool):
        raise ProtocolError("bad-task", "importance must be an integer")
    try:
        cost_values: Tuple[float, ...] = tuple(float(c) for c in costs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad-task", "costs must be numbers") from exc
    raw_resources = doc.get("resources", [])
    try:
        resources = resources_from_wire(raw_resources)
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad-task", str(exc)) from exc
    try:
        return make_task(
            arrival_time=_require_number(doc, "arrival"),
            deadline=_require_number(doc, "deadline"),
            computation_times=cost_values,
            importance=importance,
            resources=resources,
            task_id=task_id,
        )
    except ValueError as exc:
        raise ProtocolError("bad-task", str(exc)) from exc


def frontier_from_wire(doc: Any) -> Dict[int, int]:
    """Decode a ``resync`` frontier document (task-id keys arrive as strings)."""
    if not isinstance(doc, dict):
        raise ProtocolError("bad-request", "frontier must be a JSON object")
    frontier: Dict[int, int] = {}
    for key, stage in doc.items():
        try:
            task_id = int(key)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                "bad-request", f"frontier key {key!r} is not a task id"
            ) from exc
        if not isinstance(stage, int) or isinstance(stage, bool):
            raise ProtocolError("bad-request", "frontier stages must be integers")
        frontier[task_id] = stage
    return frontier
