"""Deterministic load generator for the admission gateway.

``python -m repro.serve.loadgen --scenario webserver --seed 0`` replays
a seeded aperiodic arrival trace *closed-loop* against a gateway — the
full pipeline simulation executes admitted requests and feeds every
departure/idle notification back through the protocol — and emits a
byte-stable JSON report (throughput, latency, rejects, gateway
counters).  The same seed always produces the same bytes: all time is
virtual, every random draw comes from a seeded generator, and the
report contains nothing environment-dependent.

Scenarios:

``webserver``
    The intro's three-tier request mix at its default rate (inside the
    feasible region) — zero deadline misses expected.
``overload``
    The same mix at four times the rate with Section-5 importance
    shedding — heavy rejects, still zero misses among surviving tasks.
``burst``
    In-region traffic plus :class:`repro.faults.schedule.ArrivalBurst`
    flash crowds — the region test sheds the overflow at the ingress.
``chaos``
    In-region traffic while bookkeeping notifications are dropped
    (:class:`repro.faults.schedule.DropNotification` windows make the
    client swallow depart/idle calls) and periodic ``resync``
    operations repair the gateway from the ground-truth frontier.

Every report also embeds two standing self-checks: a
batching-equivalence replay (the trace re-decided open-loop at batch
sizes 1/4/32 and sequentially must agree decision-for-decision) and a
snapshot round-trip (snapshot → restore → audit → re-snapshot must be
clean and byte-stable).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..apps.webserver import TIERS, WebServerModel
from ..core.admission import PipelineAdmissionController
from ..core.task import PipelineTask, make_task
from ..faults.schedule import ArrivalBurst, DropNotification
from ..locking import ResourceSpec, compute_betas
from ..sim.pipeline import PipelineSimulation
from ..sim.stage import Segment
from .client import GatewayClient, GatewayControllerProxy, InProcessTransport, TcpTransport
from .gateway import AdmissionGateway, GatewayServer
from .protocol import json_safe
from .snapshot import controller_snapshot, restore_controller, verify_restored

__all__ = [
    "SCENARIOS",
    "REPORT_FORMAT",
    "BLOCKING_COMPARE_FORMAT",
    "run_scenario",
    "compare_blocking",
    "render_report",
    "main",
]

#: Version tag of the loadgen report document.
REPORT_FORMAT = "repro.serve.loadgen-report/1"

#: Version tag of the online-vs-static blocking comparison report.
BLOCKING_COMPARE_FORMAT = "repro.serve.blocking-compare-report/1"

#: Batch sizes exercised by the standing batching-equivalence check.
EQUIVALENCE_BATCH_SIZES = (1, 4, 32)

#: The pipeline name every scenario registers.
PIPELINE_NAME = "web"


@dataclass(frozen=True)
class Scenario:
    """One reproducible load shape.

    Attributes:
        name: Scenario name (the CLI ``--scenario`` value).
        summary: One-line description for ``--list``.
        arrival_rate: Request rate of the underlying web-server mix.
        shedding: Register the pipeline with importance shedding.
        bursts: Extra flash-crowd arrivals (fractions of the nominal
            trace span, so they scale with ``--requests``).
        drop_windows: Notification-drop windows (fractions of the
            nominal span) applied at the *client* side.
        resyncs: Number of periodic ground-truth resyncs.
    """

    name: str
    summary: str
    arrival_rate: float = 100.0
    shedding: bool = False
    bursts: Tuple[Tuple[float, int], ...] = ()
    drop_windows: Tuple[Tuple[str, float, float], ...] = ()
    resyncs: int = 0


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="webserver",
        summary="three-tier request mix inside the feasible region",
    ),
    Scenario(
        name="overload",
        summary="4x overload with Section-5 importance shedding",
        arrival_rate=400.0,
        shedding=True,
    ),
    Scenario(
        name="burst",
        summary="in-region traffic plus flash-crowd arrival bursts",
        bursts=((0.3, 40), (0.6, 60)),
    ),
    Scenario(
        name="chaos",
        summary="dropped bookkeeping notifications repaired by resync",
        drop_windows=(("departure", 0.2, 0.4), ("idle", 0.5, 0.6)),
        resyncs=6,
    ),
)


def _scenario(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in SCENARIOS)
    raise ValueError(f"unknown scenario {name!r}; choose one of {known}")


# ----------------------------------------------------------------------
# Trace construction
# ----------------------------------------------------------------------


def build_trace(
    scenario: Scenario, seed: int, requests: int
) -> Tuple[List[PipelineTask], float, float]:
    """The scenario's full arrival trace, its span, and the run horizon.

    Returns:
        ``(tasks, span, horizon)`` — tasks sorted by arrival (stable on
        ties), ``span`` the nominal trace duration used to place
        faults, ``horizon`` late enough for every deadline to settle.
    """
    model = WebServerModel(arrival_rate=scenario.arrival_rate)
    trace = list(model.request_trace(requests, seed))
    span = requests / scenario.arrival_rate
    if scenario.bursts:
        burst_rng = random.Random(seed + 1_000_003)
        next_id = requests
        mean_costs = (0.002, 0.006, 0.012)
        for fraction, count in scenario.bursts:
            burst = ArrivalBurst(
                time=round(fraction * span, 6),
                count=count,
                deadline=1.0,
                mean_costs=mean_costs,
            )
            for _ in range(burst.count):
                costs = [
                    burst_rng.expovariate(1.0 / c) if c > 0 else 0.0
                    for c in burst.mean_costs
                ]
                trace.append(
                    make_task(
                        arrival_time=burst.time,
                        deadline=burst.deadline,
                        computation_times=costs,
                        importance=burst.importance,
                        task_id=next_id,
                    )
                )
                next_id += 1
        trace.sort(key=lambda task: (task.arrival_time, task.task_id))
    last_settled = max(
        (task.arrival_time + task.deadline for task in trace), default=0.0
    )
    horizon = last_settled + 1.0
    return trace, span, horizon


# ----------------------------------------------------------------------
# Closed-loop run
# ----------------------------------------------------------------------


def _policy_doc(scenario: Scenario) -> Dict[str, Any]:
    return {"num_stages": len(TIERS), "shedding": scenario.shedding}


def _install_chaos(
    scenario: Scenario,
    span: float,
    sim: PipelineSimulation,
    proxy: GatewayControllerProxy,
    resync_reports: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Schedule drop windows and resyncs on the simulation clock."""
    windows: List[Dict[str, Any]] = []
    for kind, start_fraction, end_fraction in scenario.drop_windows:
        fault = DropNotification(
            kind=kind,
            start=round(start_fraction * span, 6),
            end=round(end_fraction * span, 6),
        )
        attr = "drop_departures" if kind == "departure" else "drop_idles"

        def _set(flag_value: bool, name: str = attr) -> None:
            setattr(proxy, name, flag_value)

        sim.sim.at(fault.start, _set, True)
        sim.sim.at(fault.end, _set, False)
        windows.append({"kind": kind, "start": fault.start, "end": fault.end})

    def _resync() -> None:
        response = proxy.resync(sim.sim.now, sim.frontier())
        resync_reports.append(
            {"now": round(sim.sim.now, 6), "report": response["report"]}
        )

    for k in range(1, scenario.resyncs + 1):
        sim.sim.at(round(span * k / scenario.resyncs, 6), _resync)
    return windows


class _TcpGatewayThread:
    """A gateway server on a background asyncio thread (TCP transport).

    Args:
        gateway: Gateway instance to serve (fresh
            :class:`AdmissionGateway` when omitted).
        start_timeout: Seconds to wait for the server to come up.
        stop_timeout: Seconds to wait for the thread on shutdown.
    """

    def __init__(
        self,
        gateway: Optional[Any] = None,
        start_timeout: float = 30.0,
        stop_timeout: float = 30.0,
    ) -> None:
        self._gateway = gateway
        self._start_timeout = start_timeout
        self._stop_timeout = stop_timeout
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.address: Tuple[str, int] = ("", 0)

    def __enter__(self) -> "_TcpGatewayThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=self._start_timeout):
            raise RuntimeError(
                f"gateway server failed to start within {self._start_timeout}s"
            )
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        server = GatewayServer(gateway=self._gateway)
        await server.start()
        self.address = server.address
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await server.shutdown()

    def __exit__(self, *exc_info: Any) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=self._stop_timeout)


def run_scenario(
    name: str,
    seed: int,
    requests: int = 1000,
    transport: str = "inproc",
    timeout: float = 30.0,
) -> Dict[str, Any]:
    """Run one scenario closed-loop and build the report payload.

    Args:
        name / seed / requests: Scenario selection and trace shape.
        transport: ``"inproc"`` or ``"tcp"``.
        timeout: Upper bound (seconds) on any single TCP wait — server
            start/stop, connect, and per-read.
    """
    scenario = _scenario(name)
    if transport == "inproc":
        client = GatewayClient(InProcessTransport(AdmissionGateway()))
        payload = _run_with_client(scenario, seed, requests, transport, client)
        client.close()
        return payload
    if transport == "tcp":
        with _TcpGatewayThread(
            start_timeout=timeout, stop_timeout=timeout
        ) as server:
            client = GatewayClient(
                TcpTransport(
                    *server.address,
                    connect_timeout=timeout,
                    read_timeout=timeout,
                )
            )
            try:
                return _run_with_client(scenario, seed, requests, transport, client)
            finally:
                client.close()
    raise ValueError(f"unknown transport {transport!r}; choose inproc or tcp")


def _run_with_client(
    scenario: Scenario,
    seed: int,
    requests: int,
    transport: str,
    client: GatewayClient,
) -> Dict[str, Any]:
    trace, span, horizon = build_trace(scenario, seed, requests)
    client.register(PIPELINE_NAME, _policy_doc(scenario))
    proxy = GatewayControllerProxy(client, PIPELINE_NAME, num_stages=len(TIERS))
    sim = PipelineSimulation(
        num_stages=len(TIERS),
        controller=proxy,
        max_admission_wait=0.0,
        admit_with_shedding=scenario.shedding,
    )
    resync_reports: List[Dict[str, Any]] = []
    windows = _install_chaos(scenario, span, sim, proxy, resync_reports)

    # Snapshot mid-run (half the trace span) so the round-trip check
    # exercises a controller with live admitted records, not the
    # drained end-of-run state.
    mid_run: Dict[str, Any] = {}

    def _take_mid_snapshot() -> None:
        mid_run["snapshot"] = client.call("snapshot", pipeline=PIPELINE_NAME)[
            "snapshot"
        ]

    sim.sim.at(round(span * 0.5, 6), _take_mid_snapshot)

    sim.offer_stream(iter(trace))
    report = sim.run(horizon, warmup=0.0)

    stats_response = client.stats(PIPELINE_NAME)
    snapshot_doc = mid_run["snapshot"]

    missed = sum(
        1
        for record in report.tasks
        if record.admitted and not record.shed and record.missed
    )
    unfinished = sum(
        1
        for record in report.tasks
        if record.admitted and not record.shed and record.completed_at is None
    )
    payload: Dict[str, Any] = {
        "format": REPORT_FORMAT,
        "scenario": scenario.name,
        "seed": seed,
        "requests": requests,
        "transport": transport,
        "trace": {
            "tasks": len(trace),
            "span": round(span, 6),
            "horizon": round(horizon, 6),
        },
        "traffic": {
            "offered": report.generated,
            "admitted": report.admitted,
            "rejected": report.rejected,
            "shed": report.shed_count,
            "completed": report.completed,
            "missed": missed,
            "unfinished": unfinished,
            "accept_ratio": round(report.accept_ratio, 6),
            "miss_ratio": round(report.miss_ratio(), 6),
        },
        "latency": {
            "mean": round(report.mean_response_time(), 6),
            "p50": round(report.response_time_percentile(50.0), 6),
            "p99": round(report.response_time_percentile(99.0), 6),
            "max": round(max(report.response_times(), default=0.0), 6),
        },
        "gateway": {
            "ops": stats_response["ops"],
            "pipeline": stats_response["stats"][PIPELINE_NAME],
        },
        "batching": batching_equivalence(trace),
        "snapshot": snapshot_roundtrip(snapshot_doc),
    }
    if scenario.drop_windows or scenario.resyncs:
        payload["chaos"] = {"drop_windows": windows, "resyncs": resync_reports}
    return payload


# ----------------------------------------------------------------------
# Standing self-checks
# ----------------------------------------------------------------------


def batching_equivalence(
    trace: Sequence[PipelineTask],
    batch_sizes: Sequence[int] = EQUIVALENCE_BATCH_SIZES,
) -> Dict[str, Any]:
    """Replay the trace open-loop at several batch sizes and compare.

    Each replay registers a fresh in-process pipeline, submits every
    arrival, drains, and collects the decision sequence.  Sequential
    (unbatched) processing is the reference; every batch size must
    match it decision-for-decision, including the reported region
    value byte-for-byte.
    """
    outcomes: Dict[Optional[int], List[Tuple[bool, float]]] = {}
    for max_batch in (None, *batch_sizes):
        client = GatewayClient(InProcessTransport(AdmissionGateway()))
        policy: Dict[str, Any] = {"num_stages": len(TIERS), "max_batch": max_batch}
        client.register("replay", policy)
        request_ids = [client.submit_admit("replay", task) for task in trace]
        client.drain()
        decisions: List[Tuple[bool, float]] = []
        for request_id in request_ids:
            response = client.collect(request_id, wait=False)
            assert response is not None, "drain must answer every admit"
            decisions.append((response["admitted"], response["region_value"]))
        outcomes[max_batch] = decisions
        client.close()
    reference = outcomes[None]
    equivalent = all(outcomes[size] == reference for size in batch_sizes)
    return {
        "batch_sizes": list(batch_sizes),
        "checked": len(trace),
        "admitted_sequential": sum(1 for admitted, _ in reference if admitted),
        "equivalent": equivalent,
    }


def snapshot_roundtrip(pipeline_snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Restore a pipeline snapshot locally, audit it, re-snapshot it.

    The round trip must produce zero auditor violations and a
    byte-identical controller document (snapshot → restore →
    snapshot is a fixed point).
    """
    controller_doc = pipeline_snapshot["controller"]
    restored = restore_controller(controller_doc)
    check_at = pipeline_snapshot.get("clock")
    violations = verify_restored(restored, 0.0 if check_at is None else check_at)
    first = json.dumps(json_safe(controller_doc), sort_keys=True)
    second = json.dumps(json_safe(controller_snapshot(restored)), sort_keys=True)
    return {
        "admitted_records": len(controller_doc["admitted"]),
        "violations": len(violations),
        "stable": first == second,
    }


# ----------------------------------------------------------------------
# Online vs. static blocking bounds (--compare-blocking)
# ----------------------------------------------------------------------

#: Contention scenario shape: a short pipeline with a tiny lock pool so
#: critical sections actually collide, tight/loose deadline classes so
#: the worst-case pairing (long section of a loose task blocking a
#: tight-deadline victim) dominates the static bound.
CONTENTION_STAGES = 2
CONTENTION_RESOURCES = ("mutex-a", "mutex-b")
CONTENTION_ALPHA = 0.9
CONTENTION_RATE = 40.0


def build_contention_trace(
    seed: int, requests: int
) -> Tuple[List[PipelineTask], float, float]:
    """A seeded arrival trace where tasks contend on shared resources.

    Returns ``(tasks, span, horizon)`` like :func:`build_trace`.  About
    60% of tasks declare one critical section on a two-lock pool; the
    section runs inside the task's own stage cost, so the simulated
    execution (PCP segments) matches the declared worst case exactly.
    """
    rng = random.Random(seed)
    tasks: List[PipelineTask] = []
    now = 0.0
    for task_id in range(requests):
        now += rng.expovariate(CONTENTION_RATE)
        costs = tuple(
            rng.uniform(0.01, 0.06) for _ in range(CONTENTION_STAGES)
        )
        if rng.random() < 0.5:
            deadline = rng.uniform(0.25, 0.5)  # tight class
        else:
            deadline = rng.uniform(1.5, 3.0)  # loose class
        resources: Tuple[ResourceSpec, ...] = ()
        if rng.random() < 0.6:
            stage = rng.randrange(CONTENTION_STAGES)
            resources = (
                ResourceSpec(
                    stage=stage,
                    resource=CONTENTION_RESOURCES[
                        rng.randrange(len(CONTENTION_RESOURCES))
                    ],
                    # The section fits inside the stage's own cost, so
                    # the declared bound is exactly what executes.
                    max_length=costs[stage] * rng.uniform(0.3, 0.8),
                ),
            )
        tasks.append(
            make_task(
                arrival_time=round(now, 6),
                deadline=round(deadline, 6),
                computation_times=tuple(round(c, 6) for c in costs),
                resources=tuple(
                    ResourceSpec(r.stage, r.resource, round(r.max_length, 6))
                    for r in resources
                ),
                task_id=task_id,
            )
        )
    span = tasks[-1].arrival_time if tasks else 0.0
    last_settled = max(
        (task.arrival_time + task.deadline for task in tasks), default=0.0
    )
    return tasks, span, last_settled + 1.0


def _contention_segments(
    task: PipelineTask, stage_index: int
) -> Optional[List[Segment]]:
    """Turn a task's declared critical sections into execution segments."""
    sections = [
        spec
        for spec in task.resources
        if spec.stage == stage_index and spec.max_length > 0
    ]
    if not sections:
        return None
    cost = task.computation_times[stage_index]
    open_time = cost - sum(spec.max_length for spec in sections)
    segments: List[Segment] = []
    if open_time > 0:
        segments.append(Segment(open_time))
    for spec in sections:
        segments.append(Segment(spec.max_length, lock=spec.resource))
    return segments


def _run_contention(
    trace: Sequence[PipelineTask],
    horizon: float,
    controller: PipelineAdmissionController,
) -> Dict[str, Any]:
    """Simulate the contention trace closed-loop under one controller."""
    sim = PipelineSimulation(
        num_stages=CONTENTION_STAGES,
        controller=controller,
        max_admission_wait=0.0,
        segment_builder=_contention_segments,
    )
    # Observe real PCP blocking as jobs finish: evidence the simulated
    # contention actually exercised the critical sections the admission
    # bound accounts for.
    blocked_jobs = 0
    max_blocking = 0.0
    forward = sim._job_complete

    def observe(job: Any) -> None:
        nonlocal blocked_jobs, max_blocking
        if job.blocking_time > 0:
            blocked_jobs += 1
            if job.blocking_time > max_blocking:
                max_blocking = job.blocking_time
        forward(job)

    for stage in sim.stages:
        stage.on_job_complete = observe
    sim.offer_stream(iter(trace))
    report = sim.run(horizon, warmup=0.0)
    survivors = [r for r in report.tasks if r.admitted and not r.shed]
    return {
        "offered": report.generated,
        "admitted": report.admitted,
        "rejected": report.rejected,
        "accept_ratio": round(report.accept_ratio, 6),
        "completed": report.completed,
        "missed": sum(1 for r in survivors if r.missed),
        "unfinished": sum(1 for r in survivors if r.completed_at is None),
        "blocked_jobs": blocked_jobs,
        "max_blocking_observed": round(max_blocking, 6),
    }


def compare_blocking(seed: int, requests: int = 400) -> Dict[str, Any]:
    """Admit the same contention trace under online vs. static bounds.

    The *static* controller uses the classical worst-case blocking
    vector: ``compute_betas`` over the **whole anticipated population**
    (every task that will ever arrive), fixed for the run.  The
    *online* controller derives ``beta_j`` from the currently admitted
    set, so the budget only shrinks while worst-case pairings actually
    coexist.  Both execute the admitted tasks through the PCP pipeline
    simulation; the report compares admit rates and deadline misses.
    """
    trace, span, horizon = build_contention_trace(seed, requests)
    static_betas = compute_betas(
        ((task.task_id, task.deadline, task.resources) for task in trace),
        CONTENTION_STAGES,
    )
    static = _run_contention(
        trace,
        horizon,
        PipelineAdmissionController(
            CONTENTION_STAGES, alpha=CONTENTION_ALPHA, betas=static_betas
        ),
    )
    online_controller = PipelineAdmissionController(
        CONTENTION_STAGES, alpha=CONTENTION_ALPHA, locking=True
    )
    online = _run_contention(trace, horizon, online_controller)
    return {
        "format": BLOCKING_COMPARE_FORMAT,
        "seed": seed,
        "requests": requests,
        "num_stages": CONTENTION_STAGES,
        "alpha": CONTENTION_ALPHA,
        "trace": {
            "tasks": len(trace),
            "with_resources": sum(1 for task in trace if task.resources),
            "span": round(span, 6),
            "horizon": round(horizon, 6),
        },
        "static_betas": list(static_betas),
        "static": static,
        "online": {
            **online,
            "final_betas": list(online_controller.betas),
            "final_budget": online_controller.budget,
        },
        "advantage": {
            "extra_admitted": online["admitted"] - static["admitted"],
            "online_not_worse": online["admitted"] >= static["admitted"],
        },
    }


def _compare_gate_failures(payload: Dict[str, Any]) -> List[str]:
    """Acceptance gates of the blocking comparison report."""
    failures: List[str] = []
    if not payload["advantage"]["online_not_worse"]:
        failures.append(
            f"online bounds admitted {payload['online']['admitted']} < "
            f"static {payload['static']['admitted']}"
        )
    for side in ("static", "online"):
        if payload[side]["missed"]:
            failures.append(f"{payload[side]['missed']} deadline misses ({side})")
        if payload[side]["unfinished"]:
            failures.append(f"{payload[side]['unfinished']} unfinished tasks ({side})")
    if payload["trace"]["with_resources"] == 0:
        failures.append("trace carried no resource-bearing tasks")
    return failures


def _compare_blocking_main(args: argparse.Namespace) -> int:
    """``--compare-blocking``: online vs. static blocking-bound gate."""
    payload = compare_blocking(seed=args.seed, requests=args.requests)
    rendered = render_report(payload)
    failures = _compare_gate_failures(payload)
    if args.selftest:
        replay = render_report(
            compare_blocking(seed=args.seed, requests=args.requests)
        )
        if replay != rendered:
            print("selftest FAILED: replay produced different bytes", file=sys.stderr)
            return 1
        if failures:
            print(f"selftest FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
        print(
            f"selftest ok: compare-blocking seed={args.seed} "
            f"static={payload['static']['admitted']} "
            f"online={payload['online']['admitted']} "
            f"extra={payload['advantage']['extra_admitted']} "
            f"missed=0 bytes={len(rendered)}"
        )
    else:
        sys.stdout.write(rendered)
        if failures:
            print(f"gate FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    return 0


# ----------------------------------------------------------------------
# Rendering and CLI
# ----------------------------------------------------------------------


def render_report(payload: Dict[str, Any]) -> str:
    """Canonical byte-stable JSON rendering of a report payload."""
    return json.dumps(json_safe(payload), indent=2, sort_keys=True) + "\n"


def _gate_failures(payload: Dict[str, Any]) -> List[str]:
    """The selftest acceptance gates a report must clear."""
    failures = []
    if payload["traffic"]["missed"] != 0:
        failures.append(f"{payload['traffic']['missed']} deadline misses")
    if payload["traffic"]["unfinished"] != 0:
        failures.append(f"{payload['traffic']['unfinished']} unfinished tasks")
    if not payload["batching"]["equivalent"]:
        failures.append("batched decisions diverged from sequential")
    if payload["snapshot"]["violations"] != 0:
        failures.append("snapshot restore failed the audit")
    if not payload["snapshot"]["stable"]:
        failures.append("snapshot round trip was not byte-stable")
    return failures


def _chaos_crash_main(args: argparse.Namespace) -> int:
    """``--chaos-crash``: crash/recovery durability gate (see recovery.py)."""
    from .recovery import crash_chaos_gate_failures, run_crash_chaos

    payload = run_crash_chaos(seed=args.seed, cycles=args.cycles)
    rendered = render_report(payload)
    if args.selftest:
        replay = render_report(run_crash_chaos(seed=args.seed, cycles=args.cycles))
        if replay != rendered:
            print("selftest FAILED: replay produced different bytes", file=sys.stderr)
            return 1
        failures = crash_chaos_gate_failures(
            payload, min_recoveries=min(20, args.cycles)
        )
        if failures:
            print(f"selftest FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
        admissions = payload["admissions"]
        print(
            f"selftest ok: chaos-crash seed={args.seed} "
            f"recoveries={payload['recoveries']['count']} "
            f"acked={admissions['acked_admitted']} "
            f"lost={admissions['lost']} duplicated={admissions['duplicated']} "
            f"bytes={len(rendered)}"
        )
    else:
        failures = crash_chaos_gate_failures(
            payload, min_recoveries=min(20, args.cycles)
        )
        sys.stdout.write(rendered)
        if failures:
            print(f"gate FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    return 0


def _chaos_fleet_main(args: argparse.Namespace) -> int:
    """``--chaos-fleet``: shard-fleet failover gate (see fleetchaos.py)."""
    from .fleetchaos import fleet_chaos_gate_failures, run_fleet_chaos

    payload = run_fleet_chaos(
        seed=args.seed, cycles=args.cycles, workers=args.workers
    )
    rendered = render_report(payload)
    min_recoveries = min(10, args.cycles)
    if args.selftest:
        replay = render_report(
            run_fleet_chaos(seed=args.seed, cycles=args.cycles, workers=args.workers)
        )
        if replay != rendered:
            print("selftest FAILED: replay produced different bytes", file=sys.stderr)
            return 1
        failures = fleet_chaos_gate_failures(payload, min_recoveries=min_recoveries)
        if failures:
            print(f"selftest FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
        admissions = payload["admissions"]
        equivalence = payload["equivalence"]
        print(
            f"selftest ok: chaos-fleet seed={args.seed} workers={args.workers} "
            f"recoveries={payload['recoveries']['count']} "
            f"acked={admissions['acked_admitted']} "
            f"lost={admissions['lost']} duplicated={admissions['duplicated']} "
            f"fingerprint_matches={equivalence['fingerprint_matches']} "
            f"bytes={len(rendered)}"
        )
    else:
        failures = fleet_chaos_gate_failures(payload, min_recoveries=min_recoveries)
        sys.stdout.write(rendered)
        if failures:
            print(f"gate FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    return 0


def _chaos_degradation_main(args: argparse.Namespace) -> int:
    """``--chaos-degradation``: capacity-rescale + sacrifice gate (degchaos.py)."""
    from .degchaos import degradation_chaos_gate_failures, run_degradation_chaos

    payload = run_degradation_chaos(seed=args.seed, cycles=args.cycles)
    rendered = render_report(payload)
    min_recoveries = min(12, args.cycles)
    if args.selftest:
        replay = render_report(
            run_degradation_chaos(seed=args.seed, cycles=args.cycles)
        )
        if replay != rendered:
            print("selftest FAILED: replay produced different bytes", file=sys.stderr)
            return 1
        failures = degradation_chaos_gate_failures(
            payload, min_recoveries=min_recoveries
        )
        if failures:
            print(f"selftest FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
        admissions = payload["admissions"]
        degradation = payload["degradation"]
        print(
            f"selftest ok: chaos-degradation seed={args.seed} "
            f"recoveries={payload['recoveries']['count']} "
            f"rescales={degradation['rescales']} "
            f"sacrificed={degradation['sacrificed']} "
            f"region_violations={degradation['region_violations']} "
            f"lost={admissions['lost']} duplicated={admissions['duplicated']} "
            f"bytes={len(rendered)}"
        )
    else:
        failures = degradation_chaos_gate_failures(
            payload, min_recoveries=min_recoveries
        )
        sys.stdout.write(rendered)
        if failures:
            print(f"gate FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Replay a seeded trace against the admission gateway.",
    )
    parser.add_argument(
        "--scenario", choices=[s.name for s in SCENARIOS], help="load shape to replay"
    )
    parser.add_argument("--seed", type=int, default=0, help="trace seed")
    parser.add_argument(
        "--requests", type=int, default=1000, help="base trace length"
    )
    parser.add_argument(
        "--transport",
        choices=["inproc", "tcp"],
        default="inproc",
        help="drive the gateway in-process or over a TCP socket",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="upper bound (seconds) on any single TCP wait",
    )
    parser.add_argument("--out", help="also write the report to this path")
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run twice, assert byte-identical reports and zero misses",
    )
    parser.add_argument(
        "--chaos-crash",
        action="store_true",
        help="run the crash/recovery chaos harness instead of a scenario",
    )
    parser.add_argument(
        "--chaos-fleet",
        action="store_true",
        help="run the shard-fleet failover chaos harness instead of a scenario",
    )
    parser.add_argument(
        "--chaos-degradation",
        action="store_true",
        help="run the capacity-degradation chaos harness instead of a scenario",
    )
    parser.add_argument(
        "--compare-blocking",
        action="store_true",
        help="compare online PCP blocking bounds against the static "
        "worst-case vector on a seeded contention trace",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=24,
        help="crash/recover cycles for --chaos-crash / --chaos-fleet / "
        "--chaos-degradation",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=3,
        help="fleet size for --chaos-fleet",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for scenario in SCENARIOS:
            print(f"{scenario.name:12s} {scenario.summary}")
        return 0
    if args.chaos_crash:
        return _chaos_crash_main(args)
    if args.chaos_fleet:
        return _chaos_fleet_main(args)
    if args.chaos_degradation:
        return _chaos_degradation_main(args)
    if args.compare_blocking:
        return _compare_blocking_main(args)
    if args.scenario is None:
        parser.error("--scenario is required (or use --list)")

    payload = run_scenario(
        args.scenario, args.seed, args.requests, args.transport, args.timeout
    )
    rendered = render_report(payload)

    if args.selftest:
        replay = render_report(
            run_scenario(
                args.scenario, args.seed, args.requests, args.transport, args.timeout
            )
        )
        if replay != rendered:
            print("selftest FAILED: replay produced different bytes", file=sys.stderr)
            return 1
        failures = _gate_failures(payload)
        if failures:
            print(f"selftest FAILED: {'; '.join(failures)}", file=sys.stderr)
            return 1
        traffic = payload["traffic"]
        print(
            f"selftest ok: scenario={args.scenario} seed={args.seed} "
            f"offered={traffic['offered']} admitted={traffic['admitted']} "
            f"missed={traffic['missed']} bytes={len(rendered)}"
        )
    else:
        sys.stdout.write(rendered)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
