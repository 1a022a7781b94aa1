"""Named chaos scenarios: miss ratio among admitted vs. fault intensity.

Each scenario replays the *same* seeded workload under a sweep of fault
intensities (and, where relevant, with a mitigation toggled on and
off), so the emitted points isolate the effect of the fault and of the
degradation mechanism.  Every number in a scenario result is a pure
function of the seed — the chaos CLI relies on this to produce
byte-identical reports across runs.

Scenario catalog (``python -m repro.faults --list``):

==================  ===================================================
``baseline``        No faults; the auditor must stay silent.
``slowdown``        Stage capacity loss, with/without region rescaling.
``outage``          Full stage outages, with/without region rescaling.
``overrun``         Optimistic WCET declarations (execution overruns).
``lost_departures`` Dropped departure notifications; detection/healing.
``lost_idle``       Dropped idle notifications; detection/healing.
``burst``           Arrival bursts the admission test must absorb.
``backoff``         Overload, plain admission vs. bounded backoff retry.
``brownout``        Web-server overload, brownout shedding on/off.
``serve_crash``     Gateway kill/recover cycles; exactly-once admission.
``serve_locking``   Contention bursts against online PCP blocking bounds.
==================  ===================================================
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from ..apps.webserver import WebServerModel
from ..sim.metrics import SimulationReport
from ..sim.pipeline import PipelineSimulation
from ..sim.workload import balanced_workload
from .degradation import BackoffAdmission, BackoffPolicy, BrownoutConfig
from .injector import FaultInjector
from .schedule import (
    ArrivalBurst,
    DropNotification,
    ExecutionOverrun,
    FaultSchedule,
    StageOutage,
    StageSlowdown,
)

__all__ = ["SCENARIOS", "run_scenario", "run_scenarios", "scenario_names"]

#: Default chaos-run geometry: a 3-stage pipeline at moderate task
#: resolution, long enough for faults to bite but fast enough that the
#: whole suite runs in seconds (the ``make chaos`` budget).
NUM_STAGES = 3
HORIZON = 240.0
RESOLUTION = 20.0

_Result = Dict[str, object]
_ScenarioFn = Callable[[int], _Result]

SCENARIOS: Dict[str, _ScenarioFn] = {}


def _scenario(name: str) -> Callable[[_ScenarioFn], _ScenarioFn]:
    def register(fn: _ScenarioFn) -> _ScenarioFn:
        SCENARIOS[name] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


def _pipeline(seed: int, load: float = 0.9) -> PipelineSimulation:
    """A fresh pipeline with the scenario's seeded arrival stream."""
    workload = balanced_workload(NUM_STAGES, load, resolution=RESOLUTION)
    pipeline = PipelineSimulation(num_stages=NUM_STAGES)
    pipeline.offer_stream(workload.tasks(HORIZON, random.Random(seed)))
    return pipeline


def _chaos_run(
    pipeline: PipelineSimulation,
    schedule: FaultSchedule,
    seed: int,
    rescale: bool = False,
    heal: bool = False,
    audit_period: Optional[float] = None,
):
    injector = FaultInjector(
        pipeline,
        schedule,
        seed=seed + 1,  # decouple fault randomness from the workload
        rescale_admission=rescale,
        audit_period=audit_period,
        heal=heal,
    ).install()
    report = pipeline.run(HORIZON)
    injector.final_audit()
    return report, injector


def _point(report: SimulationReport, injector: FaultInjector, **extra) -> _Result:
    point: _Result = {
        "offered": report.generated,
        "admitted": report.admitted,
        "accept_ratio": round(report.accept_ratio, 6),
        "miss_ratio_admitted": round(report.miss_ratio(), 6),
    }
    point.update(injector.summary())
    point.update(extra)
    return point


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


@_scenario("baseline")
def baseline(seed: int) -> _Result:
    """Fault-free control run: periodic audits must find nothing."""
    report, injector = _chaos_run(
        _pipeline(seed), FaultSchedule(), seed, audit_period=20.0
    )
    return {
        "description": "fault-free control run with periodic audits",
        "points": [_point(report, injector, intensity=0.0)],
    }


@_scenario("slowdown")
def slowdown(seed: int) -> _Result:
    """One stage loses capacity mid-run; rescaling shifts misses to rejects."""
    points: List[_Result] = []
    for factor in (0.75, 0.5, 0.25):
        for rescale in (False, True):
            schedule = FaultSchedule(
                slowdowns=(
                    StageSlowdown(
                        stage=1, start=HORIZON / 4, end=3 * HORIZON / 4, factor=factor
                    ),
                )
            )
            report, injector = _chaos_run(
                _pipeline(seed), schedule, seed, rescale=rescale, audit_period=20.0
            )
            points.append(
                _point(
                    report,
                    injector,
                    intensity=round(1.0 - factor, 6),
                    factor=factor,
                    rescale_admission=rescale,
                )
            )
    return {
        "description": "stage-1 capacity loss for the middle half of the run",
        "points": points,
    }


@_scenario("outage")
def outage(seed: int) -> _Result:
    """A stage goes fully down; rescaling closes admission during the hole."""
    points: List[_Result] = []
    for duration in (10.0, 25.0, 50.0):
        for rescale in (False, True):
            start = HORIZON / 3
            schedule = FaultSchedule(
                outages=(StageOutage(stage=1, start=start, end=start + duration),)
            )
            report, injector = _chaos_run(
                _pipeline(seed), schedule, seed, rescale=rescale, audit_period=20.0
            )
            points.append(
                _point(
                    report,
                    injector,
                    intensity=round(duration / HORIZON, 6),
                    outage_duration=duration,
                    rescale_admission=rescale,
                )
            )
    return {
        "description": "full stage-1 outage of growing duration",
        "points": points,
    }


@_scenario("overrun")
def overrun(seed: int) -> _Result:
    """Tasks exceed declared demand; the region was computed from a lie."""
    points: List[_Result] = []
    for factor in (1.5, 2.0, 3.0):
        schedule = FaultSchedule(
            overruns=(ExecutionOverrun(factor=factor, probability=0.5),)
        )
        report, injector = _chaos_run(
            _pipeline(seed), schedule, seed, audit_period=20.0
        )
        points.append(
            _point(
                report,
                injector,
                intensity=round((factor - 1.0) * 0.5, 6),
                overrun_factor=factor,
                overrun_probability=0.5,
            )
        )
    return {
        "description": "half of all tasks execute factor x their declared demand",
        "points": points,
    }


@_scenario("lost_departures")
def lost_departures(seed: int) -> _Result:
    """Departure notifications vanish; the auditor must catch every one."""
    points: List[_Result] = []
    for probability in (0.25, 1.0):
        for heal in (False, True):
            schedule = FaultSchedule(
                drops=(
                    DropNotification(
                        kind="departure",
                        probability=probability,
                        start=HORIZON / 4,
                        end=3 * HORIZON / 4,
                    ),
                )
            )
            report, injector = _chaos_run(
                _pipeline(seed), schedule, seed, heal=heal
            )
            points.append(
                _point(
                    report,
                    injector,
                    intensity=probability,
                    drop_probability=probability,
                    heal=heal,
                )
            )
    return {
        "description": "lost notify_subtask_departure in the middle half of the run",
        "points": points,
    }


@_scenario("lost_idle")
def lost_idle(seed: int) -> _Result:
    """Idle notifications vanish; departed utilization is never released."""
    points: List[_Result] = []
    for probability in (0.5, 1.0):
        for heal in (False, True):
            schedule = FaultSchedule(
                drops=(
                    DropNotification(
                        kind="idle",
                        probability=probability,
                        start=HORIZON / 4,
                        end=3 * HORIZON / 4,
                    ),
                )
            )
            report, injector = _chaos_run(
                _pipeline(seed), schedule, seed, heal=heal
            )
            points.append(
                _point(
                    report,
                    injector,
                    intensity=probability,
                    drop_probability=probability,
                    heal=heal,
                )
            )
    return {
        "description": "lost notify_stage_idle in the middle half of the run",
        "points": points,
    }


@_scenario("burst")
def burst(seed: int) -> _Result:
    """A tight-deadline arrival burst slams into the admission test."""
    points: List[_Result] = []
    for count in (25, 50, 100):
        schedule = FaultSchedule(
            bursts=(
                ArrivalBurst(
                    time=HORIZON / 3,
                    count=count,
                    deadline=30.0,
                    mean_costs=(1.0,) * NUM_STAGES,
                ),
            )
        )
        report, injector = _chaos_run(
            _pipeline(seed), schedule, seed, audit_period=20.0
        )
        points.append(
            _point(report, injector, intensity=count, burst_count=count)
        )
    return {
        "description": "simultaneous tight-deadline arrivals at one instant",
        "points": points,
    }


@_scenario("backoff")
def backoff(seed: int) -> _Result:
    """Overload: first-contact rejection vs. deadline-aware backoff retry."""
    points: List[_Result] = []
    for load in (1.2, 1.6):
        plain = _pipeline(seed, load=load)
        plain_report, plain_injector = _chaos_run(plain, FaultSchedule(), seed)
        points.append(
            _point(
                plain_report,
                plain_injector,
                intensity=load,
                load=load,
                policy="reject-on-first-contact",
            )
        )

        workload = balanced_workload(NUM_STAGES, load, resolution=RESOLUTION)
        pipeline = PipelineSimulation(num_stages=NUM_STAGES)
        retry = BackoffAdmission(
            pipeline, BackoffPolicy(base_delay=2.0, multiplier=2.0, max_attempts=5)
        )
        retry.offer_stream(workload.tasks(HORIZON, random.Random(seed)))
        injector = FaultInjector(pipeline, FaultSchedule(), seed=seed + 1).install()
        report = pipeline.run(HORIZON)
        injector.final_audit()
        points.append(
            _point(
                report,
                injector,
                intensity=load,
                load=load,
                policy="bounded-backoff",
                admitted_first_try=retry.admitted_first_try,
                admitted_after_retry=retry.admitted_after_retry,
                abandoned=retry.abandoned,
            )
        )
    return {
        "description": "sustained overload, with and without admission retry",
        "points": points,
    }


@_scenario("brownout")
def brownout(seed: int) -> _Result:
    """Web-server overload: FCFS rejection vs. importance-ordered shedding."""
    points: List[_Result] = []
    horizon = 20.0
    # The idle-reset rule keeps synthetic utilization near the in-flight
    # backlog, so admission only pushes back near *real* saturation —
    # 4x the mean-feasible rate puts the bottleneck tier at ~1.3 load.
    overload = 4.0
    base = WebServerModel()
    rate = base.max_arrival_rate_within_region() * overload
    model = WebServerModel(arrival_rate=rate)
    config = BrownoutConfig(
        max_level=2,
        window=2.0,
        evaluation_period=0.25,
        enter_reject_ratio=0.1,
        exit_reject_ratio=0.02,
        min_samples=30,
    )

    plain_report = model.simulate(horizon=horizon, seed=seed)
    points.append(
        {
            "mode": "plain",
            "intensity": overload,
            "offered": plain_report.generated,
            "admitted": plain_report.admitted,
            "accept_ratio": round(plain_report.accept_ratio, 6),
            "miss_ratio_admitted": round(plain_report.miss_ratio(), 6),
            "per_class_accept": {
                name: round(ratio, 6)
                for name, ratio in model.per_class_accept_ratios(plain_report).items()
            },
        }
    )

    shed_report, controller = model.simulate_brownout(
        horizon=horizon, seed=seed, config=config
    )
    points.append(
        {
            "mode": "brownout",
            "intensity": overload,
            "offered": shed_report.generated,
            "admitted": shed_report.admitted,
            "accept_ratio": round(shed_report.accept_ratio, 6),
            "miss_ratio_admitted": round(shed_report.miss_ratio(), 6),
            "per_class_accept": {
                name: round(ratio, 6)
                for name, ratio in model.per_class_accept_ratios(shed_report).items()
            },
            "browned_out": controller.browned_out,
            "browned_out_by_importance": {
                str(k): v
                for k, v in sorted(controller.browned_out_by_importance.items())
            },
            "final_level": controller.level,
            "level_changes": len(controller.level_history),
        }
    )
    return {
        "description": "three-tier web server at 4x the feasible mean rate",
        "points": points,
    }


@_scenario("serve_crash")
def serve_crash(seed: int) -> _Result:
    """Gateway crash/recovery chaos: kill the serving process mid-batch.

    Sweeps the number of crash/recover cycles of the serve layer's
    chaos harness (``repro.serve.chaos``, crash topology): every cycle
    journals live traffic, crashes the gateway at a random operation
    (including between the write-ahead record and the state mutation,
    and mid-record with a torn tail), recovers from snapshot + journal,
    and replays client retries through the idempotency window.  The
    gate: zero admissions lost, zero duplicated, and every recovered
    gateway bitwise identical to the pre-crash shadow.
    """
    # Imported lazily: repro.serve imports from repro.faults, so a
    # module-level import here would be a cycle.
    from ..serve.chaos import run_chaos

    points: List[_Result] = []
    for cycles in (6, 12, 24):
        report = run_chaos("crash", seed=seed, cycles=cycles)
        admissions = report["admissions"]
        equivalence = report["equivalence"]
        points.append(
            {
                "intensity": cycles,
                "crashes": report["crashes"],
                "crashes_with_pending_batch": report["crashes_with_pending_batch"],
                "recoveries": report["recoveries"]["count"],
                "snapshot_loads": report["recoveries"]["snapshot_loads"],
                "replayed": report["recoveries"]["replayed"],
                "torn_bytes": report["recoveries"]["truncated_bytes"],
                "acked_admitted": admissions["acked_admitted"],
                "lost": admissions["lost"],
                "duplicated": admissions["duplicated"],
                "decision_mismatches": admissions["decision_mismatches"],
                "bitwise_identical": (
                    equivalence["fingerprint_mismatches"] == 0
                    and equivalence["final_identical"]
                ),
            }
        )
    return {
        "description": "gateway kill/recover cycles; journal + dedup must "
        "preserve every admission exactly once",
        "points": points,
    }


@_scenario("serve_locking")
def serve_locking(seed: int) -> _Result:
    """Deterministic contention bursts against a locking gateway pipeline.

    Sweeps the burst size: each wave offers ``burst`` tasks that all
    declare a critical section on one shared resource, mixing one
    tight-deadline victim with longer-deadline holders, so the online
    ``beta_j`` derivation (PCP bounds over the admitted set) visibly
    shrinks the region budget while the contention is live.  Between
    waves every deadline lapses; the budget must return *bitwise* to
    its idle value — departures restore the exact prior blocking state.
    """
    # Imported lazily: repro.serve imports from repro.faults, so a
    # module-level import here would be a cycle.
    from ..core.task import make_task
    from ..locking import ResourceSpec
    from ..serve.client import GatewayClient, InProcessTransport
    from ..serve.gateway import AdmissionGateway

    del seed  # the burst schedule is fully deterministic
    waves = 6
    points: List[_Result] = []
    for burst in (4, 8, 16):
        client = GatewayClient(InProcessTransport(AdmissionGateway()))
        client.register(
            "locked", {"num_stages": 2, "alpha": 0.9, "locking": True}
        )

        def budget() -> float:
            return client.stats("locked")["stats"]["locked"]["region_budget"]

        idle_budget = budget()
        admitted = rejected = 0
        min_budget = idle_budget
        task_id = 0
        for wave in range(waves):
            now = round(wave * 4.0, 6)
            for i in range(burst):
                task_id += 1
                deadline = 0.5 if i == 0 else round(1.5 + 0.25 * (i % 4), 6)
                task = make_task(
                    arrival_time=round(now + i * 1e-3, 6),
                    deadline=deadline,
                    computation_times=(0.05, 0.05),
                    resources=(
                        ResourceSpec(0, "hot", round(0.02 + 0.015 * (i % 3), 6)),
                    ),
                    task_id=task_id,
                )
                if client.admit("locked", task)["admitted"]:
                    admitted += 1
                else:
                    rejected += 1
            min_budget = min(min_budget, budget())
            # Every deadline in the wave lapses before the next one.
            client.call("expire", pipeline="locked", now=round(now + 3.9, 6))
        restored = budget() == idle_budget
        client.close()
        points.append(
            {
                "intensity": burst,
                "burst": burst,
                "waves": waves,
                "offered": burst * waves,
                "admitted": admitted,
                "rejected": rejected,
                "idle_budget": round(idle_budget, 6),
                "min_budget": round(min_budget, 6),
                "budget_restored_bitwise": restored,
            }
        )
    return {
        "description": "shared-resource admission bursts; the online blocking "
        "budget must shrink under contention and restore bitwise after expiry",
        "points": points,
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def scenario_names() -> List[str]:
    """Catalog order: as registered above."""
    return list(SCENARIOS)


def run_scenario(name: str, seed: int = 0) -> _Result:
    """Run one named scenario.

    Raises:
        KeyError: If ``name`` is not in the catalog.
    """
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        )
    return SCENARIOS[name](seed)


def run_scenarios(names: List[str], seed: int = 0) -> Dict[str, _Result]:
    """Run several scenarios and collect their results by name."""
    return {name: run_scenario(name, seed) for name in names}
