"""Differential suite for the admission lane against its scalar oracle.

Every admission — ``admit_many`` on every controller, ``request()`` as
its one-row call, each re-test of ``request_with_shedding`` — decides
and commits through one loop, :meth:`PipelineAdmissionController.
_admit_many_fast`.  It hoists every batch-invariant read — the region
budget, tracker values, the per-stage ``f(min(U_j, 1))`` cache — out of
the per-task iteration, inlines ``approx_ge`` / ``stage_delay_factor`` /
``approx_le`` into one pass per candidate, and previews a locking row's
budget per row.  The guarantee it must uphold (DESIGN.md §16.1):
decisions, reported region values, and the final controller state are
*bitwise identical* to :func:`scalar_admit_many`, the plain per-task
loop kept here as the oracle (expire, derive the contributions and the
candidate budget, ``_fits``, install).

This suite replays seeded op streams — bursts sharing a timestamp,
interleaved expiry, zero-cost stages, capacity rescales, locking
controllers — through the lane at batch sizes 1/2/32/257 and through
``request()``, and asserts equality with the oracle decision for
decision, plus ``registry_fingerprint`` equality for whole gateways
whose only difference is the oracle patched in for the lane.
"""

import heapq
import random

import pytest

from repro.core.admission import (
    AdmissionDecision,
    MeanDemand,
    PipelineAdmissionController,
    ScaledDemand,
    _Admitted,
)
from repro.core.task import make_task
from repro.locking import ResourceSpec
from repro.serve.gateway import AdmissionGateway
from repro.serve.protocol import encode, task_to_wire
from repro.serve.recovery import registry_fingerprint

NUM_STAGES = 3
BATCH_SIZES = [1, 2, 32, 257]


def _mixed_trace(seed, count, num_stages=NUM_STAGES, locking=False):
    """Seeded arrivals with bursts, tight deadlines, and zero-cost stages.

    Roughly a third of arrivals share the previous timestamp (a burst),
    deadlines span lapsing-within-the-trace to outliving it, and some
    stage costs are exactly 0.0 — the branchy cases the lane must not
    cut corners on.  With ``locking`` every third task declares a
    critical section so ``beta_j`` moves with the admitted set.
    """
    rng = random.Random(seed)
    t = 0.0
    tasks = []
    for k in range(count):
        if rng.random() > 0.3:
            t = round(t + rng.expovariate(6.0), 9)
        deadline = rng.choice([0.05, 0.2, 1.0, 3.0]) * rng.uniform(0.5, 1.5)
        costs = [
            rng.expovariate(1.0 / 0.05) if rng.random() > 0.25 else 0.0
            for _ in range(num_stages)
        ]
        resources = ()
        if locking and k % 3 == 0:
            resources = (
                ResourceSpec(
                    stage=rng.randrange(num_stages),
                    resource=rng.choice(["db", "cache"]),
                    max_length=rng.uniform(0.0005, 0.01),
                ),
            )
        tasks.append(
            make_task(
                arrival_time=t,
                deadline=deadline,
                computation_times=costs,
                importance=rng.randrange(3),
                resources=resources,
                task_id=k,
            )
        )
    return tasks


def scalar_admit_many(controller, task_list, time_list):
    """The per-task reference loop the admission lane must match bitwise.

    No hoisting and no inlining: each task expires the controller at its
    timestamp, derives its contributions and candidate budget, runs the
    scalar region test ``_fits`` and, when it fits, installs itself
    stage by stage, then reports the freshly computed region value.  A
    reused live id raises before anything changes.  Its signature
    matches ``_admit_many_fast``, so it can be patched in for the lane.
    """
    decisions = []
    for task, now in zip(task_list, time_list):
        controller.expire(now)
        contributions = controller._contributions(task)
        budget = controller._candidate_budget(task)
        fits = budget is not None and controller._fits(contributions, budget)
        if fits:
            if controller.collides(task.task_id, now):
                raise ValueError(f"task {task.task_id!r} is already admitted")
            expiry = task.absolute_deadline
            for tracker, contribution in zip(controller.trackers, contributions):
                tracker.add(task.task_id, contribution, expiry)
            controller._admission_seq += 1
            controller._admitted[task.task_id] = _Admitted(
                contributions=contributions,
                expiry=expiry,
                importance=task.importance,
                deadline=task.deadline,
                resources=task.resources,
                demand=tuple(controller.demand_model.demand(task)),
                seq=controller._admission_seq,
            )
            controller._locking_track(task.task_id, task.deadline, task.resources)
            heapq.heappush(controller._expiry_heap, (expiry, task.task_id))
        decisions.append(
            AdmissionDecision(admitted=fits, region_value=controller.region_value())
        )
    return decisions


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _assert_state_equal(a, b):
    assert a.utilizations() == b.utilizations()
    assert a.region_value() == b.region_value()
    assert a.admitted_snapshot() == b.admitted_snapshot()
    assert a.iter_admitted() == b.iter_admitted()
    assert a.admission_seq == b.admission_seq
    assert a.budget == b.budget
    assert a.betas == b.betas


def _assert_decisions_equal(batched, sequential):
    assert len(batched) == len(sequential)
    for got, want in zip(batched, sequential):
        assert got.admitted == want.admitted
        # Bitwise, not approximate: the lane replays the exact float
        # expression order of the oracle.
        assert got.region_value == want.region_value
        assert got.shed == want.shed


def _run_differential(tasks, batch_size, make_controller, rescales=()):
    """Oracle loop vs the lane on twin controllers.

    The lane twin takes the trace in ``admit_many`` chunks of
    ``batch_size``, or, at batch size 1, as one ``request()`` per task.
    ``rescales`` is a list of ``(after_index, stage, capacity)``
    triples applied to both controllers at the same trace position
    (aligned to a batch boundary for the batched twin).
    """
    reference = make_controller()
    batched = make_controller()
    rescale_at = {after: (stage, cap) for after, stage, cap in rescales}

    sequential = []
    for k, task in enumerate(tasks):
        sequential.extend(scalar_admit_many(reference, [task], [task.arrival_time]))
        if k + 1 in rescale_at:
            stage, cap = rescale_at[k + 1]
            reference.rescale_stage_capacity(stage, cap)

    decisions = []
    done = 0
    for chunk in _chunks(tasks, batch_size):
        if batch_size == 1:
            decisions.append(batched.request(chunk[0], chunk[0].arrival_time))
        else:
            decisions.extend(batched.admit_many(chunk))
        done += len(chunk)
        if done in rescale_at:
            stage, cap = rescale_at[done]
            batched.rescale_stage_capacity(stage, cap)

    _assert_decisions_equal(decisions, sequential)
    _assert_state_equal(reference, batched)
    return reference, batched


class TestScalarOracle:
    """The lane == the scalar oracle, bitwise, for every shape."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_plain_controller(self, seed, batch_size):
        tasks = _mixed_trace(seed, 400)
        _run_differential(tasks, batch_size, lambda: PipelineAdmissionController(NUM_STAGES))

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_alpha_and_static_betas(self, batch_size):
        tasks = _mixed_trace(13, 300)
        _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(
                NUM_STAGES, alpha=0.8, betas=[0.05, 0.0, 0.1]
            ),
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize(
        "model",
        [
            lambda: ScaledDemand(1.3),
            lambda: MeanDemand([0.04] * NUM_STAGES),
        ],
    )
    def test_non_exact_demand_models(self, model, batch_size):
        tasks = _mixed_trace(29, 300)
        _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(NUM_STAGES, demand_model=model()),
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_reserved_utilization(self, batch_size):
        tasks = _mixed_trace(43, 300)
        _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(
                NUM_STAGES, reserved=[0.2, 0.0, 0.1]
            ),
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_degradation_rescaled_mid_stream(self, batch_size):
        """Capacity rescales between flushes re-derive the hoisted row;
        on a locking controller each degraded row also previews its own
        budget."""
        # The rescale must land on a chunk boundary so both twins apply
        # it at the same trace position.
        boundary = -(-128 // batch_size) * batch_size
        for locking in (False, True):
            reference, _ = _run_differential(
                _mixed_trace(57, 514, locking=locking),
                batch_size,
                lambda: PipelineAdmissionController(NUM_STAGES, locking=locking),
                rescales=[(boundary, 1, 0.5), (2 * boundary, 1, 0.9)],
            )
            assert (reference.betas is not None) == locking

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_locking_controller_takes_scalar_path(self, batch_size):
        """Locking rows preview their own budget inside the lane (the
        tracer's scalar-lane row) — still equal to the oracle."""
        tasks = _mixed_trace(71, 300, locking=True)
        reference, batched = _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(NUM_STAGES, locking=True),
        )
        assert reference.betas is not None

    def test_saturating_burst_shares_reject_region_value(self):
        """Consecutive rejections at an unchanged region report the same
        region value the scalar loop would recompute."""
        heavy = [
            make_task(
                arrival_time=1.0,
                deadline=0.4,
                computation_times=[0.3] * NUM_STAGES,
                task_id=k,
            )
            for k in range(64)
        ]
        _run_differential(heavy, 32, lambda: PipelineAdmissionController(NUM_STAGES))

    def test_underflowed_capacity_product_raises_like_scalar(self):
        """``capacity * deadline`` underflowing to 0.0 raises the same
        ZeroDivisionError from the same expression as the oracle."""
        tiny = 5e-324
        controller = PipelineAdmissionController(NUM_STAGES)
        controller.set_stage_capacity(1, tiny)
        task = make_task(
            arrival_time=0.0,
            deadline=tiny,
            computation_times=[0.0] * NUM_STAGES,
            task_id=0,
        )
        with pytest.raises(ZeroDivisionError):
            scalar_admit_many(controller, [task], [0.0])
        with pytest.raises(ZeroDivisionError):
            controller.request(task, 0.0)
        batched = PipelineAdmissionController(NUM_STAGES)
        batched.set_stage_capacity(1, tiny)
        with pytest.raises(ZeroDivisionError):
            batched.admit_many([task])


class TestProbeCache:
    """would_admit probes answer like request() and never perturb it."""

    def test_probe_does_not_perturb_decisions(self):
        """Bitwise pin: interleaving probes changes nothing."""
        tasks = _mixed_trace(11, 200, locking=True)
        plain = PipelineAdmissionController(NUM_STAGES, locking=True)
        probed = PipelineAdmissionController(NUM_STAGES, locking=True)
        for task in tasks:
            want = plain.request(task, task.arrival_time)
            probed.would_admit(task, task.arrival_time)
            got = probed.request(task, task.arrival_time)
            assert got.admitted == want.admitted
            assert got.region_value == want.region_value
        _assert_state_equal(plain, probed)

    def test_probe_cache_invalidated_by_capacity_change(self):
        """A rescale between probe and request decides at the new capacity."""
        controller = PipelineAdmissionController(NUM_STAGES)
        task = make_task(
            arrival_time=0.0,
            deadline=1.0,
            computation_times=[0.2] * NUM_STAGES,
            task_id=0,
        )
        assert controller.would_admit(task, 0.0)
        controller.set_stage_capacity(0, 0.25)
        # 0.2 / (0.25 * 1.0) = 0.8 -> f(0.8) = 2.4 > 1: must be refused.
        assert not controller.request(task, 0.0).admitted

    def test_probe_cache_invalidated_by_admissions(self):
        """Probing a whole trace first leaves every later decision
        as if no probe had run."""
        controller = PipelineAdmissionController(NUM_STAGES, locking=True)
        tasks = _mixed_trace(17, 20, locking=True)
        reference = PipelineAdmissionController(NUM_STAGES, locking=True)
        for task in tasks:
            controller.would_admit(task, task.arrival_time)
        for task in tasks:
            got = controller.request(task, task.arrival_time)
            want = reference.request(task, task.arrival_time)
            assert (got.admitted, got.region_value) == (
                want.admitted,
                want.region_value,
            )


class TestGatewayFingerprint:
    """Whole-gateway differential: the lane vs the oracle patched in."""

    @staticmethod
    def _drive(gateway, tasks, batch):
        lines = []
        lines.append(
            encode(
                {
                    "op": "register",
                    "pipeline": "web",
                    "policy": {"num_stages": NUM_STAGES, "max_batch": batch},
                    "id": 0,
                }
            )
        )
        for k, task in enumerate(tasks):
            lines.append(
                encode(
                    {
                        "op": "admit",
                        "pipeline": "web",
                        "task": task_to_wire(task),
                        "id": k + 1,
                    }
                )
            )
        responses = []
        for line in lines:
            responses.extend(resp for _origin, resp in gateway.handle_line(line))
        responses.extend(resp for _origin, resp in gateway.drain())
        return responses

    @pytest.mark.parametrize("batch", [1, 2, 32])
    def test_fingerprint_and_bytes_equal_forced_scalar(self, monkeypatch, batch):
        tasks = _mixed_trace(3, 300)
        fast = AdmissionGateway()
        fast_responses = self._drive(fast, tasks, batch)

        monkeypatch.setattr(
            PipelineAdmissionController, "_admit_many_fast", scalar_admit_many
        )
        scalar = AdmissionGateway()
        scalar_responses = self._drive(scalar, tasks, batch)

        assert fast_responses == scalar_responses
        assert registry_fingerprint(fast) == registry_fingerprint(scalar)

    def test_fingerprint_equal_with_rescale_mid_stream(self, monkeypatch):
        """A set_capacity barrier between flushes keeps the twins equal."""
        tasks = _mixed_trace(23, 200)
        rescale = encode(
            {
                "op": "set_capacity",
                "pipeline": "web",
                "stage": 1,
                "capacity": 0.6,
                "id": 9999,
            }
        )

        def drive(gateway):
            responses = self._drive(gateway, tasks[:100], 32)
            responses.extend(resp for _o, resp in gateway.handle_line(rescale))
            for k, task in enumerate(tasks[100:]):
                line = encode(
                    {
                        "op": "admit",
                        "pipeline": "web",
                        "task": task_to_wire(task),
                        "id": 10000 + k,
                    }
                )
                responses.extend(resp for _o, resp in gateway.handle_line(line))
            responses.extend(resp for _o, resp in gateway.drain())
            return responses

        fast = AdmissionGateway()
        fast_responses = drive(fast)
        monkeypatch.setattr(
            PipelineAdmissionController, "_admit_many_fast", scalar_admit_many
        )
        scalar = AdmissionGateway()
        scalar_responses = drive(scalar)
        assert fast_responses == scalar_responses
        assert registry_fingerprint(fast) == registry_fingerprint(scalar)

    def test_locking_pipeline_fingerprint_stable(self, monkeypatch):
        """A batched locking pipeline previews each row's budget inside
        the lane and still answers and fingerprints like the oracle."""
        tasks = _mixed_trace(31, 150, locking=True)

        def drive(gateway, batch):
            lines = [
                encode(
                    {
                        "op": "register",
                        "pipeline": "web",
                        "policy": {
                            "num_stages": NUM_STAGES,
                            "locking": True,
                            "max_batch": batch,
                        },
                        "id": 0,
                    }
                )
            ]
            lines.extend(
                encode(
                    {
                        "op": "admit",
                        "pipeline": "web",
                        "task": task_to_wire(task),
                        "id": k + 1,
                    }
                )
                for k, task in enumerate(tasks)
            )
            responses = []
            for line in lines:
                responses.extend(resp for _o, resp in gateway.handle_line(line))
            responses.extend(resp for _o, resp in gateway.drain())
            return responses

        a = AdmissionGateway()
        responses_a = drive(a, 32)
        monkeypatch.setattr(
            PipelineAdmissionController, "_admit_many_fast", scalar_admit_many
        )
        b = AdmissionGateway()
        responses_b = drive(b, 32)
        assert responses_a == responses_b
        assert registry_fingerprint(a) == registry_fingerprint(b)
