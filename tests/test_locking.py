"""repro.locking: ResourceSpec model, PCP blocking bounds, transactional
admission, wire encoding, and snapshot v3 round-trips."""

import json

import pytest

from repro.core.admission import PipelineAdmissionController
from repro.core.bounds import region_budget
from repro.core.task import make_task
from repro.locking import (
    PCPBlockingState,
    ResourceSpec,
    canonical_resources,
    compute_betas,
    resources_from_wire,
    resources_to_wire,
)
from repro.serve.protocol import ProtocolError, task_from_wire, task_to_wire
from repro.serve.registry import PipelinePolicy
from repro.serve.snapshot import (
    SNAPSHOT_FORMAT_V2,
    controller_snapshot,
    restore_controller,
)


# ----------------------------------------------------------------------
# ResourceSpec model
# ----------------------------------------------------------------------


class TestResourceSpec:
    def test_wire_round_trip(self):
        spec = ResourceSpec(stage=1, resource="gpu", max_length=0.25, max_requests=3)
        assert ResourceSpec.from_wire(spec.to_wire()) == spec

    def test_unknown_wire_field_rejected(self):
        doc = ResourceSpec(0, "r", 0.1).to_wire()
        doc["color"] = "red"
        with pytest.raises(ValueError, match="unknown resource spec"):
            ResourceSpec.from_wire(doc)

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="requires"):
            ResourceSpec.from_wire({"stage": 0, "resource": "r"})

    def test_zero_length_section_is_legal(self):
        assert ResourceSpec(0, "r", 0.0).max_length == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stage": -1, "resource": "r", "max_length": 0.1},
            {"stage": 0, "resource": "", "max_length": 0.1},
            {"stage": 0, "resource": "r", "max_length": -0.1},
            {"stage": 0, "resource": "r", "max_length": float("inf")},
            {"stage": 0, "resource": "r", "max_length": 0.1, "max_requests": 0},
            {"stage": True, "resource": "r", "max_length": 0.1},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResourceSpec(**kwargs)

    def test_canonical_order_is_stage_then_resource(self):
        specs = [
            ResourceSpec(1, "a", 0.1),
            ResourceSpec(0, "b", 0.2),
            ResourceSpec(0, "a", 0.3),
        ]
        ordered = canonical_resources(specs)
        assert [(s.stage, s.resource) for s in ordered] == [
            (0, "a"), (0, "b"), (1, "a"),
        ]

    def test_duplicate_stage_resource_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            canonical_resources(
                [ResourceSpec(0, "r", 0.1), ResourceSpec(0, "r", 0.2)]
            )

    def test_same_resource_at_different_stages_is_legal(self):
        ordered = canonical_resources(
            [ResourceSpec(1, "r", 0.2), ResourceSpec(0, "r", 0.1)]
        )
        assert [s.stage for s in ordered] == [0, 1]

    def test_resources_from_wire_requires_a_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            resources_from_wire({"stage": 0})

    def test_wire_list_round_trip_is_canonical(self):
        specs = [ResourceSpec(1, "b", 0.2), ResourceSpec(0, "a", 0.1)]
        docs = resources_to_wire(specs)
        assert [d["stage"] for d in docs] == [0, 1]
        assert resources_from_wire(docs) == canonical_resources(specs)


# ----------------------------------------------------------------------
# PCP blocking bounds
# ----------------------------------------------------------------------


class TestPCPBounds:
    def test_single_task_never_blocks_itself(self):
        """With one task, B_ij = 0 at every stage: a job is only ever
        blocked by a *lower-priority* task's critical section."""
        state = PCPBlockingState(2)
        betas = state.add("solo", 1.0, [ResourceSpec(0, "r", 0.5)])
        assert betas == (0.0, 0.0)

    def test_lower_priority_section_blocks_tight_victim(self):
        state = PCPBlockingState(1)
        state.add("tight", 0.5, [ResourceSpec(0, "r", 0.0)])
        betas = state.add("loose", 5.0, [ResourceSpec(0, "r", 0.2)])
        # The loose task's 0.2 section blocks the tight one: 0.2 / 0.5.
        assert betas == (0.4,)

    def test_disjoint_resources_do_not_block(self):
        state = PCPBlockingState(1)
        state.add("tight", 0.5, [ResourceSpec(0, "a", 0.1)])
        betas = state.add("loose", 5.0, [ResourceSpec(0, "b", 0.2)])
        # Ceiling of "b" is the loose task's own priority — nobody is
        # blocked on a resource only its owner uses.
        assert betas == (0.0,)

    def test_zero_length_section_raises_ceiling_without_blocking(self):
        """A zero-length declaration contributes no blocking itself but
        lifts the resource ceiling, exposing a middle-priority task to a
        low-priority section it would otherwise never wait on."""
        without = PCPBlockingState(1)
        without.add("mid", 1.0, [])
        without.add("low", 4.0, [ResourceSpec(0, "r", 0.3)])
        assert without.betas() == (0.0,)

        with_ceiling = PCPBlockingState(1)
        with_ceiling.add("high", 0.25, [ResourceSpec(0, "r", 0.0)])
        with_ceiling.add("mid", 1.0, [])
        with_ceiling.add("low", 4.0, [ResourceSpec(0, "r", 0.3)])
        # mid (D=1.0) is now inside [ceiling, owner): beta = 0.3 / 1.0;
        # high itself is the worse victim: 0.3 / 0.25 = 1.2.
        assert with_ceiling.betas() == (1.2,)

    def test_same_resource_at_multiple_stages_charges_each_stage(self):
        state = PCPBlockingState(2)
        state.add("tight", 0.5, [ResourceSpec(0, "r", 0.0), ResourceSpec(1, "r", 0.0)])
        betas = state.add(
            "loose", 5.0, [ResourceSpec(0, "r", 0.1), ResourceSpec(1, "r", 0.3)]
        )
        assert betas == (0.1 / 0.5, 0.3 / 0.5)

    def test_blocking_is_max_not_sum(self):
        state = PCPBlockingState(1)
        state.add("tight", 1.0, [ResourceSpec(0, "r", 0.0)])
        state.add("loose-a", 5.0, [ResourceSpec(0, "r", 0.2)])
        state.add("loose-b", 6.0, [ResourceSpec(0, "r", 0.3)])
        # Under PCP a job blocks at most once per stage: the bound is
        # the longest single section, not the sum.
        assert state.betas() == (0.3,)

    def test_blocking_matrix_per_task_detail(self):
        state = PCPBlockingState(1)
        state.add("tight", 0.5, [ResourceSpec(0, "r", 0.0)])
        state.add("loose", 5.0, [ResourceSpec(0, "r", 0.2)])
        matrix = state.blocking_matrix()
        assert matrix["tight"] == (0.2,)
        assert matrix["loose"] == (0.0,)

    def test_add_remove_restores_bitwise(self):
        state = PCPBlockingState(2)
        state.add("a", 0.7, [ResourceSpec(0, "r", 0.0)])
        state.add("b", 3.0, [ResourceSpec(0, "r", 0.11), ResourceSpec(1, "s", 0.2)])
        before = state.betas()
        state.add("c", 9.0, [ResourceSpec(0, "r", 0.37), ResourceSpec(1, "s", 0.05)])
        state.remove("c")
        assert state.betas() == before
        assert state.recompute() == before

    def test_order_independence_bitwise(self):
        entries = [
            ("a", 0.7, (ResourceSpec(0, "r", 0.013),)),
            ("b", 3.0, (ResourceSpec(0, "r", 0.11), ResourceSpec(1, "s", 0.2))),
            ("c", 9.0, (ResourceSpec(1, "s", 0.07),)),
            ("d", 0.31, (ResourceSpec(0, "r", 0.0),)),
        ]
        forward = compute_betas(entries, 2)
        backward = compute_betas(reversed(entries), 2)
        assert forward == backward
        # Cached vector after incremental churn matches the pure
        # recomputation bitwise.
        state = PCPBlockingState(2)
        for task_id, deadline, specs in entries:
            state.add(task_id, deadline, specs)
        state.add("extra", 1.1, [ResourceSpec(0, "r", 0.4)])
        state.remove("extra")
        assert state.betas() == forward == state.recompute()

    def test_preview_matches_add_and_does_not_mutate(self):
        state = PCPBlockingState(1)
        state.add("tight", 0.5, [ResourceSpec(0, "r", 0.0)])
        before = state.betas()
        previewed = state.preview("loose", 5.0, [ResourceSpec(0, "r", 0.2)])
        assert state.betas() == before
        assert "loose" not in state
        committed = state.add("loose", 5.0, [ResourceSpec(0, "r", 0.2)])
        assert previewed == committed

    def test_duplicate_add_rejected_and_unknown_remove_is_noop(self):
        state = PCPBlockingState(1)
        state.add("a", 1.0)
        with pytest.raises(ValueError, match="already tracked"):
            state.add("a", 2.0)
        assert state.remove("ghost") == state.betas()

    def test_out_of_range_stage_and_bad_deadline_rejected(self):
        state = PCPBlockingState(1)
        with pytest.raises(ValueError, match="stage"):
            state.add("a", 1.0, [ResourceSpec(1, "r", 0.1)])
        with pytest.raises(ValueError, match="deadline"):
            state.add("b", 0.0)


# ----------------------------------------------------------------------
# Transactional admission
# ----------------------------------------------------------------------


def _task(task_id, deadline, resources=(), cost=0.001, now=0.0):
    return make_task(
        arrival_time=now,
        deadline=deadline,
        computation_times=[cost],
        resources=resources,
        task_id=task_id,
    )


class TestLockingAdmission:
    def test_locking_conflicts_with_static_betas(self):
        with pytest.raises(ValueError, match="static betas"):
            PipelineAdmissionController(1, betas=[0.1], locking=True)

    def test_policy_locking_conflicts_with_static_betas(self):
        with pytest.raises(ValueError):
            PipelinePolicy(num_stages=1, betas=(0.1,), locking=True)

    def test_blocking_heavy_arrival_is_refused(self):
        controller = PipelineAdmissionController(1, alpha=1.0, locking=True)
        assert controller.request(
            _task(1, 0.1, [ResourceSpec(0, "r", 0.0)]), now=0.0
        ).admitted
        before = (controller.betas, controller.budget)
        # Its own section would block the tight task for its entire
        # deadline: previewed beta = 1.0 empties the region, so the
        # arrival is refused on blocking alone (utilization is tiny).
        heavy = _task(2, 10.0, [ResourceSpec(0, "r", 0.1)])
        assert not controller.request(heavy, now=0.0).admitted
        assert not controller.is_admitted(2)
        assert (controller.betas, controller.budget) == before

    def test_admission_charges_blocking_to_the_budget(self):
        controller = PipelineAdmissionController(1, alpha=1.0, locking=True)
        controller.request(_task(1, 0.5, [ResourceSpec(0, "r", 0.0)]), now=0.0)
        assert controller.betas == (0.0,)
        assert controller.budget == 1.0
        controller.request(_task(2, 5.0, [ResourceSpec(0, "r", 0.2)]), now=0.0)
        assert controller.betas == (0.4,)
        assert controller.budget == region_budget(1.0, (0.4,))

    def test_withdraw_restores_budget_bitwise(self):
        controller = PipelineAdmissionController(1, alpha=0.9, locking=True)
        controller.request(_task(1, 0.5, [ResourceSpec(0, "r", 0.0)]), now=0.0)
        before = (controller.betas, controller.budget)
        controller.request(_task(2, 5.0, [ResourceSpec(0, "r", 0.2)]), now=0.0)
        assert controller.budget < before[1]
        controller.withdraw(2)
        assert (controller.betas, controller.budget) == before

    def test_expiry_releases_blocking(self):
        controller = PipelineAdmissionController(1, alpha=1.0, locking=True)
        controller.request(_task(1, 0.5, [ResourceSpec(0, "r", 0.0)]), now=0.0)
        controller.request(_task(2, 5.0, [ResourceSpec(0, "r", 0.2)]), now=0.0)
        assert controller.betas == (0.4,)
        controller.expire(6.0)
        assert controller.betas == (0.0,)
        assert controller.budget == 1.0

    def test_would_admit_does_not_mutate_blocking_state(self):
        controller = PipelineAdmissionController(1, alpha=1.0, locking=True)
        controller.request(_task(1, 0.5, [ResourceSpec(0, "r", 0.0)]), now=0.0)
        before = (controller.betas, controller.budget)
        assert controller.would_admit(
            _task(2, 5.0, [ResourceSpec(0, "r", 0.05)]), now=0.0
        )
        assert (controller.betas, controller.budget) == before


def _shedding_setup():
    """A locking controller holding a sheddable blocker and a keeper.

    ``blocker`` (importance 0, D 10) holds ``r`` for 0.6; ``keeper``
    (importance 9, D 20) holds it for 0.05.  An urgent arrival on ``r``
    (D 1) would be blocked 0.6 by the blocker, which leaves a budget of
    0.4, under its 0.5525 region term; with the blocker shed only the
    keeper's 0.05 remains.
    """
    controller = PipelineAdmissionController(1, alpha=1.0, locking=True)
    blocker = make_task(
        0.0, 10.0, [1.0], importance=0, task_id="blocker",
        resources=[ResourceSpec(0, "r", 0.6)],
    )
    keeper = make_task(
        0.0, 20.0, [0.2], importance=9, task_id="keeper",
        resources=[ResourceSpec(0, "r", 0.05)],
    )
    assert controller.request(blocker, now=0.0).admitted
    assert controller.request(keeper, now=0.0).admitted
    return controller, blocker, keeper


class TestLockingShedding:
    def test_arrival_fits_once_its_blocker_is_shed(self):
        controller, blocker, keeper = _shedding_setup()
        urgent = make_task(
            0.0, 1.0, [0.3], importance=5, task_id="urgent",
            resources=[ResourceSpec(0, "r", 0.0)],
        )
        assert not controller.would_admit(urgent, now=0.0)
        decision = controller.request_with_shedding(urgent, now=0.0)
        assert decision.admitted
        assert decision.shed == ("blocker",)
        assert not controller.is_admitted("blocker")
        # Only the keeper's section still blocks the urgent task.
        assert controller.betas == (0.05,)
        assert controller.budget == region_budget(1.0, (0.05,))
        # Bitwise the state of a controller that never saw the blocker.
        fresh = PipelineAdmissionController(1, alpha=1.0, locking=True)
        fresh.request(keeper, now=0.0)
        assert fresh.request(urgent, now=0.0).region_value == decision.region_value
        assert (controller.betas, controller.budget) == (fresh.betas, fresh.budget)
        assert controller.utilizations() == fresh.utilizations()

    def test_refused_shedding_restores_blocking_bitwise(self):
        controller, blocker, keeper = _shedding_setup()
        before = (
            controller.betas,
            controller.budget,
            controller.utilizations(),
            {record[0]: record[1:] for record in controller.iter_admitted()},
        )
        assert controller.betas == (0.005,)
        # Utilization 0.9 can never fit, so the blocker is shed, the
        # arrival re-tested without it, and the shedding rolled back.
        hopeless = make_task(
            0.0, 1.0, [0.9], importance=5, task_id="hopeless",
            resources=[ResourceSpec(0, "r", 0.0)],
        )
        decision = controller.request_with_shedding(hopeless, now=0.0)
        assert not decision.admitted
        assert decision.shed == ()
        assert decision.region_value == controller.region_value()
        after = (
            controller.betas,
            controller.budget,
            controller.utilizations(),
            {record[0]: record[1:] for record in controller.iter_admitted()},
        )
        assert after == before
        assert controller._blocking.recompute() == controller.betas


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


class TestTaskWire:
    def test_resources_round_trip(self):
        task = _task(7, 2.0, [ResourceSpec(0, "gpu", 0.05, max_requests=2)])
        doc = task_to_wire(task)
        assert doc["resources"] == [
            {"stage": 0, "resource": "gpu", "max_length": 0.05, "max_requests": 2}
        ]
        assert task_from_wire(doc).resources == task.resources

    def test_resource_free_task_omits_the_field(self):
        assert "resources" not in task_to_wire(_task(7, 2.0))

    def test_malformed_resources_raise_protocol_error(self):
        doc = task_to_wire(_task(7, 2.0))
        doc["resources"] = {"stage": 0}
        with pytest.raises(ProtocolError):
            task_from_wire(doc)
        doc["resources"] = [{"stage": 0, "resource": "r", "max_length": 0.1, "x": 1}]
        with pytest.raises(ProtocolError):
            task_from_wire(doc)


# ----------------------------------------------------------------------
# Snapshot v3
# ----------------------------------------------------------------------


def _locked_controller():
    controller = PipelineAdmissionController(2, alpha=0.9, locking=True)
    assert controller.request(
        make_task(
            arrival_time=0.0,
            deadline=0.5,
            computation_times=[0.01, 0.01],
            resources=[ResourceSpec(0, "r", 0.0)],
            task_id=1,
        ),
        now=0.0,
    ).admitted
    assert controller.request(
        make_task(
            arrival_time=0.0,
            deadline=5.0,
            computation_times=[0.01, 0.01],
            resources=[ResourceSpec(0, "r", 0.07), ResourceSpec(1, "s", 0.04)],
            task_id=2,
        ),
        now=0.0,
    ).admitted
    return controller


class TestSnapshotV3:
    def test_locking_round_trip_is_bitwise(self):
        controller = _locked_controller()
        state = controller_snapshot(controller)
        assert state["locking"] is True
        restored = restore_controller(state)
        assert restored.locking
        assert restored.betas == controller.betas
        assert restored.budget == controller.budget
        assert json.dumps(controller_snapshot(restored), sort_keys=True) == (
            json.dumps(state, sort_keys=True)
        )
        # The restored engine keeps enforcing: the same blocking-heavy
        # arrival is refused on both sides.
        heavy = make_task(
            arrival_time=0.0,
            deadline=20.0,
            computation_times=[0.01, 0.01],
            resources=[ResourceSpec(0, "r", 0.5)],
            task_id=3,
        )
        # Its 0.5 section covers the tight task's whole deadline:
        # previewed beta_0 = 1.0 empties the region on both sides.
        assert not restored.request(heavy, now=0.0).admitted

    def test_tampered_beta_vector_is_refused(self):
        state = controller_snapshot(_locked_controller())
        state["betas"] = [0.0, 0.0]
        with pytest.raises(ValueError):
            restore_controller(state)

    def test_tampered_resources_are_refused(self):
        state = controller_snapshot(_locked_controller())
        for record in state["admitted"]:
            record["resources"] = []
        with pytest.raises(ValueError):
            restore_controller(state)

    def test_v2_document_still_restores(self):
        controller = PipelineAdmissionController(2, alpha=0.9, betas=[0.05, 0.05])
        controller.request(
            make_task(
                arrival_time=0.0,
                deadline=1.0,
                computation_times=[0.01, 0.01],
                task_id=1,
            ),
            now=0.0,
        )
        state = controller_snapshot(controller)
        state["format"] = SNAPSHOT_FORMAT_V2
        del state["locking"]
        for record in state["admitted"]:
            del record["deadline"]
            del record["resources"]
        restored = restore_controller(state)
        assert not restored.locking
        assert restored.betas == (0.05, 0.05)
        assert restored.is_admitted(1)
