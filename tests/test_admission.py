"""Tests for the O(N) pipeline admission controller (Sections 4 and 5)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.admission import (
    ExactDemand,
    MeanDemand,
    PipelineAdmissionController,
)
from repro.core.audit import ControllerAuditor
from repro.core.bounds import (
    UNIPROCESSOR_APERIODIC_BOUND,
    pipeline_region_value,
)
from repro.core.task import make_task
from repro.locking import ResourceSpec


def controller(num_stages=2, **kwargs):
    return PipelineAdmissionController(num_stages, **kwargs)


class TestConstruction:
    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            controller(0)

    def test_beta_length_mismatch(self):
        with pytest.raises(ValueError):
            controller(2, betas=[0.1])

    def test_reserved_length_mismatch(self):
        with pytest.raises(ValueError):
            controller(2, reserved=[0.1])

    def test_infeasible_reservation_rejected(self):
        with pytest.raises(ValueError):
            controller(2, reserved=[0.5, 0.5])

    def test_feasible_reservation_accepted(self):
        c = controller(3, reserved=[0.4, 0.25, 0.1])
        assert c.region_value() == pytest.approx(0.9306, abs=1e-3)


class TestBasicAdmission:
    def test_small_task_admitted(self):
        c = controller()
        t = make_task(0.0, 10.0, [0.5, 0.5])
        decision = c.request(t, now=0.0)
        assert decision.admitted
        assert c.is_admitted(t.task_id)
        assert c.utilizations() == pytest.approx((0.05, 0.05))

    def test_oversized_task_rejected(self):
        c = controller()
        t = make_task(0.0, 1.0, [0.9, 0.9])
        decision = c.request(t, now=0.0)
        assert not decision.admitted
        assert not c.is_admitted(t.task_id)
        assert c.utilizations() == (0.0, 0.0)

    def test_contribution_at_unity_rejected(self):
        c = controller(1)
        t = make_task(0.0, 1.0, [1.0])
        assert not c.request(t, now=0.0).admitted

    def test_single_stage_scalar_bound(self):
        c = controller(1)
        eps = 1e-6
        ok = make_task(0.0, 1.0, [UNIPROCESSOR_APERIODIC_BOUND - eps])
        too_big = make_task(0.0, 1.0, [UNIPROCESSOR_APERIODIC_BOUND + eps])
        assert c.request(ok, now=0.0).admitted
        c2 = controller(1)
        assert not c2.request(too_big, now=0.0).admitted

    def test_would_admit_does_not_commit(self):
        c = controller()
        t = make_task(0.0, 10.0, [0.5, 0.5])
        assert c.would_admit(t, now=0.0)
        assert not c.is_admitted(t.task_id)
        assert c.utilizations() == (0.0, 0.0)

    def test_rejection_leaves_state_untouched(self):
        c = controller()
        first = make_task(0.0, 1.0, [0.3, 0.3])
        assert c.request(first, now=0.0).admitted
        before = c.utilizations()
        second = make_task(0.0, 1.0, [0.5, 0.5])
        assert not c.request(second, now=0.0).admitted
        assert c.utilizations() == before

    def test_admissions_accumulate_to_boundary(self):
        c = controller(1)
        admitted = 0
        for i in range(100):
            t = make_task(0.0, 100.0, [1.0])  # contribution 0.01 each
            if c.request(t, now=0.0).admitted:
                admitted += 1
        # floor(0.5857 / 0.01) admissions fit.
        assert admitted == 58
        assert c.region_value() <= 1.0

    def test_stage_count_mismatch_raises(self):
        c = controller(2)
        t = make_task(0.0, 1.0, [0.1])
        with pytest.raises(ValueError):
            c.request(t, now=0.0)


class TestExpiry:
    def test_contribution_expires_at_deadline(self):
        c = controller()
        t = make_task(0.0, 10.0, [1.0, 1.0])
        c.request(t, now=0.0)
        c.expire(9.999)
        assert c.is_admitted(t.task_id)
        c.expire(10.0)
        assert not c.is_admitted(t.task_id)
        assert c.utilizations() == (0.0, 0.0)

    def test_expiry_frees_capacity(self):
        c = controller(1)
        big = make_task(0.0, 1.0, [0.55])
        assert c.request(big, now=0.0).admitted
        blocked = make_task(0.5, 1.5, [0.55 * 1.5])
        assert not c.request(blocked, now=0.5).admitted
        retry = make_task(1.0, 1.5, [0.55 * 1.5])
        assert c.request(retry, now=1.0).admitted  # big expired at 1.0

    def test_next_expiry(self):
        c = controller()
        assert c.next_expiry() == math.inf
        c.request(make_task(0.0, 7.0, [0.1, 0.1]), now=0.0)
        c.request(make_task(0.0, 3.0, [0.1, 0.1]), now=0.0)
        assert c.next_expiry() == 3.0


class TestIdleReset:
    def test_departure_then_idle_releases(self):
        c = controller()
        t = make_task(0.0, 100.0, [1.0, 1.0])
        c.request(t, now=0.0)
        c.notify_subtask_departure(t.task_id, stage=0)
        released = c.notify_stage_idle(0)
        assert released == pytest.approx(0.01)
        # Stage 1 still carries the contribution.
        assert c.utilizations() == pytest.approx((0.0, 0.01))

    def test_idle_without_departures_is_noop(self):
        c = controller()
        t = make_task(0.0, 100.0, [1.0, 1.0])
        c.request(t, now=0.0)
        assert c.notify_stage_idle(0) == 0.0
        assert c.utilizations() == pytest.approx((0.01, 0.01))

    def test_reset_disabled_for_ablation(self):
        c = controller(reset_on_idle=False)
        t = make_task(0.0, 100.0, [1.0, 1.0])
        c.request(t, now=0.0)
        c.notify_subtask_departure(t.task_id, stage=0)
        assert c.notify_stage_idle(0) == 0.0
        assert c.utilizations() == pytest.approx((0.01, 0.01))

    def test_reset_preserves_reserved(self):
        c = controller(2, reserved=[0.2, 0.1])
        t = make_task(0.0, 100.0, [1.0, 1.0])
        c.request(t, now=0.0)
        c.notify_subtask_departure(t.task_id, stage=0)
        c.notify_stage_idle(0)
        assert c.utilizations() == pytest.approx((0.2, 0.11))

    def test_paper_reset_scenario(self):
        """The Section-4 single-processor example: tasks with C=1, D=2
        arriving just after each other's completion are all admitted
        despite each nearly filling the bound."""
        c = controller(1)
        now = 0.0
        for _ in range(10):
            t = make_task(now, 2.0, [1.0])  # contribution 0.5
            assert c.request(t, now=now).admitted
            # Task completes after 1 time unit; the processor idles.
            c.notify_subtask_departure(t.task_id, stage=0)
            c.notify_stage_idle(0)
            now += 1.0 + 1e-6


class TestWithdrawAndShedding:
    def test_withdraw_removes_everywhere(self):
        c = controller()
        t = make_task(0.0, 10.0, [1.0, 2.0])
        c.request(t, now=0.0)
        c.withdraw(t.task_id)
        assert not c.is_admitted(t.task_id)
        assert c.utilizations() == (0.0, 0.0)

    def test_shedding_evicts_lower_importance(self):
        c = controller(1)
        filler = [make_task(0.0, 1.0, [0.14], importance=0) for _ in range(4)]
        for t in filler:
            assert c.request(t, now=0.0).admitted
        vip = make_task(0.0, 1.0, [0.3], importance=5)
        decision = c.request_with_shedding(vip, now=0.0)
        assert decision.admitted
        assert len(decision.shed) >= 1
        for victim in decision.shed:
            assert not c.is_admitted(victim)
        assert c.is_admitted(vip.task_id)
        assert c.region_value() <= 1.0

    def test_shedding_stops_at_equal_importance(self):
        c = controller(1)
        peers = [make_task(0.0, 1.0, [0.14], importance=5) for _ in range(4)]
        for t in peers:
            assert c.request(t, now=0.0).admitted
        vip = make_task(0.0, 1.0, [0.3], importance=5)
        decision = c.request_with_shedding(vip, now=0.0)
        assert not decision.admitted
        assert decision.shed == ()
        for t in peers:
            assert c.is_admitted(t.task_id)

    def test_shedding_rolls_back_when_insufficient(self):
        c = controller(1)
        small = make_task(0.0, 1.0, [0.1], importance=0)
        assert c.request(small, now=0.0).admitted
        monster = make_task(0.0, 1.0, [0.99], importance=9)
        decision = c.request_with_shedding(monster, now=0.0)
        assert not decision.admitted
        # The shed victim must be restored.
        assert c.is_admitted(small.task_id)
        assert c.utilizations() == pytest.approx((0.1,))

    def test_shedding_without_pressure_sheds_nothing(self):
        c = controller(1)
        t = make_task(0.0, 1.0, [0.1], importance=9)
        decision = c.request_with_shedding(t, now=0.0)
        assert decision.admitted
        assert decision.shed == ()

    def test_shedding_minimal_victims(self):
        c = controller(1)
        for _ in range(5):
            c.request(make_task(0.0, 1.0, [0.1], importance=0), now=0.0)
        vip = make_task(0.0, 1.0, [0.15], importance=1)
        decision = c.request_with_shedding(vip, now=0.0)
        assert decision.admitted
        # One 0.1 victim suffices to fit 0.15 under the 0.5857 bound.
        assert len(decision.shed) == 1


class TestDemandModels:
    def test_exact_is_default(self):
        c = controller()
        assert isinstance(c.demand_model, ExactDemand)

    def test_mean_demand_overrides_actuals(self):
        c = controller(demand_model=MeanDemand([1.0, 1.0]))
        # Actual cost is huge but the controller charges the mean.
        t = make_task(0.0, 10.0, [50.0, 50.0])
        decision = c.request(t, now=0.0)
        assert decision.admitted
        assert c.utilizations() == pytest.approx((0.1, 0.1))

    def test_mean_demand_dimension_check(self):
        c = controller(demand_model=MeanDemand([1.0]))
        t = make_task(0.0, 10.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            c.request(t, now=0.0)

    def test_mean_demand_validation(self):
        with pytest.raises(ValueError):
            MeanDemand([-1.0])

    def test_exact_demand_returns_task_costs(self):
        t = make_task(0.0, 1.0, [0.2, 0.3])
        assert ExactDemand().demand(t) == (0.2, 0.3)


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=20.0),  # deadline
                st.floats(min_value=0.0, max_value=5.0),  # cost stage 0
                st.floats(min_value=0.0, max_value=5.0),  # cost stage 1
                st.floats(min_value=0.0, max_value=2.0),  # inter-arrival
            ),
            max_size=40,
        )
    )
    def test_region_never_violated(self, arrivals):
        """Whatever the arrival pattern, the admitted state stays inside
        the feasible region at every admission instant."""
        c = controller(2)
        now = 0.0
        for deadline, c0, c1, gap in arrivals:
            now += gap
            t = make_task(now, deadline, [c0, c1])
            c.request(t, now=now)
            assert c.region_value() <= c.budget + 1e-9
            assert pipeline_region_value(
                [min(u, 1 - 1e-12) for u in c.utilizations()]
            ) == pytest.approx(c.region_value(), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_admitted_count_tracks_requests(self, n):
        c = controller(n)
        tasks = [make_task(0.0, 100.0, [0.1] * n) for _ in range(5)]
        admitted = sum(1 for t in tasks if c.request(t, now=0.0).admitted)
        assert c.admitted_count == admitted


class TestScaledDemand:
    def test_under_declaration(self):
        from repro.core.admission import ScaledDemand

        t = make_task(0.0, 10.0, [2.0, 4.0])
        assert ScaledDemand(0.5).demand(t) == (1.0, 2.0)

    def test_over_declaration(self):
        from repro.core.admission import ScaledDemand

        t = make_task(0.0, 10.0, [2.0])
        assert ScaledDemand(2.0).demand(t) == (4.0,)

    def test_validation(self):
        from repro.core.admission import ScaledDemand

        with pytest.raises(ValueError):
            ScaledDemand(0.0)
        with pytest.raises(ValueError):
            ScaledDemand(float("inf"))

    def test_under_charging_admits_more(self):
        from repro.core.admission import ScaledDemand

        exact = controller(1)
        optimistic = controller(1, demand_model=ScaledDemand(0.5))
        admitted_exact = sum(
            1
            for i in range(40)
            if exact.request(make_task(0.0, 10.0, [0.2], task_id=80_000 + i), 0.0).admitted
        )
        admitted_optimistic = sum(
            1
            for i in range(40)
            if optimistic.request(make_task(0.0, 10.0, [0.2], task_id=81_000 + i), 0.0).admitted
        )
        assert admitted_optimistic > admitted_exact


class TestBoundaryAdmission:
    """Regression tests for the approximate region-surface comparison.

    The admission test accepts ``sum_j f(U_j) <= budget`` with the
    shared relative tolerance: a task landing *exactly on* the region
    surface is feasible by Theorem 2 and must not be bounced by
    floating-point rounding in ``f``.  The slope ``f'(U)`` is ~3.4 near
    the uniprocessor bound, so genuine violations are still rejected.
    """

    def test_task_on_the_surface_is_admitted(self):
        c = controller(1)
        # Contribution C/D == 2 - sqrt(2): f(U*) == budget == 1 exactly
        # (up to rounding in f, which the tolerance absorbs).
        t = make_task(0.0, 1.0, [UNIPROCESSOR_APERIODIC_BOUND])
        assert c.request(t, now=0.0).admitted

    def test_ulp_scale_overshoot_is_admitted(self):
        c = controller(1)
        t = make_task(0.0, 1.0, [UNIPROCESSOR_APERIODIC_BOUND * (1.0 + 1e-12)])
        assert c.request(t, now=0.0).admitted

    def test_material_overshoot_is_rejected(self):
        c = controller(1)
        t = make_task(0.0, 1.0, [UNIPROCESSOR_APERIODIC_BOUND + 1e-5])
        assert not c.request(t, now=0.0).admitted

    def test_two_stage_surface_task_is_admitted(self):
        from repro.core.bounds import inverse_stage_delay_factor

        c = controller(2)
        u_half = inverse_stage_delay_factor(0.5)
        t = make_task(0.0, 1.0, [u_half, u_half])
        assert pipeline_region_value([u_half, u_half]) == pytest.approx(1.0)
        assert c.request(t, now=0.0).admitted

    def test_second_task_on_shared_surface_is_admitted(self):
        c = controller(1)
        half = UNIPROCESSOR_APERIODIC_BOUND / 2.0
        assert c.request(make_task(0.0, 1.0, [half]), now=0.0).admitted
        assert c.request(make_task(0.0, 1.0, [half]), now=0.0).admitted
        # The region is now exactly full; any material demand bounces.
        assert not c.request(make_task(0.0, 1.0, [0.01]), now=0.0).admitted


class TestSheddingPartialLapse:
    def test_rollback_after_partial_idle_release(self):
        """Rolled-back eviction must restore exactly the pre-eviction
        state — and must not resurrect utilization that the idle-reset
        rule had already released before the shedding attempt."""
        c = controller(2)
        victim = make_task(0.0, 2.0, [0.6, 0.6], importance=0)
        assert c.request(victim, now=0.0).admitted
        # Partial lapse: the victim departs stage 0 and the stage goes
        # idle, releasing 0.3 there; stage 1 still holds 0.3.
        c.notify_subtask_departure(victim.task_id, 0)
        assert c.notify_stage_idle(0) == pytest.approx(0.3)
        assert c.utilizations() == (0.0, 0.3)
        # An unfittable high-importance arrival: contribution 1.0 at
        # stage 0 can never pass the test, so shedding the victim is
        # attempted and then rolled back.
        monster = make_task(0.0, 2.0, [2.0, 0.0], importance=9)
        decision = c.request_with_shedding(monster, now=0.0)
        assert not decision.admitted
        assert decision.shed == ()
        # Exact pre-eviction state: the surviving stage-1 contribution
        # is back bit-for-bit, stage 0 stays released.
        assert c.is_admitted(victim.task_id)
        assert c.trackers[1].contribution_of(victim.task_id) == 0.6 / 2.0
        assert c.trackers[0].contribution_of(victim.task_id) == 0.0
        assert c.utilizations() == (0.0, 0.3)
        # No resurrected utilization: another idle instant at stage 0
        # has nothing to release.
        assert c.notify_stage_idle(0) == 0.0


class TestReusedLiveId:
    """Re-admitting an id that still holds an admission raises and
    changes nothing — through request() and admit_many alike."""

    ENTRY_POINTS = [
        lambda c, task: c.request(task, task.arrival_time),
        lambda c, task: c.admit_many([task]),
    ]

    @pytest.mark.parametrize("admit", ENTRY_POINTS, ids=["request", "admit_many"])
    def test_partially_released_id_is_not_half_installed(self, admit):
        c = controller(2)
        assert c.request(make_task(0.0, 10.0, [0.5, 0.5], task_id=7), 0.0).admitted
        c.notify_subtask_departure(7, 0)
        c.notify_stage_idle(0)
        before = (c.utilizations(), c.iter_admitted(), c.admission_seq)
        assert before[0] == (0.0, 0.05)
        with pytest.raises(ValueError, match="already admitted"):
            admit(c, make_task(1.0, 10.0, [0.5, 0.5], task_id=7))
        assert (c.utilizations(), c.iter_admitted(), c.admission_seq) == before
        # Nothing orphaned: once the record expires, stage 0 holds nothing.
        assert ControllerAuditor(c).audit(10.5) == []
        assert c.utilizations() == (0.0, 0.0)

    @pytest.mark.parametrize("admit", ENTRY_POINTS, ids=["request", "admit_many"])
    def test_locking_id_released_everywhere_is_not_half_installed(self, admit):
        c = controller(2, locking=True)
        res = [ResourceSpec(0, "r", 0.01)]
        task = make_task(0.0, 10.0, [0.5, 0.5], task_id=7, resources=res)
        assert c.request(task, 0.0).admitted
        for stage in range(2):
            c.notify_subtask_departure(7, stage)
            c.notify_stage_idle(stage)
        before = (c.utilizations(), c.iter_admitted(), c.admission_seq, c.betas)
        # The blocking engine still tracks the id until its expiry.
        with pytest.raises(ValueError, match="already admitted"):
            admit(c, make_task(1.0, 20.0, [0.5, 0.5], task_id=7, resources=res))
        assert (c.utilizations(), c.iter_admitted(), c.admission_seq, c.betas) == before
        assert c.admitted_expiry(7) == 10.0
        # The original expiry still lapses the record and its blocking.
        assert ControllerAuditor(c).audit(10.5) == []
        assert c.admitted_count == 0
        assert c.utilizations() == (0.0, 0.0)
        assert c.collides(7, 10.5) is False


class TestStageCapacity:
    def test_validation(self):
        c = controller(1)
        for bad in (-0.1, 1.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                c.set_stage_capacity(0, bad)

    def test_reduced_capacity_inflates_charge(self):
        c = controller(1)
        c.set_stage_capacity(0, 0.5)
        t = make_task(0.0, 10.0, [2.0])
        assert c.request(t, now=0.0).admitted
        # C / (capacity * D) = 2 / (0.5 * 10)
        assert c.utilizations() == pytest.approx((0.4,))

    def test_outage_rejects_everything(self):
        c = controller(1)
        c.set_stage_capacity(0, 0.0)
        assert not c.request(make_task(0.0, 100.0, [0.001]), now=0.0).admitted
        c.set_stage_capacity(0, 1.0)
        assert c.request(make_task(0.0, 100.0, [0.001]), now=0.0).admitted

    def test_nominal_capacity_keeps_exact_charge(self):
        c = controller(1)
        t = make_task(0.0, 7.0, [0.3])
        assert c.request(t, now=0.0).admitted
        # capacity == 1.0 must take the exact C/D path (byte-identity
        # of fault-free runs depends on it), not C/(1.0*D).
        assert c.trackers[0].contribution_of(t.task_id) == 0.3 / 7.0

    def test_capacities_snapshot(self):
        c = controller(3)
        c.set_stage_capacity(1, 0.25)
        assert c.stage_capacities() == (1.0, 0.25, 1.0)
