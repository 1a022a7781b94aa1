"""Serve-layer degradation: manager, wire ops, snapshots, chaos gates.

ISSUE-9 tentpole coverage above the controller: the
:class:`~repro.serve.degradation.DegradationManager` (signal ingestion
with hysteresis, transactional rescale + sacrifice, replayable ledger),
the ``set_capacity`` / ``report`` protocol operations (validation,
idempotence, journaled recovery), degradation state riding the pipeline
snapshot, and small-cycle runs of the dedicated chaos gates.
"""

import json

import pytest

from repro.core.admission import PipelineAdmissionController
from repro.core.task import make_task
from repro.faults.degradation import CapacityHysteresis
from repro.serve.client import GatewayClient, GatewayError, InProcessTransport
from repro.serve.chaos import chaos_gate_failures, run_chaos
from repro.serve.degradation import (
    OBSERVATION_KINDS,
    SACRIFICE_LEDGER_LIMIT,
    DegradationManager,
    hysteresis_from_wire,
    hysteresis_to_wire,
)
from repro.serve.gateway import AdmissionGateway
from repro.serve.recovery import recover, registry_fingerprint

#: Two confirmations on a 0.1 grid: drops and restores both take two
#: agreeing samples, so each test can step the hysteresis explicitly.
HYSTERESIS = {
    "confirm_drops": 2,
    "confirm_restores": 2,
    "quantum": 0.1,
    "floor": 0.2,
}
POLICY = {"num_stages": 2, "alpha": 0.9, "degradation": HYSTERESIS}


def _task(task_id, costs, deadline=1.0, importance=0):
    return make_task(
        arrival_time=0.0,
        deadline=deadline,
        computation_times=costs,
        importance=importance,
        task_id=task_id,
    )


def _manager(num_stages=2):
    return DegradationManager(num_stages, hysteresis_from_wire(HYSTERESIS))


def _controller(num_stages=2):
    controller = PipelineAdmissionController(num_stages, alpha=0.9)
    assert controller.request(
        _task(1, [0.1] * num_stages, deadline=2.0, importance=1), now=0.0
    ).admitted
    assert controller.request(
        _task(2, [0.1] * num_stages, deadline=2.0), now=0.0
    ).admitted
    return controller


class TestHysteresisWire:
    def test_none_selects_defaults(self):
        assert hysteresis_from_wire(None) == CapacityHysteresis()

    def test_round_trip_is_canonical(self):
        config = hysteresis_from_wire(HYSTERESIS)
        assert hysteresis_to_wire(config) == HYSTERESIS
        assert hysteresis_from_wire(hysteresis_to_wire(config)) == config

    def test_partial_documents_inherit_defaults(self):
        config = hysteresis_from_wire({"confirm_drops": 5})
        assert config.confirm_drops == 5
        assert config.quantum == CapacityHysteresis().quantum

    @pytest.mark.parametrize(
        "doc",
        [
            "not-an-object",
            {"confirm_drop": 2},  # typo must not silently default
            {"confirm_drops": 0},
            {"quantum": 0.0},
            {"floor": -0.5},
        ],
    )
    def test_malformed_documents_are_rejected(self, doc):
        with pytest.raises(ValueError):
            hysteresis_from_wire(doc)


class TestDegradationManager:
    def test_observation_kinds_are_the_wire_contract(self):
        assert OBSERVATION_KINDS == ("overrun", "slowdown", "ok")

    def test_single_blip_never_moves_the_estimate(self):
        manager, controller = _manager(), _controller()
        result = manager.observe(controller, 0, "slowdown", 0.5)
        assert result == {"confirmed": False, "capacity": 1.0, "sacrificed": []}
        assert controller.stage_capacities() == (1.0, 1.0)

    def test_agreeing_samples_confirm_and_rescale(self):
        manager, controller = _manager(), _controller()
        before = {t[0]: t[1] for t in controller.iter_admitted()}
        manager.observe(controller, 0, "slowdown", 0.5)
        result = manager.observe(controller, 0, "slowdown", 0.5)
        assert result["confirmed"] is True
        assert result["capacity"] == 0.5
        assert controller.stage_capacities() == (0.5, 1.0)
        after = {t[0]: t[1] for t in controller.iter_admitted()}
        for task_id in before:
            assert after[task_id][0] == before[task_id][0] * 2.0

    def test_overrun_ratio_is_reciprocal_capacity(self):
        manager, controller = _manager(), _controller()
        # Service twice as slow as nominal == capacity one half.
        manager.observe(controller, 1, "overrun", 2.0)
        result = manager.observe(controller, 1, "overrun", 2.0)
        assert result["confirmed"] is True
        assert result["capacity"] == 0.5

    def test_ok_probes_confirm_the_restore(self):
        manager, controller = _manager(), _controller()
        manager.observe(controller, 0, "slowdown", 0.5)
        manager.observe(controller, 0, "slowdown", 0.5)
        manager.observe(controller, 0, "ok")
        result = manager.observe(controller, 0, "ok")
        assert result["confirmed"] is True
        assert result["capacity"] == 1.0
        assert controller.stage_capacities() == (1.0, 1.0)

    @pytest.mark.parametrize(
        "kind,ratio",
        [
            ("meltdown", 2.0),  # unknown kind
            ("slowdown", None),  # missing ratio
            ("overrun", 0.0),  # non-positive ratio
            ("slowdown", -1.0),
        ],
    )
    def test_bad_observations_are_rejected(self, kind, ratio):
        manager, controller = _manager(), _controller()
        with pytest.raises(ValueError):
            manager.observe(controller, 0, kind, ratio)

    def test_out_of_range_stage_is_rejected(self):
        manager, controller = _manager(), _controller()
        with pytest.raises(ValueError):
            manager.observe(controller, 7, "ok")

    def test_apply_capacity_records_sacrifices_in_the_ledger(self):
        manager = _manager(1)
        controller = PipelineAdmissionController(1, alpha=0.9)
        assert controller.request(
            _task(1, [0.25], deadline=2.0, importance=1), now=0.0
        ).admitted
        assert controller.request(_task(2, [0.25], deadline=2.0), now=0.0).admitted
        summary = manager.apply_capacity(controller, 0, 0.4)
        assert summary["sacrificed"] == [2]  # importance 0 falls first
        assert controller.is_admitted(1)
        assert controller.region_ok()
        assert manager.sacrifices() == [
            {"stage": 0, "capacity": 0.4, "sacrificed": [2]}
        ]
        assert manager.stats_doc()["ledger_entries"] == 1
        # A sacrifice-free restore adds no ledger noise.
        assert manager.apply_capacity(controller, 0, 1.0)["sacrificed"] == []
        assert manager.stats_doc()["ledger_entries"] == 1

    def test_declared_level_anchors_subsequent_reports(self):
        manager, controller = _manager(), _controller()
        manager.apply_capacity(controller, 0, 0.5)
        # Reports agreeing with the declared level are not "changes".
        assert manager.observe(controller, 0, "slowdown", 0.5)["confirmed"] is False
        assert manager.observe(controller, 0, "slowdown", 0.5)["confirmed"] is False
        assert controller.stage_capacities() == (0.5, 1.0)

    def test_state_round_trips_bitwise(self):
        manager = _manager(1)
        controller = PipelineAdmissionController(1, alpha=0.9)
        assert controller.request(
            _task(1, [0.25], deadline=2.0, importance=1), now=0.0
        ).admitted
        assert controller.request(_task(2, [0.25], deadline=2.0), now=0.0).admitted
        manager.apply_capacity(controller, 0, 0.4)  # sacrifices task 2
        manager.observe(controller, 0, "ok")  # half-confirmed restore
        assert manager.sacrifices()  # the ledger rides along
        twin = _manager(1)
        twin.load_state(manager.state_doc())
        assert twin.fingerprint_doc() == manager.fingerprint_doc()
        assert json.dumps(twin.state_doc(), sort_keys=True) == json.dumps(
            manager.state_doc(), sort_keys=True
        )

    @pytest.mark.parametrize(
        "doc",
        [
            "nope",
            {"ledger": "nope"},
            {"ledger": ["nope"]},
            {"ledger": [{"stage": 0}]},  # missing fields
        ],
    )
    def test_malformed_state_is_rejected(self, doc):
        with pytest.raises(ValueError):
            _manager().load_state(doc)

    def test_loaded_ledger_is_bounded(self):
        manager = _manager()
        oversized = [
            {"stage": 0, "capacity": 0.5, "sacrificed": [n]}
            for n in range(SACRIFICE_LEDGER_LIMIT + 10)
        ]
        manager.load_state(
            {"estimator": manager.estimator.state_doc(), "ledger": oversized}
        )
        ledger = manager.sacrifices()
        assert len(ledger) == SACRIFICE_LEDGER_LIMIT
        assert ledger[-1]["sacrificed"] == [SACRIFICE_LEDGER_LIMIT + 9]


def _client(gateway=None):
    return GatewayClient(InProcessTransport(gateway or AdmissionGateway()))


class TestWireOps:
    def test_set_capacity_rescales_and_reports_sacrifices(self):
        client = _client()
        client.register("web", POLICY)
        client.admit("web", _task(1, [0.25, 0.1], deadline=2.0, importance=1))
        client.admit("web", _task(2, [0.25, 0.1], deadline=2.0))
        response = client.call(
            "set_capacity", pipeline="web", stage=0, capacity=0.4
        )
        assert response["capacities"] == [0.4, 1.0]
        assert response["sacrificed"] == [2]
        assert response["region_value"] >= 0.0
        stats = client.stats("web")["stats"]["web"]
        assert stats["counters"]["rescales"] == 1
        assert stats["counters"]["sacrificed"] == 1
        assert stats["degradation"]["estimated_capacities"] == [0.4, 1.0]
        assert stats["degradation"]["ledger_entries"] == 1

    def test_report_follows_the_hysteresis(self):
        client = _client()
        client.register("web", POLICY)
        first = client.call(
            "report", pipeline="web", stage=1, kind="slowdown", ratio=0.5
        )
        assert first["confirmed"] is False
        assert first["capacity"] == 1.0
        second = client.call(
            "report", pipeline="web", stage=1, kind="slowdown", ratio=0.5
        )
        assert second["confirmed"] is True
        assert second["capacity"] == 0.5
        stats = client.stats("web")["stats"]["web"]
        assert stats["capacities"] == [1.0, 0.5]
        assert stats["counters"]["rescales"] == 1
        assert stats["degradation"]["confirmed_drops"] == 1

    def test_operand_validation(self):
        client = _client()
        client.register("web", POLICY)
        with pytest.raises(GatewayError) as excinfo:
            client.call("set_capacity", pipeline="web", stage=0)
        assert excinfo.value.code == "bad-request"
        with pytest.raises(GatewayError) as excinfo:
            client.call("set_capacity", pipeline="web", stage=0, capacity=1.5)
        assert excinfo.value.code == "bad-capacity"
        with pytest.raises(GatewayError) as excinfo:
            client.call("set_capacity", pipeline="web", stage=9, capacity=0.5)
        assert excinfo.value.code == "bad-stage"
        with pytest.raises(GatewayError) as excinfo:
            client.call("report", pipeline="web", stage=0, kind="meltdown")
        assert excinfo.value.code == "bad-report"
        with pytest.raises(GatewayError) as excinfo:
            client.call("report", pipeline="web", stage=0, kind="slowdown")
        assert excinfo.value.code == "bad-report"

    def test_failed_validation_mutates_nothing(self):
        client = _client()
        client.register("web", POLICY)
        for kwargs in (
            {"op": "set_capacity", "stage": 0, "capacity": 2.0},
            {"op": "report", "stage": 0, "kind": "meltdown"},
        ):
            op = kwargs.pop("op")
            with pytest.raises(GatewayError):
                client.call(op, pipeline="web", **kwargs)
        stats = client.stats("web")["stats"]["web"]
        assert stats["capacities"] == [1.0, 1.0]
        assert stats["counters"]["rescales"] == 0

    def test_set_capacity_is_idempotent_under_rid_replay(self):
        gateway = AdmissionGateway()
        client = _client(gateway)
        client.register("web", POLICY)
        first = client.call(
            "set_capacity", rid="cap-1", pipeline="web", stage=0, capacity=0.5
        )
        replay = client.call(
            "set_capacity", rid="cap-1", pipeline="web", stage=0, capacity=0.5
        )
        assert gateway.dedup_hits == 1
        assert replay["capacities"] == first["capacities"]
        stats = client.stats("web")["stats"]["web"]
        assert stats["counters"]["rescales"] == 1  # applied exactly once

    def test_prospective_capacity_op_is_unchanged(self):
        client = _client()
        client.register("web", POLICY)
        client.admit("web", _task(1, [0.1, 0.1], deadline=2.0))
        before = client.stats("web")["stats"]["web"]["region_value"]
        response = client.call("capacity", pipeline="web", stage=0, capacity=0.5)
        assert response["capacities"] == [0.5, 1.0]
        stats = client.stats("web")["stats"]["web"]
        # Prospective: no re-charge, no rescale counter, no sacrifice.
        assert stats["region_value"] == before
        assert stats["counters"]["rescales"] == 0


class TestJournaledRecovery:
    def test_degradation_ops_replay_bitwise(self, tmp_path):
        durable, _ = recover(tmp_path)
        durable.handle_line(json.dumps({
            "id": 0, "op": "register", "pipeline": "web", "policy": POLICY,
        }))
        durable.handle_line(json.dumps({
            "id": 1, "op": "admit", "pipeline": "web",
            "task": {"task_id": 1, "arrival": 0.0, "deadline": 2.0,
                     "costs": [0.25, 0.1], "importance": 1},
        }))
        durable.handle_line(json.dumps({
            "id": 2, "op": "admit", "pipeline": "web",
            "task": {"task_id": 2, "arrival": 0.0, "deadline": 2.0,
                     "costs": [0.25, 0.1]},
        }))
        durable.handle_line(json.dumps({
            "id": 3, "op": "set_capacity", "pipeline": "web",
            "stage": 0, "capacity": 0.4,
        }))
        durable.handle_line(json.dumps({
            "id": 4, "op": "report", "pipeline": "web",
            "stage": 1, "kind": "slowdown", "ratio": 0.5,
        }))
        # SIGKILL-equivalent: close the journal, no drain.
        durable.journal.close()
        fingerprint = registry_fingerprint(durable)
        fingerprinted = json.loads(fingerprint)["pipelines"][0]["degradation"]
        assert fingerprinted["ledger"]  # the sacrifice rides the fingerprint
        recovered, report = recover(tmp_path)
        try:
            assert report.replayed >= 5
            assert registry_fingerprint(recovered) == fingerprint
        finally:
            recovered.close()


class TestSnapshotCarriesDegradation:
    def _degraded_gateway(self):
        client = _client()
        client.register("web", POLICY)
        client.admit("web", _task(1, [0.25, 0.1], deadline=2.0, importance=1))
        client.admit("web", _task(2, [0.25, 0.1], deadline=2.0))
        client.call("set_capacity", pipeline="web", stage=0, capacity=0.4)
        client.call("report", pipeline="web", stage=1, kind="slowdown", ratio=0.5)
        return client

    def test_snapshot_restore_round_trips_degradation_state(self):
        source = self._degraded_gateway()
        snapshot = source.call("snapshot", pipeline="web")["snapshot"]
        assert snapshot["degradation"]["ledger"] == [
            {"stage": 0, "capacity": 0.4, "sacrificed": [2]}
        ]
        target = _client()
        target.call("restore", pipeline="web", snapshot=snapshot)
        assert (
            target.stats("web")["stats"]["web"]["degradation"]
            == source.stats("web")["stats"]["web"]["degradation"]
        )
        assert target.call("snapshot", pipeline="web")["snapshot"] == snapshot

    def test_pre_degradation_snapshot_restores_with_fresh_state(self):
        source = self._degraded_gateway()
        snapshot = source.call("snapshot", pipeline="web")["snapshot"]
        legacy = {k: v for k, v in snapshot.items() if k != "degradation"}
        target = _client()
        target.call("restore", pipeline="web", snapshot=legacy)
        degradation = target.stats("web")["stats"]["web"]["degradation"]
        # No degradation history — but the estimator is alive and sized.
        assert degradation["ledger_entries"] == 0
        assert degradation["confirmed_drops"] == 0
        assert degradation["estimated_capacities"] == [1.0, 1.0]


class TestChaosGates:
    def test_degradation_chaos_gate_holds_and_is_byte_stable(self, tmp_path):
        report = run_chaos(
            "degradation", seed=5, cycles=6, ops_per_cycle=12,
            state_dir=tmp_path / "a", snapshot_every=10,
        )
        assert chaos_gate_failures(report, min_recoveries=6) == []
        again = run_chaos(
            "degradation", seed=5, cycles=6, ops_per_cycle=12,
            state_dir=tmp_path / "b", snapshot_every=10,
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_fleet_chaos_with_degradation_waves(self, tmp_path):
        report = run_chaos(
            "fleet", seed=2, cycles=6, workers=2, ops_per_cycle=10,
            state_dir=tmp_path, degradation=True,
        )
        assert chaos_gate_failures(report, min_recoveries=4) == []
        assert report["degradation"]["ops"] > 0
        assert report["degradation"]["rescales"] > 0
