"""An admit that reuses a live task id is answered ``duplicate-task``.

Installing the same id twice would collide with its live stage charges
(or its blocking-engine entry on a locking pipeline).  The gateway must
refuse such an admit like any other bad request: an error response that
counts in ``errors``, settles its rid and changes no pipeline state, in
plain and batched pipelines alike, and identically when a durable
gateway replays the journaled request on recovery.
"""

import json

from repro.core.task import make_task
from repro.locking import ResourceSpec
from repro.serve.gateway import AdmissionGateway
from repro.serve.journal import encode_record
from repro.serve.protocol import encode, task_to_wire
from repro.serve.recovery import JOURNAL_FILE, recover, registry_fingerprint


def _task(task_id, arrival=0.0, cost=0.1, deadline=5.0, resources=()):
    return make_task(
        arrival_time=arrival,
        deadline=deadline,
        computation_times=[cost, cost],
        resources=resources,
        task_id=task_id,
    )


def _register(request_id, policy):
    return {"id": request_id, "op": "register", "pipeline": "p", "policy": policy}


def _admit(request_id, task, rid=None):
    doc = {"id": request_id, "op": "admit", "pipeline": "p", "task": task_to_wire(task)}
    if rid is not None:
        doc["rid"] = rid
    return doc


def _send(gateway, doc):
    return [json.loads(line) for _origin, line in gateway.handle_line(encode(doc))]


def _state(gateway):
    """Every pipeline's fingerprinted state except its clock, which each
    admit's timestamp advances on arrival, refused or not."""
    pipelines = json.loads(registry_fingerprint(gateway))["pipelines"]
    for pipeline in pipelines:
        del pipeline["clock"]
    return pipelines


def _is_duplicate(response, request_id):
    return (
        response["id"] == request_id
        and response["ok"] is False
        and response["error"] == "duplicate-task"
    )


class TestPlainPipeline:
    def test_second_admit_of_a_live_id_is_refused_without_mutation(self):
        gateway = AdmissionGateway()
        _send(gateway, _register(1, {"num_stages": 2}))
        [first] = _send(gateway, _admit(2, _task(13), rid="a"))
        assert first["admitted"] is True
        before = _state(gateway)
        [second] = _send(gateway, _admit(3, _task(13, arrival=0.5), rid="b"))
        assert _is_duplicate(second, 3)
        assert gateway.errors == 1
        # The refusal is settled like any answer: a retry of its rid
        # replays it, and only the dedup window moved.
        [retry] = _send(gateway, _admit(4, _task(13, arrival=0.5), rid="b"))
        assert _is_duplicate(retry, 4)
        assert gateway.dedup_hits == 1
        assert _state(gateway) == before
        dedup = json.loads(registry_fingerprint(gateway))["dedup"]
        assert [rid for rid, _line in dedup["decided"]] == ["a", "b"]

    def test_id_still_charged_at_a_later_stage_is_a_duplicate(self):
        """Released at stage 0 by an idle reset, still charged at stage 1:
        the refusal must not re-add the stage-0 charge first."""
        gateway = AdmissionGateway()
        _send(gateway, _register(1, {"num_stages": 2}))
        _send(gateway, _admit(2, _task(13)))
        _send(gateway, {"id": 3, "op": "depart", "pipeline": "p", "task_id": 13, "stage": 0})
        [idle] = _send(gateway, {"id": 4, "op": "idle", "pipeline": "p", "stage": 0})
        assert idle["released"] > 0.0
        before = _state(gateway)
        [again] = _send(gateway, _admit(5, _task(13, arrival=0.5)))
        assert _is_duplicate(again, 5)
        assert _state(gateway) == before
        utilizations = gateway.registry.get("p").controller.utilizations()
        assert utilizations[0] == 0.0

    def test_id_with_every_charge_released_is_admitted_again(self):
        gateway = AdmissionGateway()
        _send(gateway, _register(1, {"num_stages": 2}))
        _send(gateway, _admit(2, _task(13)))
        for request_id, stage in ((3, 0), (4, 1)):
            _send(gateway, {"id": request_id, "op": "depart", "pipeline": "p",
                            "task_id": 13, "stage": stage})
            _send(gateway, {"id": request_id + 10, "op": "idle", "pipeline": "p",
                            "stage": stage})
        [again] = _send(gateway, _admit(5, _task(13, arrival=0.5)))
        assert again["ok"] is True and again["admitted"] is True
        assert gateway.errors == 0

    def test_locking_pipeline_keeps_its_blocking_state(self):
        gateway = AdmissionGateway()
        _send(gateway, _register(1, {"num_stages": 2, "locking": True}))
        sections = [ResourceSpec(0, "r", 0.05)]
        _send(gateway, _admit(2, _task(12, deadline=1.0, resources=[ResourceSpec(0, "r", 0.0)])))
        _send(gateway, _admit(3, _task(13, resources=sections)))
        controller = gateway.registry.get("p").controller
        before = (controller.betas, _state(gateway))
        [again] = _send(gateway, _admit(4, _task(13, arrival=0.5, resources=sections)))
        assert _is_duplicate(again, 4)
        assert (controller.betas, _state(gateway)) == before
        assert controller.betas == controller._blocking.recompute()


class TestBatchedPipeline:
    def _responses(self, policy, docs):
        gateway = AdmissionGateway()
        _send(gateway, _register(1, policy))
        out = []
        for doc in docs:
            out.extend(_send(gateway, doc))
        out.extend(json.loads(line) for _origin, line in gateway.drain())
        return out, gateway

    def test_batch_answers_in_place_and_the_rest_match_sequential(self):
        docs = [
            _admit(2, _task(13)),
            _admit(3, _task(14, arrival=0.1)),
            _admit(4, _task(13, arrival=0.2)),
            _admit(5, _task(15, arrival=0.3)),
            # Rejected first, so the same id's next admit is decided.
            _admit(6, _task(16, arrival=0.4, cost=9.0)),
            _admit(7, _task(16, arrival=0.5)),
        ]
        sequential, _ = self._responses({"num_stages": 2}, docs)
        batched, gateway = self._responses({"num_stages": 2, "max_batch": 4}, docs)
        assert batched == sequential
        assert [r["id"] for r in batched if r["ok"] is False] == [4]
        assert gateway.errors == 1
        counters = gateway.registry.get("p").counters
        assert (counters.offered, counters.admitted) == (5, 4)

    def test_an_id_reused_after_its_expiry_is_decided(self):
        docs = [
            _admit(2, _task(13, deadline=1.0)),
            _admit(3, _task(14, arrival=0.1)),
            _admit(4, _task(13, arrival=2.0)),
        ]
        sequential, _ = self._responses({"num_stages": 2}, docs)
        batched, gateway = self._responses({"num_stages": 2, "max_batch": 8}, docs)
        assert batched == sequential
        assert all(r["admitted"] is True for r in batched)
        assert gateway.errors == 0


class TestDurableRecovery:
    def test_journaled_duplicate_replays_to_the_same_answer(self, tmp_path):
        durable, _ = recover(tmp_path)
        _send(durable, _register(1, {"num_stages": 2, "max_batch": 4}))
        _send(durable, _admit(2, _task(13), rid="a"))
        _send(durable, _admit(3, _task(13, arrival=0.1), rid="b"))
        [first, second] = [json.loads(line) for _o, line in durable.drain()]
        assert first["admitted"] is True
        assert _is_duplicate(second, 3)
        before = registry_fingerprint(durable)
        durable.close()

        recovered, report = recover(tmp_path)
        assert report.replayed >= 3
        assert registry_fingerprint(recovered) == before
        [retry] = _send(recovered, _admit(9, _task(13, arrival=0.1), rid="b"))
        assert _is_duplicate(retry, 9)
        recovered.close()

    def test_state_dir_already_holding_a_duplicate_record(self, tmp_path):
        """A journal that ends with a duplicate admit, as a gateway that
        raised on it would have left behind, recovers."""
        records = [
            _register(1, {"num_stages": 2}),
            _admit(2, _task(13), rid="a"),
            _admit(3, _task(13, arrival=0.1), rid="b"),
        ]
        (tmp_path / JOURNAL_FILE).write_text(
            "".join(encode_record(op, seq) + "\n" for seq, op in enumerate(records, 1)),
            encoding="utf-8",
        )
        recovered, report = recover(tmp_path)
        assert report.replayed == 3
        controller = recovered.registry.get("p").controller
        assert controller.admitted_count == 1
        [retry] = _send(recovered, _admit(4, _task(13, arrival=0.1), rid="b"))
        assert _is_duplicate(retry, 4)
        recovered.close()
