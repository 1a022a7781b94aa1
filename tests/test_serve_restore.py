"""The one restore path: legacy upgrades, copy audits, malformed input.

Legacy controller snapshots under ``tests/data/snapshots/`` are pinned
against the bytes the per-version restore code produced before the
upgrade chain replaced it (``<name>.restored.json`` next to each
``<name>.json``): the first v1 writer's shape (no ``sums``), v1 with
rounded ``sums``, v2, v3 plain and locking, and a v3-tagged document
that still carries ``seq``/``demand`` on most records.

The rest drives the gateway: one-field mutations of valid pipeline
snapshots and policies must each get an answer without raising, an
accepted restore must stay snapshottable and fingerprintable, a
malformed request must not stop a durable state directory from
recovering, and ``restore`` must rebuild the snapshotted pipeline
bitwise.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.serve.gateway import AdmissionGateway
from repro.serve.protocol import encode
from repro.serve.recovery import recover, registry_fingerprint
from repro.serve.snapshot import (
    SNAPSHOT_FORMAT,
    controller_snapshot,
    restore_controller,
    upgrade_snapshot,
    verify_restored,
)

FIXTURES = Path(__file__).parent / "data" / "snapshots"
LEGACY = sorted(
    path.name[: -len(".json")]
    for path in FIXTURES.glob("*.json")
    if not path.name.endswith(".restored.json")
)


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _legacy(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


class TestLegacyFixtures:
    def test_every_legacy_shape_is_pinned(self):
        assert LEGACY == [
            "v1-first-writer",
            "v1-sums",
            "v2",
            "v3",
            "v3-locking",
            "v3-with-seq-demand",
        ]

    @pytest.mark.parametrize("name", LEGACY)
    def test_restore_matches_pinned_bytes(self, name):
        restored = restore_controller(_legacy(name))
        pinned = (FIXTURES / f"{name}.restored.json").read_text()
        assert _canonical(controller_snapshot(restored)) == pinned

    @pytest.mark.parametrize("name", LEGACY)
    def test_upgrade_leaves_its_input_unmodified(self, name):
        doc = _legacy(name)
        before = copy.deepcopy(doc)
        upgraded = upgrade_snapshot(doc)
        assert doc == before
        assert upgraded["format"] == SNAPSHOT_FORMAT

    @pytest.mark.parametrize("name", LEGACY)
    def test_upgrade_returns_current_documents_unchanged(self, name):
        current = controller_snapshot(restore_controller(_legacy(name)))
        before = copy.deepcopy(current)
        assert upgrade_snapshot(current) is current
        assert current == before

    def test_first_writer_accumulators_are_the_exact_live_sums(self):
        restored = restore_controller(_legacy("v1-first-writer"))
        for tracker in restored.trackers:
            assert tracker.audit_sums()[0] == tracker.fsum_contributions()

    def test_rounded_v1_sums_are_carried_forward(self):
        doc = _legacy("v1-sums")
        restored = restore_controller(doc)
        sums = [tracker.audit_sums()[0] for tracker in restored.trackers]
        assert sums == doc["sums"]
        # The fixture's rounded sums are not all the exact ones.
        assert sums != [t.fsum_contributions() for t in restored.trackers]

    def test_carried_seqs_are_kept_and_missing_ones_numbered_after(self):
        doc = _legacy("v3-with-seq-demand")
        upgraded = upgrade_snapshot(doc)
        seqs = [record["seq"] for record in upgraded["admitted"]]
        counter = 0
        for record, seq in zip(doc["admitted"], seqs):
            counter = record["seq"] if "seq" in record else counter + 1
            assert seq == counter
        assert upgraded["admission_seq"] == max(seqs)
        assert [r["demand"] for r in upgraded["admitted"]] == [
            r["demand"] for r in doc["admitted"]
        ]


# ----------------------------------------------------------------------
# Gateway helpers
# ----------------------------------------------------------------------


def _send(gateway, **doc):
    return [json.loads(line) for _, line in gateway.handle_line(encode(doc))]


def _task(task_id, arrival, deadline, costs, **extra):
    return dict(
        task_id=task_id, arrival=arrival, deadline=deadline, costs=costs, **extra
    )


def _pipeline_snapshot(locking):
    """A served 2-stage pipeline after admits, departures, an idle reset
    and an authoritative ``set_capacity`` — every snapshot field in use."""
    gateway = AdmissionGateway()
    policy = {"num_stages": 2, "alpha": 0.9}
    if locking:
        policy["locking"] = True
    else:
        policy.update(betas=[0.01, 0.02], demand={"kind": "scaled", "factor": 1.1})
    assert _send(gateway, op="register", pipeline="p", policy=policy)[0]["ok"]
    for i in range(6):
        task = _task(i + 1, 0.1 * i, 2.0 + i, [0.05, 0.04 + 0.01 * i])
        if locking and i % 2 == 0:
            task["resources"] = [
                {"stage": i % 2, "resource": "r", "max_length": 0.01 * (i + 1)}
            ]
        assert _send(gateway, op="admit", pipeline="p", task=task)[0]["admitted"]
    for op in (
        dict(op="depart", task_id=1, stage=0),
        dict(op="depart", task_id=2, stage=0),
        dict(op="idle", stage=0),
        dict(op="depart", task_id=3, stage=0),
        dict(op="set_capacity", stage=1, capacity=0.5),
    ):
        assert _send(gateway, pipeline="p", **op)[-1]["ok"]
    return _send(gateway, op="snapshot", pipeline="p")[-1]["snapshot"]


#: What a mutated field is replaced with (plus deleting it).
REPLACEMENTS = (None, True, -1, 0, 0.5, 1e308, "x", [], {}, [1.0, 1.0, 0.5])
_DELETE = object()

#: Requests sent to a pipeline after it was accepted.
FOLLOW_UP = (
    dict(op="stats"),
    dict(op="admit", task=_task(99, 50.0, 1.0, [0.01, 0.01])),
    dict(op="admit", task=_task(98, 50.0, 1.0, [0.01])),
    dict(op="depart", task_id=4, stage=0),
    dict(op="idle", stage=0),
    dict(op="capacity", stage=1, capacity=0.75),
    dict(op="set_capacity", stage=0, capacity=0.5),
    dict(op="report", stage=1, kind="ok"),
    dict(op="resync", now=60.0, frontier={"5": 1}),
    dict(op="expire", now=100.0),
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


def _mutations(doc):
    """Every one-field mutation of ``doc``, in a fixed order."""
    for path in list(_paths(doc))[1:]:
        for value in REPLACEMENTS + (_DELETE,):
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, mutated


def _exercise(gateway, name):
    """Follow-up traffic on an accepted pipeline; each must be answered."""
    for n, op in enumerate(FOLLOW_UP):
        responses = _send(gateway, id=n, pipeline=name, **op)
        assert responses or op["op"] == "admit"
    snapshot = _send(gateway, op="snapshot", pipeline=name)[-1]
    assert snapshot["ok"], snapshot
    registry_fingerprint(gateway)


class TestMalformedInput:
    @pytest.mark.parametrize("locking", [False, True], ids=["plain", "locking"])
    def test_every_one_field_restore_mutation_is_answered(self, locking):
        snapshot = _pipeline_snapshot(locking)
        accepted = refused = 0
        for path, mutated in _mutations(snapshot):
            gateway = AdmissionGateway()
            responses = _send(
                gateway, id=1, op="restore", pipeline="q", snapshot=mutated
            )
            assert len(responses) == 1, path
            if not responses[0]["ok"]:
                refused += 1
                continue
            accepted += 1
            registry_fingerprint(gateway)
            _exercise(gateway, "q")
        # Non-vacuous both ways: plenty of mutations are harmless
        # (counters, clock, importance) and plenty are refused.
        assert accepted > 100 and refused > 100

    @pytest.mark.parametrize(
        "policy",
        [
            {
                "num_stages": 2, "alpha": 0.9, "betas": [0.01, 0.02],
                "reserved": [0.0, 0.1], "demand": {"kind": "scaled", "factor": 1.1},
                "max_batch": 4, "degradation": {},
            },
            {
                "num_stages": 2, "locking": True, "shedding": True,
                "demand": {"kind": "mean", "means": [0.1, 0.2]},
            },
        ],
        ids=["plain", "locking"],
    )
    def test_every_one_field_policy_mutation_is_answered(self, policy):
        for path, mutated in _mutations(policy):
            gateway = AdmissionGateway()
            responses = _send(
                gateway, id=1, op="register", pipeline="q", policy=mutated
            )
            assert len(responses) == 1, path
            if responses[0]["ok"]:
                _exercise(gateway, "q")

    @pytest.mark.parametrize(
        "policy, detail",
        [
            ({"num_stages": 2, "demand": "exact"}, "JSON object"),
            ({"num_stages": 2, "demand": []}, "JSON object"),
            ({"num_stages": 2, "demand": {"kind": "scaled"}}, "factor"),
            ({"num_stages": 1e308}, ""),
            ({"num_stages": 2, "demand": {"kind": "mean", "means": [0.1]}}, "mean"),
        ],
    )
    def test_bad_policy_is_refused(self, policy, detail):
        response = _send(
            AdmissionGateway(), op="register", pipeline="q", policy=policy
        )[0]
        assert response["error"] == "bad-policy"
        assert detail in response["detail"]

    def test_task_of_the_wrong_length_is_refused_before_batching(self):
        gateway = AdmissionGateway()
        policy = {"num_stages": 2, "max_batch": 2}
        _send(gateway, op="register", pipeline="q", policy=policy)
        short = _send(
            gateway, op="admit", pipeline="q", task=_task(1, 0.0, 1.0, [0.1])
        )
        assert short[0]["error"] == "bad-task"
        assert gateway.registry.get("q").pending == 0


def _restore_case(mutate):
    snapshot = _pipeline_snapshot(locking=False)
    mutate(snapshot["controller"])
    return {"op": "restore", "pipeline": "q", "snapshot": snapshot}


def _set(key, value):
    def mutate(controller):
        controller[key] = value
    return mutate


def _set_record(key, value):
    def mutate(controller):
        controller["admitted"][0][key] = value
    return mutate


#: Requests that raised out of ``handle_line`` before the loader and
#: policy checks — and, journaled first, on every recovery after.
POISON = {
    "demand-string": {"op": "register", "pipeline": "q",
                      "policy": {"num_stages": 2, "demand": "exact"}},
    "demand-list": {"op": "register", "pipeline": "q",
                    "policy": {"num_stages": 2, "demand": []}},
    "huge-stages": {"op": "register", "pipeline": "q",
                    "policy": {"num_stages": 1e308}},
    "capacities": _restore_case(_set("capacities", [1.0, 1.0, 0.5])),
    "task-id-string": _restore_case(_set_record("task_id", "seven")),
    "task-id-null": _restore_case(_set_record("task_id", None)),
    "admitted-string": _restore_case(_set("admitted", "x")),
    "demand-zero-deadline": _restore_case(_set_record("deadline", 0)),
    "short-task": {"op": "admit", "pipeline": "p",
                   "task": _task(1, 0.0, 1.0, [0.1])},
}


class TestPoisonRequests:
    @pytest.mark.parametrize("case", sorted(POISON))
    def test_durable_state_recovers_and_replays_the_error(self, tmp_path, case):
        durable, _ = recover(tmp_path)
        _send(durable, op="register", pipeline="p", policy={"num_stages": 2})
        request = dict(POISON[case], id=7, rid="poison")
        first = durable.handle_line(encode(request))
        assert len(first) == 1 and json.loads(first[0][1])["ok"] is False
        fingerprint = registry_fingerprint(durable)
        durable.close()

        recovered, report = recover(tmp_path)
        assert report.replayed == 2
        assert registry_fingerprint(recovered) == fingerprint
        # The retry is answered from the recovered dedup window.
        assert recovered.handle_line(encode(request)) == first
        recovered.close()


class TestBitwiseRestore:
    def test_restore_does_not_sweep_what_it_audits(self):
        """An expired-but-unswept charge survives snapshot and restore.

        The refused duplicate admit moves the clock past task 1's
        deadline without running an expiry; the restore's audit must
        not run that expiry on the restored pipeline either.
        """
        gateway = AdmissionGateway()
        _send(gateway, op="register", pipeline="p", policy={"num_stages": 2})
        for task in (
            _task(1, 0.0, 1.0, [0.1, 0.1]),
            _task(2, 0.2, 5.0, [0.1, 0.1]),
        ):
            assert _send(gateway, op="admit", pipeline="p", task=task)[0]["admitted"]
        refused = _send(
            gateway, op="admit", pipeline="p", task=_task(2, 1.5, 5.0, [0.1, 0.1])
        )
        assert refused[0]["error"] == "duplicate-task"
        snapshot = _send(gateway, op="snapshot", pipeline="p")[0]["snapshot"]
        assert _send(gateway, op="restore", pipeline="q", snapshot=snapshot)[0]["ok"]

        stats = _send(gateway, op="stats")[0]["stats"]
        for key in ("admitted_live", "utilizations", "region_value"):
            assert stats["q"][key] == stats["p"][key], key
        assert stats["q"]["admitted_live"] == 2
        state = json.loads(registry_fingerprint(gateway))["pipelines"]
        assert state[1]["controller"] == state[0]["controller"]
        for name in ("p", "q"):
            _send(gateway, op="depart", pipeline=name, task_id=1, stage=0)
        released = [
            _send(gateway, op="idle", pipeline=name, stage=0)[0]["released"]
            for name in ("p", "q")
        ]
        assert released[0] == released[1] == 0.1

    def test_verify_restored_leaves_the_controller_unchanged(self):
        restored = restore_controller(_legacy("v3"))
        before = controller_snapshot(restored)
        verify_restored(restored, 1e9)
        assert controller_snapshot(restored) == before

    def test_snapshot_roundtrip_is_stable_with_unswept_charges(self):
        from repro.serve.loadgen import snapshot_roundtrip

        gateway = AdmissionGateway()
        _send(gateway, op="register", pipeline="p", policy={"num_stages": 2})
        _send(gateway, op="admit", pipeline="p", task=_task(1, 0.0, 1.0, [0.1, 0.1]))
        _send(gateway, op="admit", pipeline="p", task=_task(2, 0.2, 5.0, [0.1, 0.1]))
        _send(gateway, op="admit", pipeline="p", task=_task(2, 1.5, 5.0, [0.1, 0.1]))
        snapshot = _send(gateway, op="snapshot", pipeline="p")[0]["snapshot"]
        assert snapshot_roundtrip(snapshot) == {
            "admitted_records": 2,
            "violations": 0,
            "stable": True,
        }
