"""Fleet supervision: heartbeats, failover, migration, chaos gate."""

import copy
import json
import socket

import pytest

from repro.serve.fleet import (
    DEFAULT_MISS_THRESHOLD,
    WORKER_DEGRADED,
    WORKER_HEALTHY,
    WORKER_RECOVERING,
    WORKER_UNAVAILABLE,
    FleetError,
    FleetSupervisor,
    HeartbeatMonitor,
    ProcessFleet,
    WorkerUnavailable,
)
from repro.serve.chaos import TOPOLOGIES, chaos_gate_failures, run_chaos
from repro.serve.router import ShardMap

POLICY = {"num_stages": 2, "alpha": 0.9}


def _health(journal_seq, snapshot_seq=0):
    return {"ok": True, "journal_seq": journal_seq, "snapshot_seq": snapshot_seq}


class TestHeartbeatMonitor:
    def test_miss_escalates_degraded_then_unavailable(self):
        monitor = HeartbeatMonitor(workers=1, miss_threshold=2)
        assert monitor.observe(0, 1, None) == WORKER_DEGRADED
        assert monitor.observe(0, 2, None) == WORKER_UNAVAILABLE
        assert [t["to"] for t in monitor.transitions] == [
            WORKER_DEGRADED,
            WORKER_UNAVAILABLE,
        ]

    def test_good_probe_resets_the_miss_counter(self):
        monitor = HeartbeatMonitor(workers=1, miss_threshold=2)
        monitor.observe(0, 1, None)
        assert monitor.observe(0, 2, _health(5)) == WORKER_HEALTHY
        assert monitor.misses[0] == 0
        # A single later miss degrades again instead of going straight
        # to unavailable: the counter really was reset.
        assert monitor.observe(0, 3, None) == WORKER_DEGRADED

    def test_stale_probe_carries_no_liveness_information(self):
        monitor = HeartbeatMonitor(workers=1, miss_threshold=1)
        monitor.observe(0, 5, _health(3))
        # A delayed miss for an older probe must not kill the worker.
        assert monitor.observe(0, 4, None) == WORKER_HEALTHY
        assert monitor.stale_probes == 1
        assert monitor.misses[0] == 0

    def test_journal_seq_regression_is_counted(self):
        monitor = HeartbeatMonitor(workers=1)
        monitor.observe(0, 1, _health(10))
        monitor.observe(0, 2, _health(4))
        assert monitor.seq_regressions == 1
        # Advancing again is not a second regression.
        monitor.observe(0, 3, _health(12))
        assert monitor.seq_regressions == 1

    def test_recovering_flips_healthy_on_first_good_probe(self):
        monitor = HeartbeatMonitor(workers=1, miss_threshold=1)
        monitor.observe(0, 1, None)
        monitor.mark_recovering(0, 2)
        assert monitor.states[0] == WORKER_RECOVERING
        assert monitor.observe(0, 3, _health(1)) == WORKER_HEALTHY

    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(workers=0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(workers=1, miss_threshold=0)
        assert DEFAULT_MISS_THRESHOLD >= 1


@pytest.fixture
def fleet(tmp_path):
    shard_map = ShardMap.balanced(["api", "img", "web"], 3)
    supervisor = FleetSupervisor(3, tmp_path, shard_map=shard_map)
    supervisor.start()
    for name in ("api", "img", "web"):
        supervisor.dispatch(
            {
                "id": f"reg-{name}",
                "rid": f"reg-{name}",
                "op": "register",
                "pipeline": name,
                "policy": dict(POLICY),
            }
        )
    yield supervisor
    supervisor.close()


def _admit(name, task_id, rid=None):
    return {
        "id": f"a{task_id}",
        "rid": rid or f"r{task_id}",
        "op": "admit",
        "pipeline": name,
        "task": {
            "task_id": task_id,
            "arrival": 0.0,
            "deadline": 5.0,
            "costs": [0.05, 0.03],
        },
    }


class TestFleetSupervisor:
    def test_dispatch_routes_to_the_owning_shard(self, fleet):
        owner = fleet.shard_map.shard_of("api")
        before = fleet.workers[owner].durable.journal.last_seq
        response = json.loads(fleet.dispatch(_admit("api", 1))[0])
        assert response["ok"] is True
        assert fleet.workers[owner].durable.journal.last_seq == before + 1
        for shard, worker in enumerate(fleet.workers):
            if shard != owner:
                assert worker.durable.gateway.dedup_status("r1") == "unknown"

    def test_fleet_wide_ops_broadcast_in_shard_order(self, fleet):
        responses = [
            json.loads(line)
            for line in fleet.dispatch({"id": "s", "op": "stats"})
        ]
        assert len(responses) == 3
        names = [sorted(r["stats"]) for r in responses]
        assert names == [["api"], ["img"], ["web"]]

    def test_dead_worker_raises_worker_unavailable(self, fleet):
        owner = fleet.shard_map.shard_of("api")
        fleet.workers[owner].kill()
        with pytest.raises(WorkerUnavailable):
            fleet.dispatch(_admit("api", 1))

    def test_probe_heal_restarts_through_recovery(self, fleet):
        owner = fleet.shard_map.shard_of("img")
        fleet.dispatch(_admit("img", 1))
        fingerprint = fleet.workers[owner].fingerprint()
        fleet.workers[owner].kill()
        assert fleet.probe()[owner] == WORKER_DEGRADED
        assert fleet.probe()[owner] == WORKER_UNAVAILABLE
        reports = fleet.heal()
        assert len(reports) == 1 and reports[0].replayed >= 1
        assert fleet.workers[owner].restarts == 1
        assert fleet.workers[owner].fingerprint() == fingerprint
        assert fleet.probe()[owner] == WORKER_HEALTHY

    def test_after_journal_kill_is_durable_but_unacked(self, fleet):
        owner = fleet.shard_map.shard_of("web")
        doc = _admit("web", 7)
        fleet.workers[owner].kill(kind="after_journal", doc=doc)
        fleet.restart(owner)
        # Replay applied the journaled op; the retry is a dedup hit.
        worker = fleet.workers[owner]
        assert worker.durable.gateway.dedup_status("r7") == "decided"
        hits_before = worker.durable.gateway.dedup_hits
        retry = json.loads(fleet.dispatch(doc)[0])
        assert retry["ok"] is True
        assert worker.durable.gateway.dedup_hits == hits_before + 1

    def test_torn_kill_loses_nothing_durable(self, fleet):
        owner = fleet.shard_map.shard_of("web")
        doc = _admit("web", 8)
        fleet.workers[owner].kill(kind="torn", doc=doc, keep=0.5)
        report = fleet.restart(owner)
        assert report.truncated_bytes > 0
        # The op never became durable; the retry decides it afresh.
        assert fleet.workers[owner].durable.gateway.dedup_status("r8") == "unknown"
        assert json.loads(fleet.dispatch(doc)[0])["ok"] is True

    def test_restart_refuses_a_live_worker(self, fleet):
        with pytest.raises(FleetError):
            fleet.restart(0)

    def test_migrate_moves_state_and_bumps_the_map(self, fleet):
        fleet.dispatch(_admit("api", 1))
        old_owner = fleet.shard_map.shard_of("api")
        new_owner = (old_owner + 1) % 3
        old_version = fleet.shard_map.version
        new_map = fleet.migrate("api", new_owner)
        assert new_map.version == old_version + 1
        assert new_map.shard_of("api") == new_owner
        # The moved pipeline serves (with its admitted task) on the new
        # owner, and the old owner bounces it.
        stats = json.loads(
            fleet.workers[new_owner].handle_line(
                '{"id":"s","op":"stats","pipeline":"api"}'
            )[0]
        )
        assert stats["stats"]["api"]["counters"]["admitted"] == 1
        bounce = json.loads(
            fleet.workers[old_owner].handle_line(
                '{"id":"b","op":"stats","pipeline":"api"}'
            )[0]
        )
        assert bounce["error"] == "wrong-shard"

    def test_migrate_carries_the_dedup_entry_of_a_queued_admit(self, fleet):
        """An admit still queued when its pipeline migrates is decided
        by the snapshot's barrier on the old owner; the client never
        saw that answer, so its retry lands on the new owner and must
        get the same decision, also after the new owner restarts."""
        fleet.dispatch(
            {
                "id": "reg-q",
                "rid": "reg-q",
                "op": "register",
                "pipeline": "q",
                "policy": dict(POLICY, max_batch=8),
            }
        )
        assert fleet.dispatch(_admit("q", 7)) == []  # queued, unanswered
        new_owner = (fleet.shard_map.shard_of("q") + 1) % 3
        fleet.migrate("q", new_owner)
        assert fleet.workers[new_owner].durable.gateway.dedup_status("r7") == "decided"
        retry = dict(_admit("q", 7), id="a7-retry")
        [answer] = [json.loads(line) for line in fleet.dispatch(retry)]
        assert answer["ok"] is True and answer["admitted"] is True
        assert answer["id"] == "a7-retry"
        fleet.workers[new_owner].kill()
        fleet.restart(new_owner)
        [again] = [json.loads(line) for line in fleet.dispatch(retry)]
        assert again == answer
        stats = json.loads(fleet.dispatch({"id": "s", "op": "stats", "pipeline": "q"})[0])
        assert stats["stats"]["q"]["counters"]["admitted"] == 1

    def test_migrate_to_current_owner_is_refused(self, fleet):
        with pytest.raises(FleetError):
            fleet.migrate("api", fleet.shard_map.shard_of("api"))

    def test_fleet_health_surfaces_down_shards(self, fleet):
        owner = fleet.shard_map.shard_of("etl-like")  # any shard works
        fleet.workers[owner].kill()
        fleet.probe()
        fleet.probe()
        health = fleet.fleet_health()
        assert health["unavailable"] == [owner]
        assert health["seq_regressions"] == 0
        down = health["shards"][owner]
        assert down["state"] == WORKER_UNAVAILABLE
        assert "pipelines" not in down
        up = [s for s in health["shards"] if s["shard"] != owner]
        assert all("pipelines" in s for s in up)

    def test_fleet_stats_reports_down_shards_explicitly(self, fleet):
        fleet.workers[1].kill()
        fleet.probe()
        fleet.probe()
        stats = fleet.fleet_stats()
        assert stats["shards"]["1"] == {
            "state": WORKER_UNAVAILABLE,
            "stats": None,
        }
        # Live shards still merge into the fleet-wide pipeline view.
        live = {
            name
            for shard, entry in stats["shards"].items()
            if entry["stats"]
            for name in entry["stats"]
        }
        assert live == set(stats["pipelines"])

    def test_map_mismatch_is_rejected_at_construction(self, tmp_path):
        with pytest.raises(ValueError):
            FleetSupervisor(2, tmp_path, shard_map=ShardMap(shards=3))


class TestFleetChaosGate:
    def test_gate_passes_and_is_byte_stable(self, tmp_path):
        first = run_chaos(
            "fleet", seed=0, cycles=12, workers=3, state_dir=tmp_path / "a"
        )
        assert first["format"] == TOPOLOGIES["fleet"].report_format
        assert chaos_gate_failures(first) == []
        second = run_chaos(
            "fleet", seed=0, cycles=12, workers=3, state_dir=tmp_path / "b"
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_seed_changes_the_trace(self, tmp_path):
        first = run_chaos(
            "fleet", seed=0, cycles=4, workers=2, state_dir=tmp_path / "a"
        )
        second = run_chaos(
            "fleet", seed=1, cycles=4, workers=2, state_dir=tmp_path / "b"
        )
        assert first["admissions"] != second["admissions"]

    @pytest.fixture(scope="class")
    def passing_report(self, tmp_path_factory):
        return run_chaos(
            "fleet",
            seed=0,
            cycles=12,
            workers=3,
            state_dir=tmp_path_factory.mktemp("chaos"),
        )

    @pytest.mark.parametrize(
        ("path", "value", "needle"),
        [
            (("admissions", "lost"), 1, "lost"),
            (("admissions", "duplicated"), 2, "double-counted"),
            (("admissions", "unresolved"), 1, "never acknowledged"),
            (("equivalence", "fingerprint_mismatches"), 1, "fingerprint"),
            (("equivalence", "final_identical"), False, "differ"),
            (("kills", "torn"), 0, "torn"),
            (("kills", "with_pending_batch"), 0, "pending"),
            (("detection", "heartbeat"), 0, "heartbeat"),
            (("detection", "seq_regressions"), 1, "regress"),
            (("faults", "torn_frame_errors"), 0, "structured errors"),
            (("faults", "storm_journal_writes"), 3, "storm wrote"),
            (("routing", "migrations"), [], "migration"),
            (("routing", "stale_routes_resolved"), 0, "stale route"),
            (("recoveries", "snapshot_loads"), 0, "snapshot"),
        ],
    )
    def test_each_gate_trips_on_its_own_violation(
        self, passing_report, path, value, needle
    ):
        report = copy.deepcopy(passing_report)
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        failures = chaos_gate_failures(report)
        assert any(needle in failure for failure in failures), failures

    def test_min_recoveries_is_enforced(self, passing_report):
        failures = chaos_gate_failures(passing_report, min_recoveries=999)
        assert any("recoveries" in f for f in failures)


def _tcp_call(host, port, lines):
    """One connection, many request lines, parsed responses."""
    with socket.create_connection((host, port), timeout=30) as sock:
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        sock.sendall(payload)
        buf = b""
        while buf.count(b"\n") < len(lines):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return [json.loads(line) for line in buf.splitlines()]


@pytest.mark.slow_serve
class TestProcessFleet:
    def test_sigkill_respawn_recovers_durable_state(self, tmp_path):
        with ProcessFleet(2, root_dir=tmp_path) as fleet:
            shard_map = ShardMap(shards=2)
            name = "api"
            owner = shard_map.shard_of(name)
            worker = fleet.workers[owner]
            register = json.dumps(
                {
                    "id": 1,
                    "rid": "reg-1",
                    "op": "register",
                    "pipeline": name,
                    "policy": dict(POLICY),
                }
            )
            admit = json.dumps(_admit(name, 1))
            responses = _tcp_call(worker.host, worker.port, [register, admit])
            assert all(r["ok"] for r in responses)

            worker.kill()
            assert not worker.alive
            worker.spawn()
            assert worker.spawns == 2

            # Same rid across the restart: the WAL replay re-decided it,
            # so the retry is answered from the dedup window (visible in
            # the recovered worker's dedup_hits counter) and the task is
            # counted exactly once.
            retry, stats, health = _tcp_call(
                worker.host,
                worker.port,
                [
                    admit,
                    json.dumps({"id": 3, "op": "stats", "pipeline": name}),
                    json.dumps({"id": 4, "op": "health"}),
                ],
            )
            assert retry["ok"] is True
            assert stats["stats"][name]["counters"]["admitted"] == 1
            assert health["dedup_hits"] == 1

            # The other worker bounces the pipeline with a shard map.
            other = fleet.workers[1 - owner]
            (bounce,) = _tcp_call(
                other.host,
                other.port,
                [json.dumps({"id": 4, "op": "stats", "pipeline": name})],
            )
            assert bounce["error"] == "wrong-shard"
            assert bounce["shard"] == owner
