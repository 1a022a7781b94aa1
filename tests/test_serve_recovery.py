"""Crash recovery: bitwise equivalence, tail repair, and the chaos gate."""

import json

import pytest

from repro.serve.chaos import chaos_gate_failures, run_chaos
from repro.serve.gateway import AdmissionGateway
from repro.serve.journal import Journal, encode_record, scan_journal
from repro.serve.recovery import (
    JOURNAL_FILE,
    SNAPSHOT_FILE,
    RecoveryError,
    recover,
    registry_fingerprint,
)

POLICY = {"num_stages": 2, "alpha": 0.9}
BATCHED = {"num_stages": 2, "alpha": 0.9, "max_batch": 4}


def _ops(policy=POLICY, count=30):
    """A deterministic mixed op script (returns wire documents)."""
    docs = [
        {"id": 0, "rid": "r0", "op": "register", "pipeline": "web",
         "policy": dict(policy)},
    ]
    now = 0.0
    for n in range(1, count + 1):
        now += 0.1
        kind = n % 6
        if kind in (0, 1, 2):
            docs.append({
                "id": n, "rid": f"r{n}", "op": "admit", "pipeline": "web",
                "task": {"task_id": n, "arrival": now, "deadline": now + 1.2,
                         "costs": [0.03 + 0.001 * n, 0.05]},
            })
        elif kind == 3:
            docs.append({"id": n, "rid": f"r{n}", "op": "depart",
                         "pipeline": "web", "task_id": max(1, n - 3),
                         "stage": 0})
        elif kind == 4:
            docs.append({"id": n, "rid": f"r{n}", "op": "idle",
                         "pipeline": "web", "stage": 0})
        else:
            docs.append({"id": n, "rid": f"r{n}", "op": "expire",
                         "pipeline": "web", "now": now})
    return docs


def _drive(durable_or_gateway, docs):
    for doc in docs:
        durable_or_gateway.handle_line(json.dumps(doc))


class TestRecover:
    def test_empty_directory_recovers_fresh(self, tmp_path):
        durable, report = recover(tmp_path / "state")
        assert report.snapshot_loaded is False
        assert report.replayed == 0
        assert report.pipelines == []
        assert list(durable.registry.names()) == []
        durable.close()

    @pytest.mark.parametrize("crash_after", [1, 7, 13, 20, 31])
    def test_bitwise_equivalence_at_arbitrary_offsets(self, tmp_path, crash_after):
        """Recovering a journal prefix reproduces the gateway bitwise."""
        docs = _ops()[:crash_after]
        durable, _ = recover(tmp_path, snapshot_every=10)
        _drive(durable, docs)
        pre_crash = registry_fingerprint(durable)
        durable.close()  # kill -9: no shutdown snapshot

        recovered, report = recover(tmp_path, snapshot_every=10)
        assert registry_fingerprint(recovered) == pre_crash
        assert report.replayed + report.snapshot_seq >= len(docs) or report.snapshot_loaded
        recovered.close()

        shadow = AdmissionGateway()
        _drive(shadow, docs)
        assert registry_fingerprint(shadow) == pre_crash

    def test_recovery_mid_batch_restores_pending_queue(self, tmp_path):
        """A crash with queued (undecided) admissions replays the queue."""
        # Ends on three consecutive queued admits (no barrier after).
        docs = _ops(policy=BATCHED, count=8)
        durable, _ = recover(tmp_path)
        _drive(durable, docs)
        assert any(p.pending for p in durable.registry)
        pre_crash = registry_fingerprint(durable)
        durable.close()

        recovered, _ = recover(tmp_path)
        assert registry_fingerprint(recovered) == pre_crash
        assert any(p.pending for p in recovered.registry)
        # Draining both yields identical decisions.
        shadow = AdmissionGateway()
        _drive(shadow, docs)
        got = [line for _, line in recovered.drain()]
        want = [line for _, line in shadow.drain()]
        assert got == want
        recovered.close()

    def test_torn_final_record_is_dropped(self, tmp_path):
        docs = _ops(count=10)
        durable, _ = recover(tmp_path)
        _drive(durable, docs)
        pre_crash = registry_fingerprint(durable)
        extra = {"id": 99, "op": "expire", "pipeline": "web", "now": 50.0}
        durable.journal.append_torn(extra, keep=0.6)
        durable.close()

        recovered, report = recover(tmp_path)
        assert report.truncated_bytes > 0
        # The torn op never became durable: state matches the pre-tear
        # fingerprint, not one with the expire applied.
        assert registry_fingerprint(recovered) == pre_crash
        recovered.close()

    def test_crash_between_snapshot_and_journal_reset(self, tmp_path):
        """Journal records the snapshot already covers are skipped."""
        docs = _ops(count=12)
        durable, _ = recover(tmp_path, snapshot_every=0)
        _drive(durable, docs)
        pre_crash = registry_fingerprint(durable)
        # Simulate: snapshot written, then crash before journal.reset().
        from repro.serve.journal import gateway_snapshot, write_gateway_snapshot

        doc = gateway_snapshot(durable.gateway, durable.journal.last_seq)
        write_gateway_snapshot(tmp_path / SNAPSHOT_FILE, doc)
        durable.close()

        recovered, report = recover(tmp_path)
        assert report.snapshot_loaded is True
        assert report.skipped == len(docs)
        assert report.replayed == 0
        assert registry_fingerprint(recovered) == pre_crash
        recovered.close()

    def test_recovery_compacts_when_replay_exceeds_period(self, tmp_path):
        """Replayed ops count toward the compaction period."""
        docs = _ops(count=12)
        durable, _ = recover(tmp_path, snapshot_every=0)
        _drive(durable, docs)
        durable.close()
        assert not (tmp_path / SNAPSHOT_FILE).exists()

        recovered, report = recover(tmp_path, snapshot_every=5)
        assert report.replayed == len(docs)
        assert (tmp_path / SNAPSHOT_FILE).exists()
        assert scan_journal(tmp_path / JOURNAL_FILE).records == []
        recovered.close()

    def test_dedup_window_survives_recovery(self, tmp_path):
        docs = _ops(count=8)
        durable, _ = recover(tmp_path)
        _drive(durable, docs)
        first = [
            json.loads(line)
            for _, line in durable.handle_line(json.dumps(docs[1]))
        ]
        durable.close()

        recovered, _ = recover(tmp_path)
        again = [
            json.loads(line)
            for _, line in recovered.handle_line(json.dumps(docs[1]))
        ]
        assert again == first  # cached decision, not a re-execution
        assert recovered.gateway.dedup_hits > 0
        recovered.close()

    def test_unloadable_snapshot_raises(self, tmp_path):
        (tmp_path / SNAPSHOT_FILE).write_text('{"format": "bogus/9"}')
        with pytest.raises(RecoveryError, match="snapshot"):
            recover(tmp_path)

    def test_corrupt_snapshot_state_fails_the_audit(self, tmp_path):
        docs = _ops(count=9)
        durable, _ = recover(tmp_path, snapshot_every=0)
        _drive(durable, docs)
        durable.compact()
        durable.close()
        snapshot_path = tmp_path / SNAPSHOT_FILE
        doc = json.loads(snapshot_path.read_text())
        # Corrupt a tracker's exact accumulator far past the audit
        # tolerance (+0.5 in units of 2**-1074).
        acc = doc["pipelines"][0]["controller"]["accumulators"][0]
        acc["fixed"] = hex(int(acc["fixed"], 16) + (1 << 1073))
        snapshot_path.write_text(json.dumps(doc))
        with pytest.raises(RecoveryError, match="failed audit"):
            recover(tmp_path)

    def test_journal_continues_sequence_after_recovery(self, tmp_path):
        docs = _ops(count=5)
        durable, _ = recover(tmp_path)
        _drive(durable, docs)
        durable.close()
        recovered, report = recover(tmp_path)
        seq = recovered.journal.append({"op": "probe"})
        assert seq == report.last_seq + 1
        recovered.close()


class TestFingerprint:
    def test_identical_histories_match(self, tmp_path):
        a = AdmissionGateway()
        b = AdmissionGateway()
        _drive(a, _ops(count=10))
        _drive(b, _ops(count=10))
        assert registry_fingerprint(a) == registry_fingerprint(b)

    def test_diverging_histories_differ(self):
        a = AdmissionGateway()
        b = AdmissionGateway()
        _drive(a, _ops(count=10))
        _drive(b, _ops(count=9))
        assert registry_fingerprint(a) != registry_fingerprint(b)

    def test_diagnostics_are_excluded(self):
        a = AdmissionGateway()
        b = AdmissionGateway()
        _drive(a, _ops(count=6))
        _drive(b, _ops(count=6))
        b.errors += 5
        b.op_counts["health"] = 99
        assert registry_fingerprint(a) == registry_fingerprint(b)


class TestCrashChaos:
    def test_small_run_meets_every_gate(self, tmp_path):
        report = run_chaos(
            "crash", seed=0, cycles=8, state_dir=tmp_path, snapshot_every=10
        )
        failures = chaos_gate_failures(report, min_recoveries=8)
        assert failures == []
        assert report["admissions"]["lost"] == 0
        assert report["admissions"]["duplicated"] == 0
        assert report["equivalence"]["fingerprint_mismatches"] == 0
        assert report["equivalence"]["final_identical"] is True

    def test_report_is_byte_stable(self):
        first = run_chaos("crash", seed=3, cycles=4)
        second = run_chaos("crash", seed=3, cycles=4)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_gate_flags_lost_admissions(self):
        report = run_chaos("crash", seed=0, cycles=4)
        report["admissions"]["lost"] = 2
        failures = chaos_gate_failures(report, min_recoveries=4)
        assert any("lost" in f for f in failures)

    def test_gate_flags_too_few_recoveries(self):
        report = run_chaos("crash", seed=0, cycles=4)
        failures = chaos_gate_failures(report, min_recoveries=20)
        assert any("crash/recover cycles" in f for f in failures)

    @pytest.mark.slow_serve
    def test_acceptance_run_twenty_cycles(self):
        """ISSUE-4 acceptance: >= 20 crash/recover cycles, zero lost or
        duplicated admissions, bitwise-identical recovered state."""
        report = run_chaos("crash", seed=0, cycles=20)
        assert chaos_gate_failures(report, min_recoveries=20) == []
