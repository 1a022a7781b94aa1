"""Write-ahead journal: record codec, tail repair, and compaction."""

import json

import pytest

from repro.serve.gateway import AdmissionGateway
from repro.serve.journal import (
    GATEWAY_SNAPSHOT_FORMAT,
    JOURNALED_OPS,
    DurableGateway,
    Journal,
    JournalError,
    decode_record,
    encode_record,
    record_crc,
    scan_journal,
)
from repro.serve.protocol import OPS


def _op(n=1):
    return {"id": n, "op": "expire", "pipeline": "web", "now": float(n)}


class TestRecordCodec:
    def test_round_trip(self):
        line = encode_record(_op(), 3)
        record = decode_record(line)
        assert record["op"] == _op()
        assert record["seq"] == 3
        assert record["crc"] == record_crc(_op(), 3)

    def test_encoding_is_canonical(self):
        line = encode_record(_op(), 1)
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )

    def test_crc_covers_op_and_seq(self):
        assert record_crc(_op(1), 1) != record_crc(_op(2), 1)
        assert record_crc(_op(1), 1) != record_crc(_op(1), 2)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '"a string"',
            "[1,2,3]",
            '{"op":{},"seq":1}',  # missing crc
            '{"crc":"00000000","op":{},"seq":1,"extra":true}',
            '{"crc":"00000000","op":[],"seq":1}',  # op not an object
            '{"crc":"00000000","op":{},"seq":0}',  # seq < 1
            '{"crc":"00000000","op":{},"seq":true}',  # bool seq
            '{"crc":"00000000","op":{},"seq":"1"}',  # str seq
        ],
    )
    def test_malformed_records_rejected(self, line):
        with pytest.raises(ValueError):
            decode_record(line)

    def test_bit_flip_fails_crc(self):
        line = encode_record(_op(), 1)
        flipped = line.replace('"now":1.0', '"now":2.0')
        assert flipped != line
        with pytest.raises(ValueError, match="crc"):
            decode_record(flipped)

    def test_every_mutating_op_is_journaled(self):
        assert JOURNALED_OPS == frozenset(OPS) - {"health"}


class TestScanJournal:
    def test_missing_file_is_empty(self, tmp_path):
        scan = scan_journal(tmp_path / "journal.ndjson")
        assert scan.records == []
        assert scan.truncated_bytes == 0

    def test_clean_journal_round_trips(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        for n in range(1, 4):
            assert journal.append(_op(n)) == n
        journal.close()
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1, 2, 3]
        assert [r["op"]["id"] for r in scan.records] == [1, 2, 3]

    def test_torn_tail_is_truncated_physically(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append(_op(1))
        good_size = path.stat().st_size
        journal.append_torn(_op(2), keep=0.5)
        journal.close()
        assert path.stat().st_size > good_size

        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.truncated_bytes > 0
        assert path.stat().st_size == good_size  # repaired in place
        # A second scan is clean: the tail is gone.
        again = scan_journal(path)
        assert again.truncated_bytes == 0
        assert [r["seq"] for r in again.records] == [1]

    def test_valid_but_unterminated_tail_is_torn(self, tmp_path):
        """A record cut exactly at the newline was never acknowledged."""
        path = tmp_path / "journal.ndjson"
        path.write_text(encode_record(_op(1), 1) + "\n" + encode_record(_op(2), 2))
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.truncated_bytes > 0

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        path.write_text("garbage\n" + encode_record(_op(2), 2) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            scan_journal(path)

    def test_newline_terminated_invalid_final_record_raises(self, tmp_path):
        """Only *unterminated* tails are crash artifacts; a terminated
        record that fails validation is real corruption."""
        path = tmp_path / "journal.ndjson"
        line = encode_record(_op(2), 2)
        path.write_text(
            encode_record(_op(1), 1) + "\n" + line.replace('"id":2', '"id":3') + "\n"
        )
        with pytest.raises(JournalError, match="corrupt"):
            scan_journal(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        path.write_text(
            encode_record(_op(1), 1) + "\n" + encode_record(_op(3), 3) + "\n"
        )
        with pytest.raises(JournalError, match="sequence gap"):
            scan_journal(path)

    def test_truncate_false_leaves_file_alone(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append(_op(1))
        journal.append_torn(_op(2))
        journal.close()
        size = path.stat().st_size
        scan = scan_journal(path, truncate=False)
        assert scan.truncated_bytes > 0
        assert path.stat().st_size == size


def _durable(tmp_path, snapshot_every=0, policy=None):
    gateway = AdmissionGateway()
    journal = Journal(tmp_path / "journal.ndjson")
    durable = DurableGateway(
        gateway, journal, tmp_path / "snapshot.json", snapshot_every=snapshot_every
    )
    if policy is not None:
        durable.handle_line(
            json.dumps(
                {"id": 0, "op": "register", "pipeline": "web", "policy": policy}
            )
        )
    return durable


class TestDurableGateway:
    def test_mutating_ops_are_journaled_before_dispatch(self, tmp_path):
        durable = _durable(tmp_path, policy={"num_stages": 2})
        durable.handle_line(json.dumps({"id": 1, "op": "expire",
                                        "pipeline": "web", "now": 1.0}))
        durable.close()
        scan = scan_journal(tmp_path / "journal.ndjson")
        assert [r["op"]["op"] for r in scan.records] == ["register", "expire"]

    def test_health_and_bad_json_bypass_the_journal(self, tmp_path):
        durable = _durable(tmp_path)
        durable.handle_line('{"id": 1, "op": "health"}')
        durable.handle_line("{not json")
        durable.close()
        assert scan_journal(tmp_path / "journal.ndjson").records == []

    def test_dedup_hits_bypass_the_journal(self, tmp_path):
        durable = _durable(tmp_path, policy={"num_stages": 2})
        line = json.dumps({"id": 1, "rid": "r1", "op": "expire",
                           "pipeline": "web", "now": 1.0})
        durable.handle_line(line)
        durable.handle_line(line)  # idempotent retry: served from cache
        durable.close()
        scan = scan_journal(tmp_path / "journal.ndjson")
        assert sum(1 for r in scan.records if r["op"].get("op") == "expire") == 1

    def test_compaction_snapshots_and_resets(self, tmp_path):
        durable = _durable(tmp_path, snapshot_every=3, policy={"num_stages": 2})
        for n in range(1, 4):
            durable.handle_line(json.dumps(
                {"id": n, "op": "expire", "pipeline": "web", "now": float(n)}))
        durable.close()
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["format"] == GATEWAY_SNAPSHOT_FORMAT
        # Compaction fired at the 3rd journaled op (register + 2 expires).
        assert snapshot["seq"] == 3
        assert [p["name"] for p in snapshot["pipelines"]] == ["web"]
        # The post-compaction expire continues the sequence in the
        # fresh journal.
        assert [r["seq"] for r in scan_journal(tmp_path / "journal.ndjson").records] == [4]

    def test_compaction_skipped_while_batch_pending(self, tmp_path):
        durable = _durable(
            tmp_path, policy={"num_stages": 2, "max_batch": 8},
        )
        durable.handle_line(json.dumps({
            "id": 1, "op": "admit", "pipeline": "web",
            "task": {"task_id": 1, "arrival": 0.0, "deadline": 1.0,
                     "costs": [0.1, 0.1]},
        }))
        assert durable.compact() is False
        assert not (tmp_path / "snapshot.json").exists()
        # Draining flushes the batch; compaction can proceed.
        durable.drain()
        assert durable.compact() is True
        assert (tmp_path / "snapshot.json").exists()
        durable.close()

    def test_drain_without_pending_is_not_journaled(self, tmp_path):
        durable = _durable(tmp_path, policy={"num_stages": 2})
        assert durable.drain() == []
        durable.close()
        scan = scan_journal(tmp_path / "journal.ndjson")
        assert [r["op"]["op"] for r in scan.records] == ["register"]


class TestAsyncOffload:
    """The event-loop-safe entry points must be byte-equivalent to the
    sync ones: same responses, same journal bytes, same snapshots —
    only *where* the work runs (one executor hop per chunk) changes."""

    @staticmethod
    def _chunks():
        lines = [json.dumps({"id": 0, "op": "register", "pipeline": "web",
                             "policy": {"num_stages": 2, "max_batch": 2}})]
        for n in range(1, 6):
            lines.append(json.dumps({
                "id": n, "op": "admit", "pipeline": "web",
                "task": {"task_id": n, "arrival": float(n),
                         "deadline": float(n) + 1.0, "costs": [0.1, 0.1]},
            }))
        lines.append('{"id": 99, "op": "health"}')
        lines.append("{not json")
        frames = [line.encode() for line in lines]
        # Multi-line chunks; compaction (every 3 ops) lands mid-chunk.
        return [frames[:2], frames[2:5], frames[5:]]

    def test_async_path_is_bitwise_identical_to_sync(self, tmp_path):
        import asyncio

        sync_dir = tmp_path / "sync"
        async_dir = tmp_path / "async"
        sync_dir.mkdir()
        async_dir.mkdir()
        sync_gw = _durable(sync_dir, snapshot_every=3)
        async_gw = _durable(async_dir, snapshot_every=3)

        sync_out = [sync_gw.handle_frames(chunk) for chunk in self._chunks()]
        sync_out.append(sync_gw.drain())
        sync_gw.close()

        async def run():
            out = [await async_gw.handle_frames_async(chunk)
                   for chunk in self._chunks()]
            out.append(await async_gw.drain_async())
            return out

        async_out = asyncio.run(run())
        async_gw.close()

        assert async_out == sync_out
        assert (async_dir / "journal.ndjson").read_bytes() == \
            (sync_dir / "journal.ndjson").read_bytes()
        assert (sync_dir / "snapshot.json").exists()
        assert (async_dir / "snapshot.json").read_bytes() == \
            (sync_dir / "snapshot.json").read_bytes()

    def test_plain_gateway_async_facade(self):
        import asyncio

        gateway = AdmissionGateway()
        frames = [
            json.dumps({"id": 0, "op": "register", "pipeline": "web",
                        "policy": {"num_stages": 2}}).encode(),
            b'{"id": 1, "op": "health"}',
        ]
        twin = AdmissionGateway()

        async def run():
            routed = await gateway.handle_frames_async(frames)
            routed += await gateway.drain_async()
            return routed

        assert asyncio.run(run()) == twin.handle_frames(frames) + twin.drain()


class TestRenameDurability:
    """ISSUE-7 satellite: the rename itself must be made durable.

    fsyncing the snapshot's *data* is not enough — ``os.replace`` only
    updates the parent directory's entry, and a power cut can roll that
    entry back.  These tests record the actual syscall order through
    monkeypatched wrappers and pin the three-step discipline:
    fsync(temp file) -> rename -> fsync(parent directory).
    """

    @pytest.fixture
    def syscalls(self, monkeypatch):
        import os
        import stat

        events = []
        real_fsync, real_replace, real_fstat = os.fsync, os.replace, os.fstat

        def recording_fsync(fd):
            kind = (
                "fsync-dir"
                if stat.S_ISDIR(real_fstat(fd).st_mode)
                else "fsync-file"
            )
            events.append(kind)
            return real_fsync(fd)

        def recording_replace(src, dst):
            events.append("rename")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        return events

    def test_snapshot_write_orders_fsync_rename_fsync_dir(
        self, tmp_path, syscalls
    ):
        from repro.serve.journal import write_gateway_snapshot

        write_gateway_snapshot(
            tmp_path / "snap.json", {"format": "x"}, fsync=True
        )
        assert syscalls == ["fsync-file", "rename", "fsync-dir"]

    def test_snapshot_write_without_fsync_skips_both_fsyncs(
        self, tmp_path, syscalls
    ):
        from repro.serve.journal import write_gateway_snapshot

        write_gateway_snapshot(
            tmp_path / "snap.json", {"format": "x"}, fsync=False
        )
        assert syscalls == ["rename"]

    def test_journal_reset_fsyncs_the_parent_directory(
        self, tmp_path, syscalls
    ):
        journal = Journal(tmp_path / "j.ndjson", fsync=True)
        journal.append(_op())
        del syscalls[:]
        journal.reset(next_seq=2)
        journal.close()
        # Truncate-and-reopen rewrites the directory entry, so the
        # parent is pinned after the (empty) file itself is synced.
        assert syscalls == ["fsync-file", "fsync-dir"]

    def test_compaction_runs_the_full_discipline_in_order(
        self, tmp_path, syscalls
    ):
        journal = Journal(tmp_path / "j.ndjson", fsync=True)
        durable = DurableGateway(
            AdmissionGateway(), journal, tmp_path / "snap.json"
        )
        durable.handle_line(
            '{"id":1,"op":"register","pipeline":"web",'
            '"policy":{"num_stages":2,"alpha":0.9}}'
        )
        del syscalls[:]
        assert durable.compact() is True
        durable.close()
        # Snapshot: data fsync, rename, dir fsync.  Journal reset:
        # truncated-file fsync, dir fsync.  Strictly in that order —
        # the journal must never shrink before its snapshot is pinned.
        assert syscalls == [
            "fsync-file",
            "rename",
            "fsync-dir",
            "fsync-file",
            "fsync-dir",
        ]


def _admit_frame(request_id, task_id, rid):
    return json.dumps({
        "id": request_id, "rid": rid, "op": "admit", "pipeline": "web",
        "task": {"task_id": task_id, "arrival": 0.1 * task_id,
                 "deadline": 1.0 + task_id, "costs": [0.01, 0.01]},
    }).encode()


class TestDurableHandleFrames:
    """The durable wrapper's chunk ingest is the per-line loop, exactly.

    Durability is per request — each mutating request must reach the
    journal before its effects exist.  Two identical journals fed the
    same frames, one through ``handle_frames`` and one through the
    decode/strip/``handle_line`` loop, must produce identical
    responses AND byte-identical journals and snapshots, over a chunk
    with batched admissions, an idempotent retry, a pending duplicate,
    and compactions (one deferred by a pending batch) mid-chunk.
    """

    FRAMES = [
        json.dumps({"id": 0, "op": "register", "pipeline": "web",
                    "policy": {"num_stages": 2, "max_batch": 2}}).encode(),
        _admit_frame(1, 1, "r1"),
        b"   ",
        b"not json",
        _admit_frame(2, 2, "r2"),  # flushes the batch; compaction
        _admit_frame(3, 1, "r1"),  # retry of a decided rid
        _admit_frame(4, 4, "r4"),  # queued
        _admit_frame(5, 4, "r4"),  # retry while still pending
        json.dumps({"id": 6, "op": "expire", "pipeline": "web",
                    "now": 0.2}).encode(),  # barrier: flushes r4
        _admit_frame(7, 7, "r7"),  # queued: compaction deferred
        json.dumps({"id": 8, "op": "stats", "pipeline": "web"}).encode(),
        b'{"id": 9, "op": "health"}',
    ]

    def test_matches_per_line_loop(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        fused = _durable(tmp_path / "a", snapshot_every=3)
        fused_routed = fused.handle_frames(self.FRAMES, origin="c")
        mirrored = _durable(tmp_path / "b", snapshot_every=3)
        mirrored_routed = []
        for raw in self.FRAMES:
            line = raw.decode("utf-8", errors="replace").strip()
            if line:
                mirrored_routed.extend(mirrored.handle_line(line, "c"))
        assert fused_routed == mirrored_routed
        fused.journal.close()
        mirrored.journal.close()
        for name in ("journal.ndjson", "snapshot.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

        responses = {}
        for _, line in fused_routed:
            doc = json.loads(line)
            responses.setdefault(doc["id"], doc)
        assert responses[1]["admitted"] is True
        assert responses[2]["admitted"] is True
        assert responses[3] == dict(responses[1], id=3)  # cached decision
        assert responses[5]["error"] == "duplicate-request"
        assert responses[4]["admitted"] is True
        assert responses[7]["admitted"] is True
        assert fused.gateway.dedup_hits == 1
        # Compaction ran mid-chunk after the 3rd journaled op, skipped
        # at the 6th (r7 pending), and ran at the 7th (stats flushed
        # it); the retries were never journaled.
        snapshot = json.loads((tmp_path / "a" / "snapshot.json").read_text())
        assert snapshot["seq"] == 7
        assert fused.journal.last_seq == 7
        assert scan_journal(tmp_path / "a" / "journal.ndjson").records == []
