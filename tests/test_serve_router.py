"""Shard map, worker-side enforcement, and client-side re-resolution."""

import json
from types import SimpleNamespace

import pytest

from repro.serve import gateway as gateway_module
from repro.serve import journal as journal_module
from repro.serve import protocol as protocol_module
from repro.serve import router as router_module
from repro.serve.client import GatewayClient, GatewayError, InProcessTransport
from repro.serve.gateway import AdmissionGateway
from repro.serve.journal import DurableGateway, Journal, scan_journal
from repro.serve.protocol import ProtocolError, encode
from repro.serve.router import (
    SHARD_MAP_FORMAT,
    ShardGateway,
    ShardMap,
    ShardRouter,
    partition_names,
    wrong_shard_response,
)

POLICY = {"num_stages": 2, "alpha": 0.9}


class TestShardMap:
    def test_hashing_is_stable_and_in_range(self):
        shard_map = ShardMap(shards=3)
        for name in ("api", "img", "web", "etl", "x" * 50):
            shard = shard_map.shard_of(name)
            assert 0 <= shard < 3
            assert shard_map.shard_of(name) == shard

    def test_explicit_assignment_overrides_hash(self):
        shard_map = ShardMap(shards=4, assignments=(("api", 3),))
        assert shard_map.shard_of("api") == 3

    def test_balanced_covers_every_shard(self):
        shard_map = ShardMap.balanced(["a", "b", "c", "d", "e"], 3)
        owners = {shard_map.shard_of(n) for n in "abcde"}
        assert owners == {0, 1, 2}
        # Deterministic: sorted names round-robin.
        assert shard_map.shard_of("a") == 0
        assert shard_map.shard_of("b") == 1
        assert shard_map.shard_of("c") == 2
        assert shard_map.shard_of("d") == 0

    def test_assign_bumps_version_and_replaces(self):
        first = ShardMap.balanced(["a", "b"], 2)
        second = first.assign("a", 1)
        assert second.version == first.version + 1
        assert second.shard_of("a") == 1
        assert first.shard_of("a") == 0  # immutable

    def test_wire_round_trip(self):
        shard_map = ShardMap.balanced(["a", "b", "c"], 2, version=7)
        doc = shard_map.to_wire()
        assert doc["format"] == SHARD_MAP_FORMAT
        assert ShardMap.from_wire(doc) == shard_map

    def test_from_wire_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            ShardMap.from_wire({"format": "nope"})
        with pytest.raises(ProtocolError):
            ShardMap.from_wire({"format": SHARD_MAP_FORMAT, "shards": 2})

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(shards=0)
        with pytest.raises(ValueError):
            ShardMap(shards=2, assignments=(("a", 5),))
        with pytest.raises(ValueError):
            ShardMap(shards=2, assignments=(("a", 0), ("a", 1)))

    def test_partition_names_groups_by_owner(self):
        shard_map = ShardMap.balanced(["a", "b", "c"], 2)
        grouped = partition_names(["a", "b", "c"], shard_map)
        assert grouped == {0: ["a", "c"], 1: ["b"]}


def _register_line(name, request_id=1):
    return encode(
        {
            "id": request_id,
            "rid": f"r{request_id}",
            "op": "register",
            "pipeline": name,
            "policy": dict(POLICY),
        }
    )


class TestShardGateway:
    def _gateway(self, shard=0, names=("owned", "foreign")):
        shard_map = ShardMap(
            shards=2, assignments=((names[0], 0), (names[1], 1))
        )
        return ShardGateway(AdmissionGateway(), shard, shard_map)

    def test_owned_pipeline_passes_through(self):
        gateway = self._gateway()
        routed = gateway.handle_line(_register_line("owned"))
        assert json.loads(routed[0][1])["ok"] is True

    def test_foreign_pipeline_bounces_with_map(self):
        gateway = self._gateway()
        routed = gateway.handle_line(_register_line("foreign"))
        response = json.loads(routed[0][1])
        assert response["ok"] is False
        assert response["error"] == "wrong-shard"
        assert response["shard"] == 1
        assert ShardMap.from_wire(response["map"]).shard_of("foreign") == 1
        assert gateway.bounced == 1

    def test_bounce_never_touches_journal_or_dedup(self, tmp_path):
        journal = Journal(tmp_path / "j.ndjson")
        durable = DurableGateway(
            AdmissionGateway(), journal, tmp_path / "s.json"
        )
        shard_map = ShardMap(shards=2, assignments=(("foreign", 1),))
        gateway = ShardGateway(durable, 0, shard_map)
        try:
            gateway.handle_line(_register_line("foreign"))
            assert journal.last_seq == 0
            assert durable.gateway.dedup_status("r1") == "unknown"
        finally:
            durable.close()

    def test_ops_without_pipeline_pass_through(self):
        gateway = self._gateway()
        routed = gateway.handle_line('{"id":1,"op":"health"}')
        assert json.loads(routed[0][1])["ok"] is True

    def test_unparseable_lines_pass_to_inner_error_path(self):
        gateway = self._gateway()
        routed = gateway.handle_line("{nope")
        response = json.loads(routed[0][1])
        assert response["error"] == "bad-json"
        assert gateway.bounced == 0

    def test_install_map_refuses_rollback(self):
        gateway = self._gateway()
        newer = gateway.shard_map.assign("owned", 0)
        gateway.install_map(newer)
        with pytest.raises(ValueError):
            gateway.install_map(ShardMap(shards=2, version=1))


class TestShardRouter:
    def _fleet(self):
        """Two shard gateways over one logical namespace + a router."""
        shard_map = ShardMap(shards=2, assignments=(("a", 0), ("b", 1)))
        workers = [
            ShardGateway(AdmissionGateway(), shard, shard_map)
            for shard in range(2)
        ]
        router = ShardRouter(
            shard_map,
            connect=lambda shard: GatewayClient(
                InProcessTransport(workers[shard])
            ),
        )
        return workers, router

    def test_routes_to_owner(self):
        workers, router = self._fleet()
        response = router.call("register", pipeline="a", policy=dict(POLICY))
        assert response["ok"] is True
        assert workers[0].inner.registry.names() == ["a"]
        assert workers[1].inner.registry.names() == []

    def test_stale_map_re_resolves_from_bounce(self):
        workers, router = self._fleet()
        router.call("register", pipeline="a", policy=dict(POLICY))
        # The cluster rebalances "a" to shard 1 behind the router's back.
        newer = workers[0].shard_map.assign("a", 1)
        for worker in workers:
            worker.install_map(newer)
        # Move the state too, mirroring what the supervisor would do.
        snap = [
            json.loads(r)
            for _, r in workers[0].inner.handle_line(
                '{"id":9,"op":"snapshot","pipeline":"a"}'
            )
        ][0]["snapshot"]
        workers[0].inner.handle_line('{"id":10,"op":"unregister","pipeline":"a"}')
        workers[1].inner.handle_line(
            encode({"id": 11, "op": "restore", "pipeline": "a", "snapshot": snap})
        )
        response = router.call("expire", pipeline="a", now=0.5)
        assert response["ok"] is True
        assert router.stale_resolves == 1
        assert router.shard_map.version == newer.version

    def test_persistent_wrong_shard_raises(self):
        workers, router = self._fleet()
        # A worker whose map claims it owns nothing it serves: the
        # bounce re-resolves to the same shard, which is a topology
        # bug, not staleness — the router must raise, not loop.
        broken = ShardMap(shards=2, version=5, assignments=(("a", 1),))
        workers[1].install_map(broken)
        workers[0].install_map(broken)
        workers[1].shard = 0  # worker claims shard 0 while serving slot 1
        with pytest.raises(GatewayError) as excinfo:
            router.call("register", pipeline="a", policy=dict(POLICY))
        assert excinfo.value.code == "wrong-shard"

    def test_non_routing_errors_pass_through(self):
        workers, router = self._fleet()
        with pytest.raises(GatewayError) as excinfo:
            router.call("expire", pipeline="a", now=1.0)
        assert excinfo.value.code == "unknown-pipeline"


class TestWrongShardResponse:
    def test_payload_shape(self):
        shard_map = ShardMap(shards=2, assignments=(("a", 1),))
        line = wrong_shard_response(
            {"id": 4, "op": "admit", "pipeline": "a"}, 1, shard_map
        )
        doc = json.loads(line)
        assert doc["id"] == 4
        assert doc["error"] == "wrong-shard"
        assert doc["shard"] == 1
        assert doc["map"]["format"] == SHARD_MAP_FORMAT


class TestShardHandleFrames:
    """The shard wrapper's chunk ingest is the per-line loop, exactly.

    One chunk can mix owned and foreign pipelines, so every line needs
    its own ownership check — only the unsharded inner core fuses
    chunks.  Responses (including bounces) must match the decode/
    strip/``handle_line`` loop line for line.
    """

    def test_matches_per_line_loop(self):
        shard_map = ShardMap(
            shards=2, assignments=(("owned", 0), ("foreign", 1))
        )
        frames = [
            _register_line("owned", 1).encode(),
            _register_line("foreign", 2).encode(),  # bounce
            b"  ",
            b"garbage",
            encode({"id": 3, "op": "stats", "pipeline": "owned"}).encode(),
        ]
        fused = ShardGateway(AdmissionGateway(), 0, shard_map)
        fused_routed = fused.handle_frames(frames, origin="c")
        mirrored = ShardGateway(AdmissionGateway(), 0, shard_map)
        mirrored_routed = []
        for raw in frames:
            line = raw.decode("utf-8", errors="replace").strip()
            if line:
                mirrored_routed.extend(mirrored.handle_line(line, "c"))
        assert fused_routed == mirrored_routed
        assert fused.bounced == mirrored.bounced == 1

    @staticmethod
    def _durable_stack(path, shard_map):
        journal = Journal(path / "journal.ndjson")
        durable = DurableGateway(
            AdmissionGateway(), journal, path / "snapshot.json", snapshot_every=0
        )
        return ShardGateway(durable, 0, shard_map), durable

    @staticmethod
    def _interleaved_frames():
        """Owned and wrong-shard requests, alternating, in one chunk."""
        def admit(request_id, name):
            return encode({
                "id": request_id, "rid": f"r{request_id}", "op": "admit",
                "pipeline": name,
                "task": {"task_id": request_id, "arrival": 0.0,
                         "deadline": 1.0, "costs": [0.01, 0.01]},
            })

        return [
            _register_line("owned", 1).encode(),
            _register_line("foreign", 2).encode(),
            admit(3, "owned").encode(),
            admit(4, "foreign").encode(),
            admit(5, "owned").encode(),
            b"garbage",
            encode({"id": 6, "op": "expire", "pipeline": "foreign",
                    "now": 0.5}).encode(),
            encode({"id": 7, "op": "stats", "pipeline": "owned"}).encode(),
            b'{"id": 8, "op": "health"}',
        ]

    def test_durable_inner_keeps_order_and_journals_only_owned(self, tmp_path):
        shard_map = ShardMap(
            shards=2, assignments=(("owned", 0), ("foreign", 1))
        )
        frames = self._interleaved_frames()
        (tmp_path / "fused").mkdir()
        (tmp_path / "mirror").mkdir()
        fused, fused_durable = self._durable_stack(tmp_path / "fused", shard_map)
        mirrored, mirrored_durable = self._durable_stack(
            tmp_path / "mirror", shard_map
        )
        try:
            routed = fused.handle_frames(frames, origin="c")
            mirrored_routed = []
            for raw in frames:
                mirrored_routed.extend(mirrored.handle_line(raw.decode(), "c"))
        finally:
            fused_durable.close()
            mirrored_durable.close()
        assert routed == mirrored_routed
        responses = [json.loads(line) for _, line in routed]
        # One response per request, in request order (the garbage
        # frame's error carries no id echo).
        assert [r["id"] for r in responses] == [1, 2, 3, 4, 5, None, 6, 7, 8]
        assert [r.get("error") for r in responses] == [
            None, "wrong-shard", None, "wrong-shard", None, "bad-json",
            "wrong-shard", None, None,
        ]
        assert responses[2]["admitted"] and responses[4]["admitted"]
        assert fused.bounced == 3
        records = scan_journal(tmp_path / "fused" / "journal.ndjson").records
        assert [(r["op"]["op"], r["op"]["id"]) for r in records] == [
            ("register", 1), ("admit", 3), ("admit", 5), ("stats", 7),
        ]
        assert {r["op"]["pipeline"] for r in records} == {"owned"}
        assert (tmp_path / "fused" / "journal.ndjson").read_bytes() == (
            tmp_path / "mirror" / "journal.ndjson"
        ).read_bytes()

    def test_each_request_is_decoded_once(self, tmp_path, monkeypatch):
        """Shard -> durable -> core decodes each request exactly once:
        the outermost layer decodes, the inner layers journal or bounce
        the same dict."""
        decoded = []
        real = protocol_module.parse_request

        def counting(line):
            decoded.append(line)
            return real(line)

        modules = (protocol_module, gateway_module, journal_module, router_module)
        for module in modules:
            if hasattr(module, "parse_request"):
                monkeypatch.setattr(module, "parse_request", counting)
        loads = []
        orjson = protocol_module.orjson
        if orjson is not None:
            def counting_loads(raw):
                loads.append(raw)
                return orjson.loads(raw)

            shim = SimpleNamespace(loads=counting_loads)
            for module in modules:
                if getattr(module, "orjson", None) is orjson:
                    monkeypatch.setattr(module, "orjson", shim)
        shard_map = ShardMap(
            shards=2, assignments=(("owned", 0), ("foreign", 1))
        )
        frames = [f for f in self._interleaved_frames() if f != b"garbage"]
        gateway, durable = self._durable_stack(tmp_path, shard_map)
        try:
            routed = gateway.handle_frames(frames, origin="c")
        finally:
            durable.close()
        assert len(routed) == len(frames)
        assert len(decoded) == len(frames)
        assert decoded == frames
        if orjson is not None:
            assert len(loads) == len(frames)

