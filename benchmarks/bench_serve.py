"""Throughput and latency benchmarks for the serving layer.

Five costs the gateway adds around the core admission test:

- protocol round trips (parse, dispatch, decide, encode) through the
  in-process transport — the full stack minus sockets;
- batched admission (``admit_many``) vs a sequential ``request`` loop
  at the same virtual timestamps, the amortization the batch queue buys;
- snapshot/restore of a controller with live admitted state;
- the end-to-end load generator on the webserver scenario, the number
  `make serve-smoke` exercises;
- write-ahead journaling: the same admit stream with the journal off,
  on (buffered), and on with per-record fsync — the durability tax.
"""

import json
import random
import time

from repro.core.admission import PipelineAdmissionController
from repro.core.task import make_task
from repro.serve.client import GatewayClient, InProcessTransport
from repro.serve.gateway import AdmissionGateway, GatewayServer
from repro.serve.journal import DurableGateway, Journal
from repro.serve.loadgen import run_scenario
from repro.serve.protocol import NdjsonFramer, task_to_wire
from repro.serve.snapshot import controller_snapshot, restore_controller

from conftest import run_once

NUM_STAGES = 3
TRACE_LEN = 2000


def _trace(seed, count=TRACE_LEN, num_stages=NUM_STAGES):
    rng = random.Random(seed)
    t = 0.0
    tasks = []
    for task_id in range(count):
        t += rng.expovariate(100.0)
        tasks.append(
            make_task(
                arrival_time=t,
                deadline=rng.uniform(0.5, 2.0),
                computation_times=[
                    rng.expovariate(1.0 / 0.004) for _ in range(num_stages)
                ],
                importance=rng.randrange(3),
                task_id=task_id,
            )
        )
    return tasks


def test_gateway_protocol_round_trips(benchmark):
    tasks = _trace(seed=0)

    def run():
        client = GatewayClient(InProcessTransport(AdmissionGateway()))
        client.register("bench", {"num_stages": NUM_STAGES})
        admitted = 0
        for task in tasks:
            if client.admit("bench", task)["admitted"]:
                admitted += 1
        return admitted

    admitted = run_once(benchmark, run)
    assert 0 < admitted <= TRACE_LEN


def test_sequential_request_loop(benchmark):
    tasks = _trace(seed=0)

    def run():
        controller = PipelineAdmissionController(NUM_STAGES)
        return sum(
            controller.request(task, task.arrival_time).admitted
            for task in tasks
        )

    admitted = run_once(benchmark, run)
    assert 0 < admitted <= TRACE_LEN


def test_batched_admit_many(benchmark):
    tasks = _trace(seed=0)

    def run():
        controller = PipelineAdmissionController(NUM_STAGES)
        return sum(d.admitted for d in controller.admit_many(tasks))

    admitted = run_once(benchmark, run)
    # Amortized path must agree with the sequential loop above.
    reference = PipelineAdmissionController(NUM_STAGES)
    assert admitted == sum(
        reference.request(task, task.arrival_time).admitted for task in tasks
    )


def test_snapshot_restore_round_trip(benchmark):
    controller = PipelineAdmissionController(NUM_STAGES)
    for task in _trace(seed=1, count=500):
        # Long deadlines keep every record live at snapshot time.
        controller.request(
            make_task(
                arrival_time=task.arrival_time,
                deadline=1000.0,
                computation_times=[c * 0.01 for c in task.computation_times],
                task_id=task.task_id,
            ),
            task.arrival_time,
        )
    live = len(controller.iter_admitted())
    assert live > 100

    def round_trip():
        return restore_controller(controller_snapshot(controller))

    restored = run_once(benchmark, round_trip)
    assert len(restored.iter_admitted()) == live


def test_loadgen_webserver_scenario(benchmark):
    report = run_once(benchmark, run_scenario, "webserver", 0, 500)
    assert report["traffic"]["missed"] == 0
    assert report["traffic"]["admitted"] == 500


# ----------------------------------------------------------------------
# Batch-size sweep: the framed ingest path at max_batch 1/8/32/128.
# ----------------------------------------------------------------------

BATCH_SWEEP = (1, 8, 32, 128)


def test_gateway_batch_size_sweep(benchmark):
    """Framed ingest throughput as the admission batch size grows.

    The same NDJSON payload — register plus ``TRACE_LEN`` admits —
    fed through ``NdjsonFramer`` in 64 KiB chunks and
    ``handle_frames``, once per ``max_batch`` in ``BATCH_SWEEP``.
    Batch 1 runs the admission lane one row per flush; larger
    batches amortize its hoisted reads and the batched response
    encoder over the whole flush.  Prints the ops/s curve so regressions
    in *scaling* (not just the batch-32 point the smoke gate pins)
    stay visible in ``BENCH_serve.json`` runs.
    """
    tasks = _trace(seed=3)
    admit_lines = [
        json.dumps({
            "id": task.task_id,
            "op": "admit",
            "pipeline": "bench",
            "task": task_to_wire(task),
        })
        for task in tasks
    ]
    chunk_size = GatewayServer.READ_CHUNK
    results = {}

    def sweep():
        for max_batch in BATCH_SWEEP:
            register = json.dumps({
                "id": -1, "op": "register", "pipeline": "bench",
                "policy": {"num_stages": NUM_STAGES, "max_batch": max_batch},
            })
            payload = ("\n".join([register] + admit_lines) + "\n").encode()
            chunks = [
                payload[i:i + chunk_size]
                for i in range(0, len(payload), chunk_size)
            ]
            gateway = AdmissionGateway()
            framer = NdjsonFramer(GatewayServer.READER_LIMIT)
            start = time.perf_counter()
            responses = 0
            for chunk in chunks:
                frames = framer.feed(chunk)
                if frames:
                    responses += len(gateway.handle_frames(frames))
            responses += len(gateway.drain())
            results[max_batch] = {
                "seconds": time.perf_counter() - start,
                "responses": responses,
            }
        return results

    run_once(benchmark, sweep)
    print("\ngateway framed ingest, batch-size sweep:")
    for max_batch, row in results.items():
        assert row["responses"] == TRACE_LEN + 1
        print(
            f"  max_batch {max_batch:>4}: "
            f"{TRACE_LEN / row['seconds']:>10,.0f} ops/s"
        )


# ----------------------------------------------------------------------
# Journal overhead: the same admit stream, journal off / on / on+fsync.
# ----------------------------------------------------------------------

JOURNAL_TRACE_LEN = 500


def _admit_lines(count=JOURNAL_TRACE_LEN, num_stages=NUM_STAGES):
    lines = [
        json.dumps(
            {
                "id": 0,
                "op": "register",
                "pipeline": "bench",
                "policy": {"num_stages": num_stages},
            }
        )
    ]
    for n, task in enumerate(_trace(seed=2, count=count), start=1):
        lines.append(
            json.dumps(
                {
                    "id": n,
                    "op": "admit",
                    "pipeline": "bench",
                    "task": {
                        "task_id": task.task_id,
                        "arrival": task.arrival_time,
                        "deadline": task.arrival_time + task.deadline,
                        "costs": list(task.computation_times),
                    },
                }
            )
        )
    return lines


def _drive_lines(gateway, lines):
    admitted = 0
    for line in lines:
        for _, response in gateway.handle_line(line):
            if json.loads(response).get("admitted"):
                admitted += 1
    return admitted


def _assert_admits(admitted):
    assert 0 < admitted <= JOURNAL_TRACE_LEN


def test_admit_stream_journal_off(benchmark):
    lines = _admit_lines()
    _assert_admits(run_once(benchmark, lambda: _drive_lines(AdmissionGateway(), lines)))


def _durable_run(tmp_path, lines, fsync, tag):
    journal = Journal(tmp_path / f"{tag}.ndjson", fsync=fsync)
    durable = DurableGateway(
        AdmissionGateway(), journal, tmp_path / f"{tag}.snapshot.json",
        snapshot_every=0,
    )
    try:
        return _drive_lines(durable, lines)
    finally:
        durable.close()
        journal.path.unlink(missing_ok=True)


def test_admit_stream_journal_on(benchmark, tmp_path):
    lines = _admit_lines()
    _assert_admits(
        run_once(benchmark, lambda: _durable_run(tmp_path, lines, False, "buffered"))
    )


def test_admit_stream_journal_fsync(benchmark, tmp_path):
    lines = _admit_lines()
    _assert_admits(
        run_once(benchmark, lambda: _durable_run(tmp_path, lines, True, "fsync"))
    )


# ----------------------------------------------------------------------
# Fleet overhead: shard enforcement on the hot path, and a supervised
# 3-worker fleet (routing + durable workers + one heartbeat round).
# ----------------------------------------------------------------------


def test_admit_stream_shard_gateway(benchmark):
    # The same stream as the journal benchmarks, behind ownership
    # enforcement: measures the per-line cost of the shard bounce check
    # when every request is correctly routed (the common case).
    from repro.serve.router import ShardGateway, ShardMap

    lines = _admit_lines()
    shard_map = ShardMap(shards=3, assignments=(("bench", 0),))

    def run():
        return _drive_lines(ShardGateway(AdmissionGateway(), 0, shard_map), lines)

    _assert_admits(run_once(benchmark, run))


def test_fleet_dispatch_three_workers(benchmark, tmp_path):
    from repro.serve.fleet import FleetSupervisor
    from repro.serve.router import ShardMap

    names = ["bench-a", "bench-b", "bench-c"]
    docs = []
    for shard, name in enumerate(names):
        docs.append(
            {
                "id": f"reg-{shard}",
                "op": "register",
                "pipeline": name,
                "policy": {"num_stages": NUM_STAGES},
            }
        )
    for n, task in enumerate(_trace(seed=3, count=JOURNAL_TRACE_LEN), start=1):
        docs.append(
            {
                "id": n,
                "op": "admit",
                "pipeline": names[n % len(names)],
                "task": {
                    "task_id": task.task_id,
                    "arrival": task.arrival_time,
                    "deadline": task.arrival_time + task.deadline,
                    "costs": list(task.computation_times),
                },
            }
        )

    def run(root):
        fleet = FleetSupervisor(
            3, root, shard_map=ShardMap.balanced(names, 3), snapshot_every=0
        )
        fleet.start()
        try:
            admitted = 0
            for doc in docs:
                for response in fleet.dispatch(doc):
                    if json.loads(response).get("admitted"):
                        admitted += 1
            fleet.probe()
            return admitted
        finally:
            fleet.close()

    runs = iter(range(1_000_000))
    admitted = run_once(
        benchmark, lambda: run(tmp_path / f"fleet-{next(runs)}")
    )
    _assert_admits(admitted)
