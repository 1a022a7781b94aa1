"""Run a standalone gateway server: ``python -m repro.serve``.

With ``--state-dir`` the gateway is *durable*: it recovers from the
directory's snapshot + journal on startup (creating both on first
run), then journals every state-mutating operation before applying
it.  Kill the process at any point and restart with the same
``--state-dir`` — admitted state, batching queues, and the idempotency
window come back bitwise identical (see ``repro.serve.recovery``).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from .gateway import serve_forever
from .journal import DEFAULT_SNAPSHOT_EVERY


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the admission-control gateway over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks a free port)"
    )
    parser.add_argument(
        "--state-dir",
        help="durable mode: recover from (and journal to) this directory",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the journal after every record (durable mode only)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=DEFAULT_SNAPSHOT_EVERY,
        help="compact the journal into a snapshot every N journaled ops",
    )
    parser.add_argument(
        "--shard-index",
        type=int,
        help="fleet mode: serve only pipelines this shard owns",
    )
    parser.add_argument(
        "--shard-count",
        type=int,
        help="fleet mode: total shards in the pipeline->shard map",
    )
    parser.add_argument(
        "--map-version",
        type=int,
        default=1,
        help="fleet mode: version of the installed shard map",
    )
    parser.add_argument(
        "--transport",
        choices=("stdlib",),
        default="stdlib",
        help="event-loop backend; the stdlib asyncio loop is the only one",
    )
    args = parser.parse_args(argv)
    if (args.shard_index is None) != (args.shard_count is None):
        parser.error("--shard-index and --shard-count must be given together")
    durable = None
    gateway = None
    if args.state_dir is not None:
        from .recovery import recover

        durable, report = recover(
            args.state_dir,
            fsync=args.fsync,
            snapshot_every=args.snapshot_every,
        )
        gateway = durable
        print(
            f"recovered from {args.state_dir}: "
            f"snapshot_seq={report.snapshot_seq} replayed={report.replayed} "
            f"truncated_bytes={report.truncated_bytes} "
            f"pipelines={report.pipelines}",
            flush=True,
        )
    elif args.fsync:
        parser.error("--fsync requires --state-dir")
    if args.shard_index is not None:
        from .gateway import AdmissionGateway
        from .router import ShardGateway, ShardMap

        shard_map = ShardMap(shards=args.shard_count, version=args.map_version)
        gateway = ShardGateway(
            gateway if gateway is not None else AdmissionGateway(),
            args.shard_index,
            shard_map,
        )
        print(
            f"shard {args.shard_index}/{args.shard_count} "
            f"(map version {shard_map.version})",
            flush=True,
        )
    try:
        asyncio.run(serve_forever(args.host, args.port, gateway))
    except KeyboardInterrupt:
        pass
    finally:
        if durable is not None:
            durable.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
