"""The ``repro-serve`` command line: run the online gateway.

Installed as a console script by ``setup.py`` and runnable without
installation as ``python -m repro.server``::

    repro-serve models/                     # serve latest published version
    repro-serve models/ --port 9000 --watch-interval 5
    repro-serve models/ --pin v0001-1f0f2a9c
    repro-serve path/to/model_dir           # a bare artifact dir works too
    repro-serve models/ --max-batch-size 64
    repro-serve models/ --workers 4         # pre-fork pool, mmap'd weights

The positional argument is an *artifact root* (subdirectories published
by ``repro publish`` / :func:`repro.server.registry.publish_artifact`) or
a single ``DSSDDI.save`` artifact directory.  ``--watch-interval N``
hot-swaps automatically when a new version lands; ``POST /-/reload``
always triggers a swap on demand.

``--workers N`` switches to the pre-fork pool
(:mod:`repro.server.pool`): the parent binds the socket and supervises,
N forked workers serve it, each memory-mapping the artifact so the model
weights exist once in physical memory however many workers run.  Without
``--workers`` the classic single-process gateway runs, unchanged.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import List, Optional

from ..core.config import ServerConfig
from .app import GatewayApp
from .http import build_server
from .registry import ModelRegistry, NoModelError, scan_versions


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser (exposed for docs and tests)."""
    defaults = ServerConfig()
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Online serving gateway for DSSDDI artifacts: micro-batched "
            "/v1/suggest, /v1/explain, /healthz, /metrics, hot-swap reload."
        ),
    )
    parser.add_argument(
        "root",
        help="artifact root (versions published by 'repro publish') or a "
        "single DSSDDI.save artifact directory",
    )
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="run a pre-fork pool of N worker processes over one shared "
        "listening socket (omit for the single-process gateway)",
    )
    parser.add_argument(
        "--stats-dir", default=None,
        help="pool only: directory for pool.json and per-worker stats "
        "snapshots (default: a fresh temp directory, printed at startup)",
    )
    parser.add_argument(
        "--mmap", dest="mmap_artifacts", action="store_true", default=None,
        help="memory-map artifact arrays instead of copying them "
        "(the pool default; opt-in for the single-process gateway)",
    )
    parser.add_argument(
        "--no-mmap", dest="mmap_artifacts", action="store_false",
        help="load artifact arrays as in-memory copies even in the pool",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=defaults.drain_timeout_s,
        help="pool only: seconds a SIGTERM'd worker waits for in-flight "
        "requests before giving up",
    )
    parser.add_argument(
        "--stats-interval", type=float, default=defaults.stats_interval_s,
        help="pool only: seconds between per-worker stats snapshots",
    )
    parser.add_argument(
        "--max-batch-size", type=int, default=defaults.max_batch_size,
        help="most patient rows per micro-batch flush (1 disables "
        "coalescing)",
    )
    parser.add_argument(
        "--pin", dest="pinned_version", default=None,
        help="serve exactly this version instead of the latest",
    )
    parser.add_argument(
        "--watch-interval", type=float, default=defaults.watch_interval_s,
        help="seconds between artifact-root polls for auto hot-swap "
        "(0 disables the watcher)",
    )
    parser.add_argument(
        "--max-request-rows", type=int, default=defaults.max_request_rows,
        help="per-request cap on patient rows",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=defaults.deadline_ms,
        help="per-request time budget (queue wait + scoring) in "
        "milliseconds; expired requests get 503 + Retry-After "
        "(0 disables)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=defaults.queue_limit,
        help="shed new requests with 503 once this many patient rows are "
        "queued in the micro-batcher (0 = unbounded)",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=defaults.breaker_threshold,
        help="consecutive scoring failures that trip the circuit breaker "
        "into degraded mode (0 disables the breaker)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=defaults.breaker_cooldown_s,
        help="seconds a tripped breaker rejects requests before probing "
        "the scoring path again",
    )
    parser.add_argument(
        "--trace-sample", type=float, default=defaults.trace_sample,
        help="fraction of requests traced by repro.obs (0 = only "
        "requests carrying an X-Repro-Trace header, 1 = everything); "
        "spans are served by GET /v1/trace",
    )
    parser.add_argument(
        "--trace-ring", type=int, default=defaults.trace_ring,
        help="finished spans kept in memory per process for GET /v1/trace",
    )
    parser.add_argument(
        "--trace-log", default=defaults.trace_log, metavar="FILE",
        help="append every finished span to this JSONL file "
        "(size-rotated; off by default)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    """Build a validated :class:`ServerConfig` from parsed CLI flags."""
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers if args.workers is not None else 1,
        mmap_artifacts=args.mmap_artifacts,
        drain_timeout_s=args.drain_timeout,
        stats_interval_s=args.stats_interval,
        max_batch_size=args.max_batch_size,
        max_request_rows=args.max_request_rows,
        pinned_version=args.pinned_version,
        watch_interval_s=args.watch_interval,
        deadline_ms=args.deadline_ms,
        queue_limit=args.queue_limit,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        trace_sample=args.trace_sample,
        trace_ring=args.trace_ring,
        trace_log=args.trace_log,
    )
    config.validate()
    return config


def _run_pool(args: argparse.Namespace, config: ServerConfig) -> int:
    """The ``--workers N`` path: supervise a pre-fork pool until SIGTERM."""
    from .pool import WorkerSupervisor

    # Fail fast in the parent (exit 2 + hint) rather than letting every
    # forked worker crash-loop against an empty root.
    if not scan_versions(args.root):
        print(f"error: no model versions under {args.root}", file=sys.stderr)
        print(
            "hint: publish one with "
            "'repro publish --scale tiny --model-root <root>' or point "
            "repro-serve at a DSSDDI.save directory",
            file=sys.stderr,
        )
        return 2
    stats_dir = args.stats_dir or tempfile.mkdtemp(prefix="repro-pool-")
    # Workers default to mmap (the point of the pool: one physical copy
    # of the weights); --no-mmap restores per-worker copies.
    mmap_mode = None if config.mmap_artifacts is False else "r"
    supervisor = WorkerSupervisor(
        args.root,
        config,
        stats_dir,
        verbose=args.verbose,
        mmap_mode=mmap_mode,
    )
    print(
        f"pool: {config.workers} workers (supervisor pid {os.getpid()}) "
        f"on http://{supervisor.host}:{supervisor.port}"
    )
    print(
        f"pool: artifacts {'memory-mapped' if mmap_mode else 'copied'}; "
        f"stats + pool.json in {stats_dir}"
    )
    print(
        f"micro-batching: max_batch_size={config.max_batch_size}; "
        f"watch_interval_s={config.watch_interval_s}, "
        f"drain_timeout_s={config.drain_timeout_s}",
        flush=True,
    )
    return supervisor.run()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-serve`` console script."""
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers is not None:
        return _run_pool(args, config)
    registry = ModelRegistry(
        args.root,
        pinned_version=config.pinned_version,
        mmap_mode="r" if config.mmap_artifacts else None,
    )
    try:
        app = GatewayApp(registry, config)
    except NoModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: publish one with "
            "'repro publish --scale tiny --model-root <root>' or point "
            "repro-serve at a DSSDDI.save directory",
            file=sys.stderr,
        )
        return 2
    server = build_server(app, host=config.host, port=config.port, verbose=args.verbose)
    handle = registry.active()
    print(
        f"serving {handle.version.name} "
        f"(drugs={handle.service.num_drugs}, "
        f"feature_dim={handle.service.feature_dim}) "
        f"on http://{config.host}:{server.server_address[1]}"
    )
    print(
        f"micro-batching: max_batch_size={config.max_batch_size}; "
        f"watch_interval_s={config.watch_interval_s}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
        app.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
