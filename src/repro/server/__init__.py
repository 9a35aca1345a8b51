"""Online serving gateway: the network tier over :mod:`repro.serving`.

PR 1 made fit-once/serve-many possible in-process; this package makes it
a *service*: a threaded HTTP gateway that coalesces concurrent requests
into the batched scorer, hot-swaps model versions without dropping a
request, and exposes Prometheus metrics.

* :mod:`repro.server.batcher` — :class:`MicroBatcher`, dynamic
  micro-batching that flushes whenever its flusher is free.
* :mod:`repro.server.registry` — :class:`ModelRegistry`,
  :func:`publish_artifact`: versioned artifact root with atomic
  publication, pin-or-latest selection, hot-swap, pruning.
* :mod:`repro.server.app` — :class:`GatewayApp`, the
  transport-independent request handlers (deadline budgets, admission
  control, degraded mode).
* :mod:`repro.server.resilience` — :class:`CircuitBreaker` around the
  scoring path plus the jittered retry backoff the load generator uses.
* :mod:`repro.server.http` — the stdlib threaded HTTP shim (with
  inherited-socket support and graceful-drain request tracking).
* :mod:`repro.server.pool` — the pre-fork worker pool: one shared
  listening socket, N supervised worker processes, mmap'd artifacts.
* :mod:`repro.server.stats` — the pool's cross-process stats board
  (per-worker metrics snapshots merged into ``repro_pool_*`` families).
  The metrics registry itself is :mod:`repro.obs.metrics`.
* :mod:`repro.server.loadgen` — closed- and open-loop load generator
  writing ``.benchmarks/BENCH_server.json``.
* :mod:`repro.server.cli` — the ``repro-serve`` console script.

Quickstart::

    repro publish --scale small --model-root models/   # pipeline -> artifact
    repro-serve models/ --watch-interval 5             # serve + auto hot-swap
    repro-serve models/ --workers 4                    # pre-fork pool

    curl -s localhost:8035/healthz
    curl -s -X POST localhost:8035/v1/suggest \
         -d '{"features": [[0.1, 0.2, ...]], "k": 3}'

In-process::

    registry = ModelRegistry("models/")
    with GatewayApp(registry, ServerConfig()) as app:
        status, body = app.suggest({"features": x.tolist(), "k": 3})
"""

from ..core.config import ServerConfig
from .app import GatewayApp, RequestError
from .batcher import BatcherClosed, MicroBatcher, SubmitTimeout
from .http import RequestTracker, build_server, serve_in_thread
from .pool import WorkerSupervisor, backoff_delay, create_listen_socket, worker_main
from .resilience import CircuitBreaker
from .stats import StatsBoard, read_pool_state, write_pool_state
from .registry import (
    ModelRegistry,
    ModelVersion,
    NoModelError,
    ServingHandle,
    prune_versions,
    publish_artifact,
    scan_versions,
)

# The load generator (repro.server.loadgen) is deliberately not imported
# here: it doubles as a ``python -m repro.server.loadgen`` entry point,
# and importing it from the package __init__ would shadow that module
# execution (runpy's "found in sys.modules" warning).

__all__ = [
    "ServerConfig",
    "GatewayApp",
    "RequestError",
    "MicroBatcher",
    "BatcherClosed",
    "SubmitTimeout",
    "build_server",
    "serve_in_thread",
    "RequestTracker",
    "WorkerSupervisor",
    "worker_main",
    "create_listen_socket",
    "backoff_delay",
    "CircuitBreaker",
    "StatsBoard",
    "read_pool_state",
    "write_pool_state",
    "ModelRegistry",
    "ModelVersion",
    "ServingHandle",
    "NoModelError",
    "publish_artifact",
    "scan_versions",
    "prune_versions",
]
