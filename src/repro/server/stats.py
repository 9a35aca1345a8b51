"""Cross-process stats for the pre-fork worker pool.

Workers are separate processes, so the in-process metrics registry of
one worker only sees the requests the kernel happened to route to *it*.
The pool therefore keeps a shared **stats board**: a directory in which
every worker periodically publishes its registry snapshot (atomic
``os.replace``, so a reader never sees a torn file), and from which any
worker's ``/metrics`` endpoint renders pool-wide ``repro_pool_*``
families with :func:`repro.obs.metrics.merge`.

Files are the IPC here on purpose: no shared memory, no sockets between
siblings, crash-tolerant by construction (a dead worker's last snapshot
simply goes stale, and the supervisor removes it on respawn so restarts
do not double-count).

Layout::

    <stats_dir>/
      pool.json        # supervisor state: pids, socket address (pool.py)
      worker-0.json    # one snapshot per live worker
      worker-1.json
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .. import atomicio
from ..obs.metrics import merge, render

PathLike = Union[str, Path]


class StatsBoard:
    """One worker's publishing handle / any process's aggregation view.

    Usage (worker side)::

        board = StatsBoard(stats_dir)
        board.publish(worker_id, {"metrics": app.metrics.snapshot()})

    Usage (reader side — ``/metrics`` of any worker, tests)::

        text = board.render_aggregate()
    """

    def __init__(self, stats_dir: PathLike) -> None:
        self.stats_dir = Path(stats_dir)
        self.stats_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _worker_path(self, worker_id: int) -> Path:
        return self.stats_dir / f"worker-{worker_id}.json"

    def publish(self, worker_id: int, snapshot: Dict[str, Any]) -> None:
        """Atomically replace this worker's snapshot file.

        Write-to-temp + ``os.replace`` means a concurrent reader gets
        either the previous complete snapshot or this one, never a
        truncated file.
        """
        payload = dict(snapshot)
        payload["worker"] = worker_id
        payload["published_at"] = time.time()
        # durable=False: snapshots are republished every interval, so
        # losing the newest one to a power cut costs nothing — but the
        # replace must still be atomic so a reader never parses a torn
        # file.  (``stats.publish.*`` failpoints live inside.)
        atomicio.atomic_write_json(
            self._worker_path(worker_id),
            payload,
            site="stats.publish",
            durable=False,
            sort_keys=True,
        )

    def clear(self, worker_id: int) -> None:
        """Drop a worker's snapshot (supervisor, before a respawn).

        A respawned worker restarts its counters at zero; leaving the
        predecessor's snapshot in place would double-count its requests
        until the replacement's first publish.
        """
        try:
            self._worker_path(worker_id).unlink()
        except FileNotFoundError:
            pass

    def read_all(self) -> List[Dict[str, Any]]:
        """Every readable worker snapshot, sorted by worker id.

        Tolerant by design: a file mid-replace, half-gone, or somehow
        corrupt is skipped — aggregation over the survivors is always
        well-defined.
        """
        snapshots: List[Dict[str, Any]] = []
        try:
            names = sorted(os.listdir(self.stats_dir))
        except FileNotFoundError:
            return snapshots
        for name in names:
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            try:
                data = json.loads((self.stats_dir / name).read_text())
            except (OSError, ValueError):
                continue
            if isinstance(data, dict):
                snapshots.append(data)
        snapshots.sort(key=lambda s: int(s.get("worker", -1)))
        return snapshots

    # ------------------------------------------------------------------
    def render_aggregate(self) -> str:
        """Pool-wide Prometheus text from whatever snapshots exist.

        Appended verbatim to each worker's per-process ``/metrics``
        output, so scraping *any* worker through the shared socket shows
        the whole pool: every ``repro_server_*`` family of the workers'
        ``"metrics"`` snapshots, renamed ``repro_pool_*`` — counters and
        histograms summed, gauges per ``worker`` — plus
        ``repro_pool_workers_reporting``.
        """
        snapshots = self.read_all()
        merged = merge(
            {str(s.get("worker", "?")): s.get("metrics", {}) for s in snapshots}
        )
        pool = {
            name.replace("repro_server_", "repro_pool_", 1): family
            for name, family in merged.items()
        }
        pool["repro_pool_workers_reporting"] = {
            "type": "gauge",
            "help": "Workers whose snapshot is on the stats board.",
            "samples": [[{}, len(snapshots)]],
        }
        return render(pool)


# ----------------------------------------------------------------------
# Pool state file (written by the supervisor, read by tests/tooling)
# ----------------------------------------------------------------------

POOL_STATE_NAME = "pool.json"


def write_pool_state(stats_dir: PathLike, state: Dict[str, Any]) -> Path:
    """Atomically write the supervisor's ``pool.json`` next to the stats.

    The state file is the authoritative "who is alive" record: host/port
    of the shared socket, the supervisor pid, and the worker-id -> pid
    map after every spawn and reap.  Tests target specific workers (for
    SIGKILL fault injection) through it.
    """
    stats_dir = Path(stats_dir)
    stats_dir.mkdir(parents=True, exist_ok=True)
    return atomicio.atomic_write_json(
        stats_dir / POOL_STATE_NAME,
        state,
        site="stats.pool",
        sort_keys=True,
        indent=2,
    )


def read_pool_state(stats_dir: PathLike) -> Optional[Dict[str, Any]]:
    """The current ``pool.json`` contents, or None if absent/unreadable."""
    try:
        data = json.loads((Path(stats_dir) / POOL_STATE_NAME).read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None
