"""Pre-fork worker pool: one listening socket, N serving processes.

``repro-serve <root> --workers N`` runs this module instead of the
single-process gateway.  The division of labor is the classic pre-fork
design (nginx/gunicorn shape), stdlib-only:

* The **parent** binds the listening socket once, forks N workers, and
  then does nothing but supervise: reap dead children, respawn them with
  exponential backoff, and translate SIGTERM/SIGINT into a graceful
  pool-wide drain.  Because the parent holds the socket open the whole
  time, the listener never goes down — a worker crash costs only the
  requests that worker had in flight.
* Each **worker** inherits the bound socket across ``fork`` and runs the
  ordinary gateway over it (:func:`repro.server.http.build_server` with
  ``sock=``): the kernel load-balances ``accept`` across the workers
  waiting on the shared socket.  The socket is non-blocking: one
  connection wakes every worker's ``select``, and the workers that lose
  the race for it get ``BlockingIOError`` (which socketserver ignores)
  and go back to ``select`` instead of blocking in ``accept``, where a
  shutdown request would never reach them.  Workers load the artifact with
  ``mmap_mode="r"``, so N processes share one physical copy of the model
  weights through the page cache instead of N copies.
* Hot-swap stays **per worker**: each worker runs its own registry
  watcher, notices a new published version within ``watch_interval_s``,
  and swaps atomically — exactly the single-process semantics, N times.

Worker death and restart:

* crash (SIGKILL, segfault, unhandled exception) → the parent reaps it,
  clears its stats-board snapshot, and respawns after an exponential
  backoff (``backoff_delay``); a worker that had been up for a while
  resets the backoff, so one-off crashes restart fast while a
  crash-looping worker backs off to ``backoff_cap``.
* graceful (parent got SIGTERM) → every worker gets SIGTERM, stops
  accepting, marks itself draining, answers everything already in
  flight (``RequestTracker.wait_idle``), flushes the micro-batcher, and
  exits 0.  The supervisor exits 0 only when every worker drained that
  way; a worker that exits non-zero or has to be SIGKILLed makes it
  exit 1.

The supervisor also maintains ``pool.json`` in the stats directory (see
:mod:`repro.server.stats`): host/port of the shared socket plus the live
worker-id → pid map, rewritten after every spawn and reap.  Tests and
tooling use it to find the pool and to target individual workers.
"""

from __future__ import annotations

import ctypes
import os
import signal
import socket
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, Optional, Union

from ..core.config import ServerConfig
from ..obs.log import get_logger
from .app import GatewayApp
from .http import build_server
from .registry import ModelRegistry
from .stats import StatsBoard, write_pool_state

PathLike = Union[str, Path]

#: Supervisor incidents (worker exits, drain-timeout kills) go through
#: the structured logger: one JSON object per line on stderr.
_log = get_logger("repro.server.pool")

#: Supervision loop tick (reap + respawn scheduling granularity).
POLL_INTERVAL_S = 0.05


def create_listen_socket(
    host: str, port: int, backlog: int = 128
) -> socket.socket:
    """Bind the pool's shared listening socket (port 0 = ephemeral).

    Created in the parent *before* any fork so every worker inherits the
    same file descriptor and the kernel distributes accepts among them.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


def backoff_delay(
    restarts: int, base: float = 0.1, cap: float = 5.0
) -> float:
    """Exponential respawn backoff: base * 2^(restarts-1), capped.

    ``restarts`` counts consecutive fast failures (a worker that stayed
    up past the stability window resets to 1), so the first respawn is
    quick and a crash loop decays to one attempt per ``cap`` seconds.
    """
    if restarts <= 0:
        return 0.0
    return min(cap, base * (2 ** (restarts - 1)))


def limit_blas_threads(threads: int) -> bool:
    """Cap the thread pool of the OpenBLAS that numpy loaded.

    A pool already runs one process per core.  An OpenBLAS helper thread
    in every worker busy-waits between the small per-flush products and
    takes the core another worker needs: on a 2-vCPU host, two workers
    spent 2-4 ms of CPU per request that way instead of 0.5 ms.  Scores
    stay bitwise-equal to single-process serving (OpenBLAS splits a
    product by output blocks, so each entry is summed in the same
    order); the pool parity tests check it.

    Returns False when numpy runs on another BLAS (nothing to cap).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            maps = fh.read()
    except OSError:
        return False
    libraries = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and ".so" in line
    })
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes = [ctypes.c_int]
                function(threads)
                return True
    return False


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def worker_main(
    worker_id: int,
    sock: socket.socket,
    root: PathLike,
    config: ServerConfig,
    verbose: bool = False,
    stats_dir: Optional[PathLike] = None,
    mmap_mode: Optional[str] = "r",
) -> int:
    """Serve the shared socket until SIGTERM; returns the exit code.

    Runs inside the forked child (also callable directly in-process for
    unit tests).  The lifecycle on SIGTERM:

    1. mark the server draining (handlers stop keep-alive),
    2. stop the accept loop (``server.shutdown`` from a helper thread —
       calling it from the signal handler would deadlock the serve loop),
    3. wait for in-flight requests to be answered (the micro-batcher
       flushes whenever it is free, so every parked request is scored
       within a few flushes and the wait converges),
    4. flush/close the batcher and publish final counters, exit 0.

    Exit code 1 means the drain timed out with requests still in flight.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent orchestrates
    registry = ModelRegistry(
        root,
        pinned_version=config.pinned_version,
        score_block=config.score_block,
        mmap_mode=mmap_mode,
    )
    app = GatewayApp(registry, config)
    app.worker_info = {
        "worker": worker_id,
        "pid": os.getpid(),
        "mmap": mmap_mode == "r",
    }
    board = StatsBoard(stats_dir) if stats_dir is not None else None
    if board is not None:
        app.metrics_extra = board.render_aggregate
    sock.setblocking(False)  # a lost accept race must not block (module docs)
    server = build_server(app, sock=sock, verbose=verbose)
    tracker = server.request_tracker
    app.metrics.counter(
        "repro_server_handled_total",
        "HTTP requests dispatched by this worker.",
        read=lambda: tracker.total,
    )
    app.metrics.gauge(
        "repro_server_inflight_requests",
        "HTTP requests this worker is dispatching now.",
        lambda: tracker.inflight,
    )

    def snapshot() -> dict:
        return {"metrics": app.metrics.snapshot()}

    stop_publishing = threading.Event()

    def publish_loop() -> None:
        while True:
            try:
                board.publish(worker_id, snapshot())
            except OSError:
                pass  # stats dir vanished mid-shutdown: not fatal
            if stop_publishing.wait(config.stats_interval_s):
                return

    publisher: Optional[threading.Thread] = None
    if board is not None:
        board.publish(worker_id, snapshot())
        publisher = threading.Thread(
            target=publish_loop,
            name=f"repro-worker-{worker_id}-stats",
            daemon=True,
        )
        publisher.start()

    def on_sigterm(signum, frame) -> None:
        server.draining = True
        app.draining = True  # /healthz answers "draining" from here on
        # shutdown() blocks until serve_forever exits; from the signal
        # handler (which interrupts serve_forever's own frame) that is a
        # deadlock — hand it to a throwaway thread instead.
        threading.Thread(
            target=server.shutdown,
            name=f"repro-worker-{worker_id}-shutdown",
            daemon=True,
        ).start()

    signal.signal(signal.SIGTERM, on_sigterm)

    server.serve_forever()
    server.draining = True
    app.draining = True
    drained = tracker.wait_idle(config.drain_timeout_s)
    app.close()  # stop the watcher, flush whatever the batcher still holds
    stop_publishing.set()
    if publisher is not None:
        publisher.join(timeout=2.0)
    if board is not None:
        try:
            board.publish(worker_id, snapshot())  # final counters
        except OSError:
            pass
    server.server_close()
    return 0 if drained else 1


# ----------------------------------------------------------------------
# Parent / supervisor
# ----------------------------------------------------------------------


class WorkerSupervisor:
    """Fork, watch, respawn, and drain a pool of gateway workers.

    Usage (what ``repro-serve --workers N`` runs)::

        supervisor = WorkerSupervisor(root, config, stats_dir)
        sys.exit(supervisor.run())      # blocks until SIGTERM/SIGINT

    Args:
        root: artifact root (or bare artifact directory) to serve.
        config: validated :class:`repro.core.ServerConfig`; ``workers``,
            ``host``/``port``, ``drain_timeout_s`` and the usual gateway
            knobs all come from here.
        stats_dir: directory for the stats board and ``pool.json``.
        verbose: per-request logging in every worker.
        mmap_mode: artifact load mode for workers (``"r"`` = shared
            pages, ``None`` = per-worker copies).
        stable_uptime_s: a worker alive at least this long resets its
            crash-backoff counter.
    """

    def __init__(
        self,
        root: PathLike,
        config: ServerConfig,
        stats_dir: PathLike,
        verbose: bool = False,
        mmap_mode: Optional[str] = "r",
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        stable_uptime_s: float = 10.0,
    ) -> None:
        config.validate()
        self.root = Path(root)
        self.config = config
        self.verbose = verbose
        self.mmap_mode = mmap_mode
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.stable_uptime_s = stable_uptime_s
        self.stats_dir = Path(stats_dir)
        self.board = StatsBoard(self.stats_dir)
        self.sock = create_listen_socket(config.host, config.port)
        self.host, self.port = self.sock.getsockname()[:2]
        self.pids: Dict[int, int] = {}
        self.spawned_at: Dict[int, float] = {}
        self.restarts: Dict[int, int] = {
            wid: 0 for wid in range(config.workers)
        }
        self.respawn_due: Dict[int, float] = {}
        self.respawns_total = 0
        self._stop = False
        #: Workers that exited neither 0 nor by the SIGTERM that asked
        #: them to drain, once shutdown began (drain timeouts, crashes).
        self._unclean_exits = 0

    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int) -> None:
        self.board.clear(worker_id)  # predecessor's counters, if any
        pid = os.fork()
        if pid == 0:
            # Child: never return into the supervisor's stack.  Reset the
            # inherited parent signal handlers before worker_main installs
            # the worker's own.
            code = 1
            try:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                limit_blas_threads(1)
                code = worker_main(
                    worker_id,
                    self.sock,
                    self.root,
                    self.config,
                    verbose=self.verbose,
                    stats_dir=self.stats_dir,
                    mmap_mode=self.mmap_mode,
                )
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        self.pids[worker_id] = pid
        self.spawned_at[worker_id] = time.monotonic()

    def _reap(self) -> bool:
        """Collect exited workers; schedule their respawns.  True if any."""
        changed = False
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
            worker_id = next(
                (w for w, p in self.pids.items() if p == pid), None
            )
            if worker_id is None:
                continue  # not one of ours (shouldn't happen)
            changed = True
            del self.pids[worker_id]
            uptime = time.monotonic() - self.spawned_at.pop(
                worker_id, time.monotonic()
            )
            self.board.clear(worker_id)
            if self._stop:
                # Orderly shutdown: no respawn.  A worker SIGTERMed before
                # it installed its drain handler had nothing in flight.
                if os.waitstatus_to_exitcode(status) not in (0, -signal.SIGTERM):
                    self._unclean_exits += 1
                continue
            if uptime >= self.stable_uptime_s:
                self.restarts[worker_id] = 1
            else:
                self.restarts[worker_id] += 1
            delay = backoff_delay(
                self.restarts[worker_id], self.backoff_base, self.backoff_cap
            )
            _log.warning(
                "worker_exited",
                worker=worker_id,
                pid=pid,
                status=status,
                uptime_s=round(uptime, 1),
                respawn_in_s=round(delay, 2),
            )
            self.respawn_due[worker_id] = time.monotonic() + delay
        return changed

    def _spawn_due(self) -> bool:
        """Start workers whose backoff has elapsed.  True if any spawned."""
        if self._stop:
            return False
        now = time.monotonic()
        changed = False
        for worker_id, due in sorted(self.respawn_due.items()):
            if now >= due:
                del self.respawn_due[worker_id]
                self._spawn(worker_id)
                self.respawns_total += 1
                changed = True
        return changed

    def _write_state(self) -> None:
        write_pool_state(
            self.stats_dir,
            {
                "pid": os.getpid(),
                "host": self.host,
                "port": self.port,
                "root": str(self.root),
                "num_workers": self.config.workers,
                "mmap": self.mmap_mode == "r",
                "respawns_total": self.respawns_total,
                "workers": {
                    str(wid): pid for wid, pid in sorted(self.pids.items())
                },
            },
        )

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Spawn the pool and supervise until SIGTERM/SIGINT.

        Returns 0 when every worker drained cleanly, 1 otherwise.
        """

        def on_stop_signal(signum, frame) -> None:
            self._stop = True

        signal.signal(signal.SIGTERM, on_stop_signal)
        signal.signal(signal.SIGINT, on_stop_signal)
        for worker_id in range(self.config.workers):
            self._spawn(worker_id)
        self._write_state()
        try:
            while not self._stop:
                changed = self._reap()
                changed = self._spawn_due() or changed
                if changed:
                    self._write_state()
                time.sleep(POLL_INTERVAL_S)
        finally:
            clean = self._shutdown()
        return 0 if clean else 1

    def _shutdown(self) -> bool:
        """SIGTERM every worker, wait for drains, SIGKILL stragglers.

        True when no worker had to be killed or exited unclean.
        """
        self._stop = True
        self.respawn_due.clear()
        for pid in self.pids.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = (
            time.monotonic() + self.config.drain_timeout_s + 5.0
        )
        while self.pids and time.monotonic() < deadline:
            self._reap()
            if self.pids:
                time.sleep(POLL_INTERVAL_S)
        killed = len(self.pids)
        for worker_id, pid in list(self.pids.items()):
            _log.error("worker_drain_timeout_kill", worker=worker_id, pid=pid)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self.pids.pop(worker_id, None)
        self.sock.close()
        self._write_state()  # workers: {} — the pool is down
        return killed == 0 and self._unclean_exits == 0
