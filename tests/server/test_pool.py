"""Pre-fork pool: supervision units + one real multi-process pool.

The unit half covers the pieces in isolation (backoff policy, the
cross-process stats board, the drain-time request tracker, pool state
round-trips).  The subprocess half boots an actual
``python -m repro.server --workers 2`` pool — supervisor + forked
workers over one shared socket — and checks the full surface: pool.json
pids, per-worker identity in /healthz and /v1/suggest, mmap'd loading,
``repro_pool_*`` metric aggregation, bitwise score parity with the
single-process gateway, and a clean SIGTERM exit.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import ServerConfig
from repro.obs.metrics import Registry
from repro.server import (
    GatewayApp,
    ModelRegistry,
    RequestTracker,
    StatsBoard,
    backoff_delay,
    read_pool_state,
    write_pool_state,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestBackoffDelay:
    def test_exponential_growth_from_base(self):
        assert backoff_delay(0) == 0.0
        assert backoff_delay(1, base=0.1, cap=5.0) == pytest.approx(0.1)
        assert backoff_delay(2, base=0.1, cap=5.0) == pytest.approx(0.2)
        assert backoff_delay(4, base=0.1, cap=5.0) == pytest.approx(0.8)

    def test_cap_bounds_a_crash_loop(self):
        assert backoff_delay(30, base=0.1, cap=5.0) == 5.0
        assert backoff_delay(1000, base=0.5, cap=2.0) == 2.0


#: Child-interpreter probe: cap OpenBLAS at one thread, then ask it back.
_BLAS_PROBE = """
import ctypes, numpy
from repro.server.pool import limit_blas_threads
capped = limit_blas_threads(1)
threads = None
for line in open("/proc/self/maps"):
    if capped and "openblas" in line.lower() and ".so" in line:
        handle = ctypes.CDLL(line.split()[-1])
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
        break
print(capped, threads)
"""


class TestLimitBlasThreads:
    def test_caps_the_openblas_numpy_loaded(self):
        """Pool workers cap OpenBLAS at one thread.  Checked in a child
        interpreter, so this process keeps its own BLAS thread pool."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        out = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        if out[0] == "False":
            pytest.skip("numpy is not linked against OpenBLAS")
        assert out == ["True", "1"]


class TestStatsBoard:
    def test_publish_read_roundtrip(self, tmp_path):
        board = StatsBoard(tmp_path)
        board.publish(0, {"requests_total": 5, "pid": 111})
        board.publish(1, {"requests_total": 7, "pid": 222})
        snaps = board.read_all()
        assert [s["worker"] for s in snaps] == [0, 1]
        assert sum(s["requests_total"] for s in snaps) == 12
        assert all("published_at" in s for s in snaps)

    def test_republish_replaces_not_appends(self, tmp_path):
        board = StatsBoard(tmp_path)
        board.publish(0, {"requests_total": 5})
        board.publish(0, {"requests_total": 9})
        snaps = board.read_all()
        assert len(snaps) == 1
        assert snaps[0]["requests_total"] == 9

    def test_clear_removes_worker(self, tmp_path):
        board = StatsBoard(tmp_path)
        board.publish(3, {"requests_total": 1})
        board.clear(3)
        board.clear(3)  # idempotent
        assert board.read_all() == []

    def test_corrupt_and_foreign_files_are_skipped(self, tmp_path):
        board = StatsBoard(tmp_path)
        board.publish(0, {"requests_total": 2})
        (tmp_path / "worker-1.json").write_text("{half a json")
        (tmp_path / "notes.txt").write_text("not a snapshot")
        snaps = board.read_all()
        assert len(snaps) == 1 and snaps[0]["worker"] == 0

    def test_render_aggregate_sums_workers(self, tmp_path):
        board = StatsBoard(tmp_path)
        workers = ((9, 1, 10, 2, 11), (20, 0, 20, 1, 22))
        for worker, (ok, failed, scored, inflight, pid) in enumerate(workers):
            registry = Registry()
            requests = registry.counter(
                "repro_server_requests_total", "requests", ("endpoint", "status")
            )
            requests.inc(ok, endpoint="suggest", status=200)
            if failed:
                requests.inc(failed, endpoint="suggest", status=503)
            registry.counter("repro_server_patients_scored_total", "rows").inc(scored)
            registry.gauge(
                "repro_server_inflight_requests", "inflight", lambda n=inflight: n
            )
            registry.gauge(
                "repro_server_worker_info",
                "identity",
                lambda w=worker, p=pid: [({"worker": w, "pid": p}, 1)],
            )
            board.publish(worker, {"metrics": registry.snapshot()})
        lines = board.render_aggregate().splitlines()
        assert "repro_pool_workers_reporting 2" in lines
        # Counters sum per label set: 29 answered + 1 failed = 30 requests.
        assert (
            'repro_pool_requests_total{endpoint="suggest",status="200"} 29' in lines
        )
        assert 'repro_pool_requests_total{endpoint="suggest",status="503"} 1' in lines
        assert "repro_pool_patients_scored_total 30" in lines
        # Gauges stay per worker.
        assert 'repro_pool_inflight_requests{worker="0"} 2' in lines
        assert 'repro_pool_inflight_requests{worker="1"} 1' in lines
        assert 'repro_pool_worker_info{pid="11",worker="0"} 1' in lines
        assert 'repro_pool_worker_info{pid="22",worker="1"} 1' in lines
        assert not any(
            line.startswith(("repro_pool_errors_total", "repro_pool_worker_requests"))
            for line in lines
        )

    def test_empty_board_renders_zeroes(self, tmp_path):
        text = StatsBoard(tmp_path / "fresh").render_aggregate()
        assert text.splitlines() == [
            "# HELP repro_pool_workers_reporting "
            "Workers whose snapshot is on the stats board.",
            "# TYPE repro_pool_workers_reporting gauge",
            "repro_pool_workers_reporting 0",
        ]


class TestPoolState:
    def test_roundtrip(self, tmp_path):
        write_pool_state(tmp_path, {"port": 1234, "workers": {"0": 99}})
        state = read_pool_state(tmp_path)
        assert state == {"port": 1234, "workers": {"0": 99}}

    def test_missing_or_corrupt_is_none(self, tmp_path):
        assert read_pool_state(tmp_path / "nowhere") is None
        (tmp_path / "pool.json").write_text("nope{")
        assert read_pool_state(tmp_path) is None


class TestRequestTracker:
    def test_counts_inflight_and_total(self):
        tracker = RequestTracker()
        tracker.begin()
        tracker.begin()
        assert tracker.inflight == 2
        tracker.end()
        assert tracker.inflight == 1
        assert tracker.total == 2

    def test_wait_idle_returns_when_drained(self):
        tracker = RequestTracker()
        tracker.begin()

        def finish():
            time.sleep(0.05)
            tracker.end()

        thread = threading.Thread(target=finish)
        thread.start()
        assert tracker.wait_idle(timeout=5.0) is True
        thread.join()

    def test_wait_idle_times_out_with_stuck_request(self):
        tracker = RequestTracker()
        tracker.begin()
        started = time.monotonic()
        assert tracker.wait_idle(timeout=0.1) is False
        assert time.monotonic() - started < 2.0

    def test_idle_tracker_returns_immediately(self):
        assert RequestTracker().wait_idle(timeout=0.0) is True


class TestPoolSubprocess:
    def test_two_worker_pool_end_to_end(self, pool_factory, fitted_system):
        _system, x_pool = fitted_system
        pool = pool_factory(workers=2)

        # --- pool.json is the live-pid record -------------------------
        pids = pool.worker_pids()
        assert sorted(pids) == [0, 1]
        for pid in pids.values():
            os.kill(pid, 0)  # alive (raises if not)
        state = pool.state()
        assert state["mmap"] is True
        assert state["num_workers"] == 2

        # --- per-worker identity + mmap in /healthz -------------------
        status, health = pool.get("/healthz")
        assert status == 200
        assert health["status"] == "ok"
        worker = health["worker"]
        assert worker["worker"] in (0, 1)
        assert worker["pid"] == pids[worker["worker"]]
        assert worker["mmap"] is True  # workers open the artifact mmap'd

        # --- suggest works and names the worker that served it --------
        payload = {"features": [x_pool[0].tolist()], "k": 3,
                   "return_scores": True}
        status, body = pool.post("/v1/suggest", payload)
        assert status == 200
        assert body["worker"] in (0, 1)
        assert len(body["suggestions"][0]) == 3

        # --- bitwise parity with the single-process gateway -----------
        app = GatewayApp(ModelRegistry(pool.state()["root"]), ServerConfig())
        try:
            ref_status, ref_body = app.suggest(payload)
        finally:
            app.close()
        assert ref_status == 200
        assert body["suggestions"] == ref_body["suggestions"]
        assert body["scores"] == ref_body["scores"]
        assert body["version"] == ref_body["version"]

        # --- /metrics aggregates across processes ---------------------
        sent = 0
        for row in np.random.default_rng(3).standard_normal((24, x_pool.shape[1])):
            status, _ = pool.post(
                "/v1/suggest", {"features": [row.tolist()], "k": 2}
            )
            assert status == 200
            sent += 1
        deadline = time.monotonic() + 10.0
        seen_total = -1
        while time.monotonic() < deadline:
            status, text = pool.get("/metrics")
            assert status == 200
            assert "repro_pool_workers_reporting" in text
            seen_total = sum(
                int(line.split()[-1])
                for line in text.splitlines()
                if line.startswith('repro_pool_requests_total{endpoint="suggest"')
            )
            if seen_total >= sent:
                break
            time.sleep(0.3)  # snapshots publish every stats_interval
        assert seen_total >= sent
        assert "repro_server_worker_info" in text
        assert "\nrepro_pool_batch_size_count " in text
        assert 'repro_pool_worker_info{pid="' in text

        # --- SIGTERM: clean drain, exit 0, empty pid map --------------
        assert pool.terminate() == 0
        assert pool.state()["workers"] == {}

    def test_requests_spread_across_workers(self, pool_factory, fitted_system):
        # The kernel load-balances accepts over the shared socket; with
        # fresh connections per request both workers should serve some.
        _system, x_pool = fitted_system
        pool = pool_factory(workers=2)
        seen = set()
        payload = {"features": [x_pool[1].tolist()], "k": 2}
        for _ in range(60):
            status, body = pool.post("/v1/suggest", payload)
            assert status == 200
            seen.add(body["worker"])
            if seen == {0, 1}:
                break
        assert seen == {0, 1}


class TestPoolDrain:
    """SIGTERM after pooled requests drains every worker by itself.

    All workers wait on one listening socket, so one connection wakes
    each of them; a worker that loses the race for it must go back to
    waiting instead of blocking in ``accept()``, where it would never see
    the shutdown and the supervisor would have to SIGKILL it.
    """

    CYCLES = 4
    REQUESTS = 12

    def test_sigterm_after_pooled_requests_needs_no_kill(
        self, pool_factory, fitted_system
    ):
        _system, x_pool = fitted_system
        payload = {"features": [x_pool[0].tolist()], "k": 2}
        drain_timeout_s = ServerConfig().drain_timeout_s
        for cycle in range(self.CYCLES):
            pool = pool_factory(workers=2)
            for _ in range(self.REQUESTS):
                status, _ = pool.post("/v1/suggest", payload)
                assert status == 200
            start = time.monotonic()
            code = pool.terminate()
            elapsed = time.monotonic() - start
            output = pool.proc.stdout.read()
            assert "worker_drain_timeout_kill" not in output, (cycle, output[-2000:])
            assert code == 0, (cycle, output[-2000:])
            assert elapsed < drain_timeout_s, (cycle, elapsed)
