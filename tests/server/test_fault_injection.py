"""Fault injection against a live pre-fork pool.

Two failure modes the pool exists to survive:

* **SIGKILL a worker under load** — the parent must reap and respawn it
  (fresh pid in pool.json) while the listener, held open by the parent,
  keeps accepting: the error budget is bounded to the requests that
  worker had in flight, and /healthz keeps answering throughout.
* **SIGTERM the pool with requests parked in the micro-batcher** — the
  drain path must answer every in-flight request (all 200s, none
  dropped) before the workers exit, and the supervisor exits 0.
"""

import os
import signal
import threading
import time

from repro.server import StatsBoard


class TestWorkerCrash:
    def test_sigkill_worker_respawns_and_listener_stays_up(
        self, pool_factory, fitted_system
    ):
        _system, x_pool = fitted_system
        pool = pool_factory(workers=2)
        payload = {"features": [x_pool[0].tolist()], "k": 3}

        statuses = []
        health_probes = []
        stop = threading.Event()

        def loader():
            while not stop.is_set():
                try:
                    status, _ = pool.post("/v1/suggest", payload, timeout=10.0)
                    statuses.append(status)
                except OSError:
                    statuses.append(-1)

        def health_prober():
            while not stop.is_set():
                try:
                    status, _ = pool.get("/healthz", timeout=5.0)
                    health_probes.append(status)
                except OSError:
                    health_probes.append(-1)
                time.sleep(0.05)

        threads = [threading.Thread(target=loader, daemon=True) for _ in range(3)]
        threads.append(threading.Thread(target=health_prober, daemon=True))
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.5)  # load flowing before the fault
            victim_pid = pool.worker_pids()[0]
            os.kill(victim_pid, signal.SIGKILL)
            new_pids = pool.wait_for_respawn(victim_pid, workers=2, timeout=30.0)
            time.sleep(0.5)  # load against the healed pool
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=15.0)

        # Respawn: still worker ids {0, 1}, the dead pid replaced.
        assert sorted(new_pids) == [0, 1]
        assert victim_pid not in new_pids.values()
        for pid in new_pids.values():
            os.kill(pid, 0)

        # Bounded errors: only the victim's in-flight requests may fail.
        total = len(statuses)
        errors = sum(1 for s in statuses if s != 200)
        assert total > 0
        assert statuses.count(200) > 0
        assert errors <= max(3, total // 4), (errors, total)

        # Listener continuity: /healthz stayed reachable throughout —
        # the parent never dropped the socket during the crash.
        ok_probes = health_probes.count(200)
        assert ok_probes >= max(1, int(0.8 * len(health_probes)))

        # The healed pool serves normally.
        status, body = pool.post("/v1/suggest", payload)
        assert status == 200
        assert body["worker"] in (0, 1)

    def test_repeated_crashes_back_off_but_recover(
        self, pool_factory, fitted_system
    ):
        _system, x_pool = fitted_system
        pool = pool_factory(workers=2)
        # Kill the same worker slot twice in a row; the supervisor's
        # backoff grows but stays far below the test timeout.
        for _round in range(2):
            victim_pid = pool.worker_pids()[1]
            os.kill(victim_pid, signal.SIGKILL)
            pool.wait_for_respawn(victim_pid, workers=2, timeout=30.0)
        assert (pool.state() or {}).get("respawns_total", 0) >= 2
        status, _ = pool.post(
            "/v1/suggest", {"features": [x_pool[2].tolist()], "k": 2}
        )
        assert status == 200


class TestGracefulDrain:
    def test_sigterm_drains_inflight_requests(self, pool_factory, fitted_system):
        _system, x_pool = fitted_system
        # Every flush sleeps 500 ms (seeded chaos failpoint), which parks
        # requests inside the workers — scoring or queued behind a
        # scoring flush: when SIGTERM lands they are genuinely in flight,
        # not yet answered — exactly what the drain path must not drop.
        pool = pool_factory(
            workers=2,
            extra_args=(
                "--max-batch-size", "64",
                "--drain-timeout", "15",
                "--stats-interval", "0.1",
            ),
            env={"REPRO_CHAOS": "gateway.score=sleep:500", "REPRO_CHAOS_SEED": "0"},
        )
        inflight_target = 10
        results = []
        results_lock = threading.Lock()

        def one_request(index):
            try:
                status, body = pool.post(
                    "/v1/suggest",
                    {"features": [x_pool[index % len(x_pool)].tolist()], "k": 3},
                    timeout=30.0,
                )
            except OSError:
                status, body = -1, None
            with results_lock:
                results.append((status, body))

        threads = [
            threading.Thread(target=one_request, args=(i,), daemon=True)
            for i in range(inflight_target)
        ]
        for thread in threads:
            thread.start()

        # Wait until the pool itself reports every request dispatched
        # (parked in a batcher) before pulling the trigger — guarantees
        # they are in flight, not still in a TCP backlog.
        deadline = time.monotonic() + 10.0
        inflight_seen = 0
        while time.monotonic() < deadline:
            snaps = StatsBoard(pool.stats_dir).read_all()
            inflight_seen = sum(
                s["metrics"]["repro_server_inflight_requests"]["samples"][0][1]
                for s in snaps
            )
            if inflight_seen >= inflight_target:
                break
            time.sleep(0.05)
        assert inflight_seen >= inflight_target, (
            f"only {inflight_seen} in flight before SIGTERM"
        )

        exit_code = pool.terminate(timeout=60.0)
        for thread in threads:
            thread.join(timeout=30.0)

        # Every parked request was answered, none dropped, parent clean.
        assert len(results) == inflight_target
        assert [status for status, _ in results] == [200] * inflight_target
        for _status, body in results:
            assert body and len(body["suggestions"][0]) == 3
        assert exit_code == 0
        assert pool.state()["workers"] == {}
