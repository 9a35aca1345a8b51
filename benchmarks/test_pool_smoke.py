"""Pool smoke: a 2-worker pre-fork pool keeps serving while a worker dies.

Launches ``python -m repro.server <root> --workers 2``, drives closed-loop
HTTP load at it with the load generator, SIGKILLs one worker mid-run and
checks that:

* the pool serves from mmap'd artifacts;
* the supervisor respawns the victim while the listener stays up;
* only the victim's in-flight requests fail, and p99 stays under 500 ms;
* any worker's ``/metrics`` page carries the pool-wide batch-size sums;
* the supervisor drains and exits 0 on SIGTERM.

The run's report merges into ``.benchmarks/BENCH_server.json`` under
``loadgen_pool_smoke``.  The p99 bound is a wall-clock check, so the test
carries the ``timing`` marker, which the default run deselects::

    PYTHONPATH=src python -m pytest benchmarks/test_pool_smoke.py -m timing -s
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.server import read_pool_state

from gateway_load import HTTPTarget, make_feature_pool, merge_report, run_load

REPO_ROOT = Path(__file__).resolve().parents[1]
REPORT = REPO_ROOT / ".benchmarks" / "BENCH_server.json"


def _get(state, path):
    conn = http.client.HTTPConnection(state["host"], state["port"], timeout=10)
    try:
        conn.request("GET", path)
        return conn.getresponse().read()
    finally:
        conn.close()


@pytest.mark.timing
def test_pool_survives_a_killed_worker(model_root, tmp_path):
    stats_dir = tmp_path / "pool-stats"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", str(model_root),
         "--workers", "2", "--port", "0", "--stats-dir", str(stats_dir),
         "--stats-interval", "0.2"],
        cwd=str(REPO_ROOT),
        env=env,
    )
    try:
        # Wait for both workers to register and the listener to answer.
        deadline = time.time() + 60
        state = None
        while time.time() < deadline:
            state = read_pool_state(stats_dir)
            if state and len(state.get("workers", {})) >= 2:
                break
            time.sleep(0.2)
        assert state and len(state["workers"]) >= 2, state
        assert state["mmap"] is True, state
        url = f"http://{state['host']}:{state['port']}"
        health = json.loads(_get(state, "/healthz"))
        assert health["status"] == "ok", health

        # Closed-loop load in the background while the fault is injected.
        report_box = {}

        def load():
            report_box["report"] = run_load(
                HTTPTarget(url), make_feature_pool(health["feature_dim"]),
                duration_s=6.0, concurrency=8, k=3,
            )

        loader = threading.Thread(target=load)
        loader.start()

        time.sleep(1.5)  # load flowing
        victim = int(next(iter(state["workers"].values())))
        os.kill(victim, signal.SIGKILL)

        # The supervisor must respawn it while the listener stays up.
        deadline = time.time() + 30
        while time.time() < deadline:
            state = read_pool_state(stats_dir)
            pids = set(map(int, (state or {}).get("workers", {}).values()))
            if len(pids) >= 2 and victim not in pids:
                break
            time.sleep(0.2)
        assert victim not in pids and len(pids) >= 2, (victim, state)

        loader.join(timeout=60)
        report = report_box["report"]
        assert report.requests > 0, report
        # Only the victim's in-flight requests may have failed.
        assert report.errors <= max(5, report.requests // 10), (
            report.errors, report.requests)
        assert report.p99_ms < 500, f"p99 {report.p99_ms:.1f} ms"
        merge_report(str(REPORT), "loadgen_pool_smoke", {
            **report.to_dict(),
            "workers": 2, "worker_killed": True,
            "respawns_total": state.get("respawns_total"),
        })
        merged = json.loads(REPORT.read_text())["loadgen_pool_smoke"]
        assert merged["requests"] == report.requests, merged
        print(f"pool loadgen: {report.throughput_rps:.0f} req/s, "
              f"p99 {report.p99_ms:.1f} ms, errors {report.errors}")

        # Any worker's page carries the pool-wide batch-size sums.
        page = _get(state, "/metrics").decode()
        flushes = [float(line.split()[1]) for line in page.splitlines()
                   if line.startswith("repro_pool_batch_size_count ")]
        assert flushes and flushes[0] > 0, page[-2000:]
    finally:
        proc.send_signal(signal.SIGTERM)
        exit_code = proc.wait(timeout=60)
    assert exit_code == 0, "pool supervisor exit code"
