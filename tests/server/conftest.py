"""Shared fixtures for the gateway tests.

The tiny fitted system (``fitted_system``, ``model_root``) lives in the
root ``conftest.py``, shared with ``benchmarks/``.  The pool tests get
``pool_factory``: launch a real
``python -m repro.server <root> --workers N`` subprocess (a supervisor
plus forked workers — pre-fork pools cannot be exercised from inside a
threaded pytest process) and a :class:`PoolHandle` to talk to it.
``env=`` adds variables to the pool's environment (e.g. a ``REPRO_CHAOS``
failpoint spec, inherited by every forked worker).
"""

import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.server import read_pool_state

REPO_ROOT = Path(__file__).resolve().parents[2]


def http_json(host, port, method, path, body=None, timeout=15.0, headers=None):
    """One request, fresh connection; returns (status, parsed body)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        send_headers = {"Content-Type": "application/json"}
        if headers:
            send_headers.update(headers)
        if body is not None:
            conn.request(method, path, body=json.dumps(body), headers=send_headers)
        else:
            conn.request(method, path)
        response = conn.getresponse()
        raw = response.read()
        try:
            parsed = json.loads(raw)
        except ValueError:
            parsed = raw.decode("utf-8", "replace")
        return response.status, parsed
    finally:
        conn.close()


class PoolHandle:
    """A running ``repro-serve --workers N`` subprocess under test."""

    def __init__(self, proc, stats_dir):
        self.proc = proc
        self.stats_dir = Path(stats_dir)
        self.host = None
        self.port = None

    def state(self):
        """Current pool.json contents (None before the first write)."""
        return read_pool_state(self.stats_dir)

    def worker_pids(self):
        state = self.state() or {}
        return {int(wid): pid for wid, pid in (state.get("workers") or {}).items()}

    def wait_ready(self, workers, timeout=120.0):
        """Block until every worker is spawned and /healthz answers 200."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                out = self.proc.stdout.read() if self.proc.stdout else ""
                raise RuntimeError(
                    f"pool exited early (code {self.proc.returncode}): {out[-2000:]}"
                )
            state = self.state()
            if state and len(state.get("workers") or {}) == workers:
                self.host, self.port = state["host"], int(state["port"])
                try:
                    status, _ = http_json(
                        self.host, self.port, "GET", "/healthz", timeout=5.0
                    )
                    if status == 200:
                        return state
                except OSError:
                    pass
            time.sleep(0.1)
        raise TimeoutError(f"pool not ready after {timeout}s")

    def get(self, path, **kwargs):
        return http_json(self.host, self.port, "GET", path, **kwargs)

    def post(self, path, body, **kwargs):
        return http_json(self.host, self.port, "POST", path, body=body, **kwargs)

    def wait_for_respawn(self, dead_pid, workers, timeout=30.0):
        """Block until the pool is back to ``workers`` pids without ``dead_pid``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pids = self.worker_pids()
            if len(pids) == workers and dead_pid not in pids.values():
                return pids
            time.sleep(0.1)
        raise TimeoutError(
            f"worker pool did not respawn within {timeout}s "
            f"(pids now: {self.worker_pids()})"
        )

    def terminate(self, timeout=40.0):
        """SIGTERM the supervisor and wait; returns its exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)


@pytest.fixture
def pool_factory(model_root, tmp_path):
    """Launcher for real pre-fork pool subprocesses, with cleanup."""
    handles = []
    counter = itertools.count()

    def launch(workers=2, root=None, extra_args=(), wait=True, env=None):
        stats_dir = tmp_path / f"pool-{next(counter)}"
        cmd = [
            sys.executable,
            "-m",
            "repro.server",
            str(root if root is not None else model_root),
            "--workers",
            str(workers),
            "--port",
            "0",
            "--stats-dir",
            str(stats_dir),
            "--stats-interval",
            "0.2",
            *extra_args,
        ]
        proc_env = {**os.environ, **(env or {})}
        proc_env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + proc_env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            cmd,
            cwd=str(REPO_ROOT),
            env=proc_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        handle = PoolHandle(proc, stats_dir)
        handles.append(handle)
        if wait:
            handle.wait_ready(workers)
        return handle

    yield launch

    # A pool still running at teardown must drain on SIGTERM and exit 0;
    # the kill() fallback only keeps a failed drain from leaving orphans.
    drain_failures = []
    for handle in handles:
        try:
            if handle.proc.poll() is None:
                handle.proc.send_signal(signal.SIGTERM)
                try:
                    code = handle.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    handle.proc.kill()
                    handle.proc.wait(timeout=10)
                    drain_failures.append(
                        f"pool pid {handle.proc.pid} did not exit within 30 s "
                        "of SIGTERM and was killed"
                    )
                else:
                    if code != 0:
                        drain_failures.append(
                            f"pool pid {handle.proc.pid} exited {code} after SIGTERM"
                        )
        except OSError:
            pass
        # Belt and braces: no orphaned workers may outlive the test.
        for pid in handle.worker_pids().values():
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    if drain_failures:
        pytest.fail("; ".join(drain_failures))
