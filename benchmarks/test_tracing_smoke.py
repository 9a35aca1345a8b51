"""Tracing smoke: a full-sample gateway serves span trees that add up.

Launches ``python -m repro.server <root> --port 0 --trace-sample 1.0``,
sends 20 ``/v1/suggest`` requests and checks that:

* every response carries a ``trace_id`` and ``/v1/trace`` returns at
  least 20 ``request.suggest`` roots;
* at least 10 roots have every suggest phase as a child, and the phases
  cover 90-100.1% of the root's duration;
* the chrome export round-trips through ``spans_from_chrome``;
* ``repro trace summary`` reads the payload and ``repro trace export``
  writes a non-empty chrome trace.

The coverage ratio depends on the host's scheduler, so the test carries
the ``timing`` marker, which the default run deselects::

    PYTHONPATH=src python -m pytest benchmarks/test_tracing_smoke.py -m timing -s
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.trace import spans_from_chrome
from repro.server.app import SUGGEST_PHASES

REPO_ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"  # the startup line names the bound port
    return env


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _serve(proc):
    """The port from the startup line, then /healthz once it answers 200."""
    port = None
    for line in proc.stdout:
        match = re.search(r"on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    assert port is not None, f"server exited rc={proc.wait()} before serving"
    while proc.poll() is None:
        try:
            status, health = _request(port, "GET", "/healthz")
        except OSError:
            time.sleep(0.1)
            continue
        if status == 200:
            return port, health
    raise AssertionError(f"server exited rc={proc.returncode} before /healthz")


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.pipeline", "trace", *args],
        cwd=str(REPO_ROOT), env=_env(), capture_output=True, text=True,
    )


@pytest.mark.timing
def test_full_sample_span_trees_cover_each_request(model_root, tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", str(model_root),
         "--host", "127.0.0.1", "--port", "0",
         "--trace-sample", "1.0", "--trace-ring", "4096"],
        cwd=str(REPO_ROOT), env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        port, health = _serve(proc)
        assert health["status"] == "ok", health
        assert health["trace_sample"] == 1.0, health

        features = [[0.0] * health["feature_dim"]]
        for _ in range(20):
            status, body = _request(
                port, "POST", "/v1/suggest", {"features": features, "k": 3})
            assert status == 200 and "trace_id" in body, body

        status, payload = _request(port, "GET", "/v1/trace?limit=4096")
        assert status == 200 and payload["count"] == len(payload["spans"])
        spans = payload["spans"]
        roots = [s for s in spans if s["name"] == "request.suggest"]
        assert len(roots) >= 20, f"only {len(roots)} roots traced"
        checked = 0
        for root in roots:
            children = [
                s for s in spans
                if s["parent"] == root["span"] and s["name"] in SUGGEST_PHASES
            ]
            if len(children) != len(SUGGEST_PHASES):
                continue  # ring may have evicted part of an early trace
            phase_total = sum(c["dur_s"] for c in children)
            assert phase_total <= root["dur_s"] * 1.001, (root, phase_total)
            assert phase_total >= 0.9 * root["dur_s"], (
                f"phases cover {phase_total / root['dur_s']:.1%} of root")
            checked += 1
        assert checked >= 10, f"only {checked} complete span trees"

        status, chrome = _request(port, "GET", "/v1/trace?format=chrome")
        assert status == 200 and chrome["traceEvents"], "empty chrome export"
        restored = spans_from_chrome(chrome)
        assert any(s["name"] == "request.suggest" for s in restored)
        print(f"tracing smoke: {checked} span trees verified, "
              f"{len(chrome['traceEvents'])} chrome events")
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        proc.stdout.close()

    saved = tmp_path / "trace_payload.json"
    saved.write_text(json.dumps(payload))
    summary = _cli("summary", "--input", str(saved))
    assert summary.returncode == 0, summary.stdout + summary.stderr
    exported = tmp_path / "trace_chrome.json"
    export = _cli("export", "--input", str(saved), "-o", str(exported))
    assert export.returncode == 0, export.stdout + export.stderr
    assert spans_from_chrome(json.loads(exported.read_text())), "export empty"
