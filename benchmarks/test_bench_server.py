"""Benchmark: online gateway micro-batching efficiency.

Drives the in-process gateway (batcher + registry + scorer + metrics,
no sockets — the HTTP numbers live in the ``loadgen_http`` section the
CI smoke job merges in) with the closed-loop load generator at
concurrency 32 and measures:

* **micro-batched** — ``max_batch_size=64``, the production config; and
* **batch-size-1** — ``max_batch_size=1``, the batching ablation: the
  *same* gateway and scoring, only the coalescing disabled.

Acceptance (asserted): the micro-batched gateway coalesces requests and
reaches **>= 1.5x** the throughput of batch-size-1 serving on the same
artifact, and the scores the two modes return are **bitwise identical**
(the one scoring contract makes every patient's scores independent of
batch composition).  The wall-clock floors carry the ``timing``
marker, which the default run deselects (``pytest -m timing`` runs
them); the measurements and correctness checks always run.

The artifact is a paper-sized model (hidden 64 — Sec. V-A3) on the
synthetic chronic cohort.  Results land in the untracked
``.benchmarks/BENCH_server.json`` at the repo root.  Set
``BENCH_SERVER_SMOKE=1`` for the reduced CI smoke run (bitwise equality
still asserted, the 1.5x floor only logged — shared runners cannot
guarantee scheduler-sensitive wall-clock margins).
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import (
    DDIGCNConfig,
    DSSDDI,
    DSSDDIConfig,
    MDGCNConfig,
    ServerConfig,
)
from repro.atomicio import atomic_write_json
from repro.data import generate_chronic_cohort, split_patients, standardize_features
from repro.server import GatewayApp, ModelRegistry, publish_artifact, read_pool_state

from gateway_load import HTTPTarget, InprocTarget, make_feature_pool, run_load

SMOKE = os.environ.get("BENCH_SERVER_SMOKE") == "1"
CONCURRENCY = 32
DURATION_S = 0.6 if SMOKE else 1.2
ROUNDS = 1 if SMOKE else 3  # best-of: shrugs off scheduler noise
MAX_BATCH = 64
K = 3
MIN_SPEEDUP = 1.5
RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", ".benchmarks", "BENCH_server.json"
)

RESULTS = {
    "config": {
        "concurrency": CONCURRENCY,
        "duration_s": DURATION_S,
        "max_batch_size": MAX_BATCH,
        "hidden_dim": 64,
        "smoke": SMOKE,
    }
}


@pytest.fixture(scope="module")
def served_root(tmp_path_factory):
    """Fit a paper-sized (hidden 64) system and publish it."""
    cohort = generate_chronic_cohort(num_patients=200, seed=3)
    x = standardize_features(cohort.features)
    split = split_patients(200, seed=1)
    config = DSSDDIConfig(
        ddi=DDIGCNConfig(epochs=10 if SMOKE else 15, hidden_dim=64),
        md=MDGCNConfig(epochs=25 if SMOKE else 40, hidden_dim=64),
    )
    system = DSSDDI(config)
    system.fit(x[split.train], cohort.medications[split.train], cohort.ddi)
    root = tmp_path_factory.mktemp("bench_server") / "models"
    publish_artifact(system, root)
    return root


def _gateway(root, max_batch, trace_sample=0.0):
    return GatewayApp(
        ModelRegistry(root),
        ServerConfig(
            max_batch_size=max_batch, trace_sample=trace_sample, trace_ring=4096
        ),
    )


def _measure(root, max_batch, trace_sample=0.0):
    """Best-of-ROUNDS closed-loop measurement of one gateway config."""
    app = _gateway(root, max_batch, trace_sample)
    pool = make_feature_pool(app.registry.active().service.feature_dim)
    best = None
    try:
        run_load(  # warm-up: BLAS paths, thread pools, reservoirs
            InprocTarget(app), pool, duration_s=0.2, concurrency=CONCURRENCY, k=K
        )
        for _round in range(ROUNDS):
            report = run_load(
                InprocTarget(app),
                pool,
                duration_s=DURATION_S,
                concurrency=CONCURRENCY,
                k=K,
            )
            if best is None or report.throughput_rps > best.throughput_rps:
                best = report
    finally:
        app.close()
    return best


def _record(name, report):
    RESULTS[name] = report.to_dict()
    print(
        f"\n{name}: {report.throughput_rps:.0f} req/s "
        f"(p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms, "
        f"mean batch {report.mean_batch_rows:.1f}, errors {report.errors})"
    )


def _flush_results():
    try:
        with open(RESULTS_PATH, "r", encoding="utf-8") as fh:
            existing = json.load(fh)
        if not isinstance(existing, dict):
            existing = {}
    except (FileNotFoundError, json.JSONDecodeError):
        existing = {}
    existing.update(RESULTS)
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    # Atomic, like gateway_load.merge_report: an interrupted run leaves
    # the previous report whole.
    atomic_write_json(RESULTS_PATH, existing, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def batching_reports(served_root):
    """Measure the micro-batched and batch-size-1 gateways."""
    batched = _measure(served_root, MAX_BATCH)
    batch1 = _measure(served_root, 1)

    _record("micro_batched", batched)
    _record("batch_size_1", batch1)

    speedup = batched.throughput_rps / batch1.throughput_rps
    RESULTS["batching_speedup_vs_batch1"] = round(speedup, 2)
    print(f"\nmicro-batched vs batch-size-1: {speedup:.2f}x")
    _flush_results()
    return batched, batch1


def test_bench_micro_batching_coalesces(batching_reports):
    """Both modes serve without errors; only the batched one coalesces."""
    batched, batch1 = batching_reports
    assert batched.errors == batch1.errors == 0
    assert batched.mean_batch_rows > 4  # coalescing actually happened
    assert batch1.mean_batch_rows == 1.0


@pytest.mark.timing
def test_bench_micro_batching_speedup(batching_reports):
    """Acceptance: batched gateway >= 1.5x batch-size-1 at concurrency 32."""
    batched, batch1 = batching_reports
    speedup = batched.throughput_rps / batch1.throughput_rps
    if SMOKE:
        # Shared CI runners: log the ratio, only assert sanity.
        assert speedup > 1.0
    else:
        assert speedup >= MIN_SPEEDUP


@pytest.fixture(scope="module")
def tracing_reports(served_root):
    """Measure the gateway with tracing off and fully sampled.

    The sampled-off gateway (``trace_sample=0.0``, the default every
    other benchmark runs under) is the baseline; the fully-sampled one
    builds a six-span tree into the ring for every request.  Best-of-
    ROUNDS on both sides, same artifact, same load shape.
    """
    untraced = _measure(served_root, MAX_BATCH, trace_sample=0.0)
    traced = _measure(served_root, MAX_BATCH, trace_sample=1.0)

    _record("tracing_off", untraced)
    _record("tracing_full_sample", traced)
    ratio = traced.throughput_rps / untraced.throughput_rps
    RESULTS["tracing_full_sample_vs_off"] = round(ratio, 3)
    print(f"\nfull-sample tracing vs off: {ratio:.3f}x throughput")
    _flush_results()
    return untraced, traced


def test_bench_tracing_serves_without_errors(tracing_reports):
    """Full trace sampling at concurrency 32 drops no request."""
    untraced, traced = tracing_reports
    assert untraced.errors == traced.errors == 0


@pytest.mark.timing
def test_bench_tracing_overhead(tracing_reports):
    """Tracing costs nothing off and little on: the fully-sampled
    gateway stays within a modest margin of the sampled-off one."""
    untraced, traced = tracing_reports
    ratio = traced.throughput_rps / untraced.throughput_rps
    if SMOKE:
        # Shared CI runners: log the ratio, only assert sanity.
        assert ratio > 0.5
    else:
        # Span bookkeeping per request must stay in the noise floor
        # relative to the scoring work it wraps.
        assert ratio > 0.8, f"full-sample tracing cost {1 - ratio:.1%}"


#: Row count of the bitwise-equality probe set.
PROBE_ROWS = 24


def test_bench_bitwise_identical_scores(served_root):
    """Batched and batch-size-1 gateways return bitwise-equal scores."""
    import threading

    pool = make_feature_pool(71, pool_size=PROBE_ROWS, seed=99)

    def collect(app):
        out = [None] * PROBE_ROWS
        barrier = threading.Barrier(8 + 1)

        def worker(w):
            barrier.wait()
            for i in range(w, PROBE_ROWS, 8):
                status, body = app.suggest(
                    {"features": [pool[i].tolist()], "k": K, "return_scores": True}
                )
                assert status == 200
                out[i] = (body["suggestions"][0], body["scores"][0])

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        barrier.wait()
        for t in threads:
            t.join(timeout=60.0)
        return out

    batched_app = _gateway(served_root, MAX_BATCH)
    try:
        batched = collect(batched_app)
    finally:
        batched_app.close()
    batch1_app = _gateway(served_root, 1)
    try:
        sequential = collect(batch1_app)
    finally:
        batch1_app.close()

    for (batched_topk, batched_scores), (seq_topk, seq_scores) in zip(
        batched, sequential
    ):
        assert batched_topk == seq_topk
        assert np.array_equal(np.asarray(batched_scores), np.asarray(seq_scores))
    RESULTS["bitwise_identical_scores"] = True
    _flush_results()


# ---------------------------------------------------------------------------
# Pre-fork worker scaling (ISSUE 6)
# ---------------------------------------------------------------------------

CORES = len(os.sched_getaffinity(0))
WORKER_COUNTS = (1, 2, 4)
POOL_DURATION_S = 0.5 if SMOKE else 1.0
POOL_ROUNDS = 1 if SMOKE else 2
MIN_POOL_SPEEDUP = 2.0  # 4 workers vs 1, asserted only with >= 4 cores

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


class _Pool:
    """A `repro-serve --workers N` subprocess plus its discovery state."""

    def __init__(self, root, workers, stats_dir):
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.stats_dir = str(stats_dir)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.server", str(root),
                "--workers", str(workers),
                "--port", "0",
                "--stats-dir", self.stats_dir,
                "--stats-interval", "0.5",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.host = None
        self.port = None

    def wait_ready(self, workers, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"pool exited rc={self.proc.returncode}:\n"
                    f"{self.proc.stdout.read()}"
                )
            state = read_pool_state(self.stats_dir)
            if state and len(state.get("workers", {})) >= workers:
                self.host, self.port = state["host"], state["port"]
                try:
                    status, _ = self.http("GET", "/healthz")
                except OSError:
                    status = -1
                if status == 200:
                    return self
            time.sleep(0.1)
        raise RuntimeError(f"pool not ready within {timeout}s")

    def http(self, method, path, body=None, timeout=30.0):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(
                method, path, body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def terminate(self, timeout=60.0):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)


def _measure_pool(root, workers, stats_dir):
    """Best-of-rounds closed-loop HTTP load against a live worker pool."""
    pool = _Pool(root, workers, stats_dir)
    try:
        pool.wait_ready(workers)
        target = HTTPTarget(f"http://{pool.host}:{pool.port}")
        feature_pool = make_feature_pool(71)
        run_load(  # warm-up: connections, BLAS, per-worker batchers
            target, feature_pool, duration_s=0.2, concurrency=CONCURRENCY, k=K
        )
        best = None
        for _round in range(POOL_ROUNDS):
            report = run_load(
                target,
                feature_pool,
                duration_s=POOL_DURATION_S,
                concurrency=CONCURRENCY,
                k=K,
            )
            if best is None or report.throughput_rps > best.throughput_rps:
                best = report
        # Bitwise probe: the same patient scored through this pool.
        status, probe = pool.http(
            "POST", "/v1/suggest",
            body={
                "features": [feature_pool[0].tolist()],
                "k": K,
                "return_scores": True,
            },
        )
        assert status == 200
        target.close()
        return best, probe
    finally:
        pool.terminate()


@pytest.fixture(scope="module")
def workers_scaling(served_root, tmp_path_factory):
    """Measure pools of 1/2/4 workers; record and return the section."""
    section = {
        "cores": CORES,
        "concurrency": CONCURRENCY,
        "duration_s": POOL_DURATION_S,
        "smoke": SMOKE,
        "mmap_artifacts": True,
        "workers": {},
    }
    probes = {}
    throughput = {}
    for workers in WORKER_COUNTS:
        stats_dir = tmp_path_factory.mktemp(f"pool-stats-{workers}w")
        report, probe = _measure_pool(served_root, workers, stats_dir)
        throughput[workers] = report.throughput_rps
        probes[workers] = probe
        section["workers"][str(workers)] = report.to_dict()
        print(
            f"\nworkers={workers}: {report.throughput_rps:.0f} req/s "
            f"(p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms, "
            f"mean batch {report.mean_batch_rows:.1f})"
        )

    # Scores are bitwise-identical whatever the worker count: one
    # artifact, mmap'd read-only into every worker of every pool.
    reference = probes[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS[1:]:
        assert probes[workers]["suggestions"] == reference["suggestions"]
        assert probes[workers]["scores"] == reference["scores"]
        assert probes[workers]["version"] == reference["version"]
    section["bitwise_identical_across_worker_counts"] = True

    speedup = throughput[4] / throughput[1]
    section["speedup_4_vs_1"] = round(speedup, 2)
    print(f"\n4-worker vs 1-worker speedup: {speedup:.2f}x (cores={CORES})")

    RESULTS["workers_scaling"] = section
    _flush_results()
    return section


def test_bench_workers_scaling(workers_scaling):
    """Pools of 1/2/4 workers serve without errors and score bitwise
    alike; a one-worker pool reports its mean micro-batch size."""
    assert workers_scaling["bitwise_identical_across_worker_counts"]
    for report in workers_scaling["workers"].values():
        assert report["errors"] == 0
    assert workers_scaling["workers"]["1"]["mean_batch_rows"] >= 1.0


@pytest.mark.timing
def test_bench_workers_scaling_speedup(workers_scaling):
    """4 workers >= 2x one worker — asserted only on hosts with >= 4
    cores; on smaller boxes the pool cannot scale and the curve is
    recorded for transparency instead."""
    if CORES >= 4 and not SMOKE:
        assert workers_scaling["speedup_4_vs_1"] >= MIN_POOL_SPEEDUP
