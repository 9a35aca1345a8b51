"""Load generator for the gateway: closed/open-loop + a JSON report.

Two arrival models over the same targets:

* **closed-loop** (:func:`run_load`) — ``concurrency`` workers, each
  sending its next request as soon as the previous one answers; the
  standard way to measure a serving system's throughput/latency
  trade-off.
* **open-loop** (:func:`run_open_loop`) — requests dispatched on a
  precomputed arrival schedule *independent of response times*, the way
  real traffic arrives.  Latency is measured from the scheduled arrival,
  so queueing delay when the gateway falls behind the offered rate is
  *included* — closed-loop generators hide exactly that (coordinated
  omission).  Schedules are seeded and fully deterministic:
  :func:`poisson_schedule` (exponential inter-arrivals) and
  :func:`burst_schedule` (periodic on/off bursts via thinning).

Two transports, same traffic:

* **HTTP** (:class:`HTTPTarget`) — real ``POST /v1/suggest`` requests
  over persistent ``http.client`` connections against a live gateway;
  what the CI smoke job runs.
* **in-process** (:class:`InprocTarget`) — drives
  :meth:`repro.server.app.GatewayApp.suggest` directly, which measures
  the serving stack (batcher + registry + scorer + metrics) without the
  socket stack; what the batching-efficiency benchmark uses so the
  batched vs. batch-size-1 comparison is not drowned in HTTP overhead.

Traffic shape: single-patient requests drawn from a synthetic feature
pool (seeded Gaussian rows of the model's feature dimension — the scorer
is scale-oblivious at serving time, so this exercises the identical code
path as real cohort features).  ``hot_fraction`` focuses that draw on a
few hot rows to mimic the skew of production traffic.

As a script (see ``repro-serve`` docs; also ``python -m
repro.server.loadgen``) it targets a running gateway over HTTP and merges
its report into ``.benchmarks/BENCH_server.json``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import random
import socket
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np

from .resilience import backoff_delay

#: The conventional report path (relative to the repo root): under the
#: gitignored ``.benchmarks/``, next to the benchmark suite's reports, so
#: a load run never rewrites a tracked file.
DEFAULT_REPORT = ".benchmarks/BENCH_server.json"

#: Statuses worth retrying: transport failure, throttled, unavailable.
#: 503 carries the gateway's Retry-After hint (shed queue, open breaker,
#: expired deadline) — exactly the answers that mean "come back shortly".
RETRYABLE_STATUSES = frozenset({-1, 429, 503})


@dataclass
class RetryPolicy:
    """Client-side retry schedule for shed/unavailable responses.

    ``retries`` extra attempts per request, spaced by seeded
    full-jitter exponential backoff (:func:`repro.server.resilience.
    backoff_delay`) that never undercuts a server ``Retry-After`` hint.
    ``None`` (the default everywhere) keeps the old fire-once behavior.
    """

    retries: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 5.0


def _request_with_hint(conn, payload) -> Tuple[int, Optional[float]]:
    """(status, server retry hint in seconds) from one request."""
    fn = getattr(conn, "request_with_hint", None)
    if fn is not None:
        return fn(payload)
    return conn.request(payload), None


def send_with_retries(
    conn,
    payload: Dict[str, Any],
    policy: Optional[RetryPolicy],
    rng: random.Random,
) -> Tuple[int, int]:
    """One logical request under ``policy``; returns (status, retries used).

    Retries only :data:`RETRYABLE_STATUSES`; client errors (4xx) and
    successes return immediately.  The recorded latency of a retried
    request spans every attempt *including* the backoff sleeps — from
    the caller's point of view that is what the request cost.
    """
    attempts = 0
    while True:
        status, hint = _request_with_hint(conn, payload)
        if (
            policy is None
            or status not in RETRYABLE_STATUSES
            or attempts >= policy.retries
        ):
            return status, attempts
        delay = backoff_delay(
            attempts,
            policy.backoff_s,
            rng,
            cap_s=policy.backoff_cap_s,
            retry_after_s=hint,
        )
        if delay > 0:
            time.sleep(delay)
        attempts += 1


@dataclass
class LoadReport:
    """Result of one load-generation run.

    Attributes:
        requests / errors: completed and failed request counts.
        duration_s: measured wall-clock of the run.
        throughput_rps: requests per second (completed only).
        p50_ms / p90_ms / p99_ms: latency percentiles over all requests.
        mean_latency_ms: mean request latency.
        concurrency: closed-loop worker count (open-loop: sender cap).
        mean_batch_rows: mean rows per micro-batch flush observed by the
            gateway during the run (0 when the target cannot report it).
        mode: ``"closed"`` or the open-loop schedule kind
            (``"poisson"``/``"burst"``).
        offered_rps: scheduled arrival rate of an open-loop run (0 for
            closed-loop, where the load adapts to the service rate).
        retries: extra attempts spent on retryable (503/429/transport)
            responses across the whole run (0 without a
            :class:`RetryPolicy`).  ``errors`` counts only requests
            whose *final* attempt still failed.
        traced_requests: successful requests whose response carried a
            server trace id (``X-Repro-Trace`` / body ``trace_id``) —
            nonzero only when the gateway samples (``--trace-sample``).
        slowest_traces: the slowest traced requests as
            ``{"latency_ms", "trace_id"}``, so client-observed latency
            joins the server-side span decomposition: feed a trace id
            to ``GET /v1/trace?trace=...`` or ``repro trace``.
    """

    requests: int
    errors: int
    duration_s: float
    throughput_rps: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    mean_latency_ms: float
    concurrency: int
    mean_batch_rows: float = 0.0
    mode: str = "closed"
    offered_rps: float = 0.0
    retries: int = 0
    traced_requests: int = 0
    slowest_traces: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation."""
        return asdict(self)


class InprocTarget:
    """Drive a :class:`~repro.server.app.GatewayApp` without sockets."""

    def __init__(self, app) -> None:
        self.app = app
        #: Server trace id of the most recent response (best-effort:
        #: in-process workers share this target, so under concurrency
        #: this is telemetry, not an exact per-request join).
        self.last_trace_id: Optional[str] = None

    def connect(self):
        """Workers share the app; nothing per-worker to set up."""
        return self

    def request(self, payload: Dict[str, Any]) -> int:
        """One suggest call; returns the HTTP-equivalent status code."""
        return self.request_with_hint(payload)[0]

    def request_with_hint(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, Optional[float]]:
        """One suggest call plus the body's ``retry_after_s`` hint."""
        status, body = self.app.suggest(payload)
        hint = None
        if isinstance(body, dict):
            hint = body.get("retry_after_s")
            self.last_trace_id = body.get("trace_id")
        return status, hint

    def batch_counts(self) -> Tuple[float, float]:
        """(rows, flushes) the app's micro-batcher has flushed so far."""
        count, rows = self.app.metrics["repro_server_batch_size"].observed()
        return float(rows), float(count)


class HTTPTarget:
    """Drive a live gateway over persistent HTTP connections."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        parts = urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"only http:// targets are supported, got {base_url!r}")
        netloc = parts.netloc or parts.path  # allow bare host:port
        self.host, _, port = netloc.partition(":")
        self.port = int(port or 80)
        self.timeout = timeout
        self._metrics_conn: Optional[http.client.HTTPConnection] = None

    def connect(self) -> "_HTTPWorkerConnection":
        """A keep-alive connection owned by one worker thread."""
        return _HTTPWorkerConnection(self.host, self.port, self.timeout)

    def batch_counts(self) -> Optional[Tuple[float, float]]:
        """(rows, flushes) flushed so far, read from ``GET /metrics``.

        Behind a pre-fork pool the page carries the pool-wide
        ``repro_pool_batch_size`` sums, which are read in preference to
        the answering worker's own ``repro_server_batch_size``.  Returns
        None when the gateway cannot be reached.
        """
        try:
            if self._metrics_conn is None:
                self._metrics_conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            self._metrics_conn.request("GET", "/metrics")
            text = self._metrics_conn.getresponse().read().decode()
        except (http.client.HTTPException, OSError):
            self.close()
            return None
        return batch_counts_from_metrics(text)

    def close(self) -> None:
        """Close the ``/metrics`` connection (reopened on the next scrape)."""
        if self._metrics_conn is not None:
            self._metrics_conn.close()
            self._metrics_conn = None


def batch_counts_from_metrics(text: str) -> Tuple[float, float]:
    """(rows, flushes) from a ``/metrics`` page, pool-wide when it has them."""
    values = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        values[name] = value
    pooled = "repro_pool_batch_size_count" in values
    prefix = "repro_pool" if pooled else "repro_server"
    return (
        float(values.get(f"{prefix}_batch_size_sum", 0.0)),
        float(values.get(f"{prefix}_batch_size_count", 0.0)),
    )


def _mean_batch_rows(
    before: Optional[Tuple[float, float]], after: Optional[Tuple[float, float]]
) -> float:
    """Mean rows per flush between two ``batch_counts`` readings (0 if unknown)."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


class _HTTPWorkerConnection:
    """One worker's persistent connection to the gateway."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._host, self._port, self._timeout = host, port, timeout
        #: Server trace id (``X-Repro-Trace``) of the last response,
        #: None when the gateway did not trace that request.
        self.last_trace_id: Optional[str] = None
        self._conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        conn.connect()
        # Request/response ping-pong on a keep-alive connection: without
        # TCP_NODELAY every request risks a Nagle/delayed-ACK stall.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def request(self, payload: Dict[str, Any]) -> int:
        """One suggest POST; returns the status (-1 = transport error)."""
        return self.request_with_hint(payload)[0]

    def request_with_hint(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, Optional[float]]:
        """One suggest POST; returns (status, Retry-After seconds or None)."""
        body = json.dumps(payload)
        try:
            self._conn.request(
                "POST",
                "/v1/suggest",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            response.read()  # drain so the connection can be reused
            self.last_trace_id = response.getheader("X-Repro-Trace")
            retry_after = response.getheader("Retry-After")
            hint: Optional[float] = None
            if retry_after is not None:
                try:
                    hint = float(retry_after)
                except ValueError:
                    pass  # HTTP-date form: ignore, jitter alone decides
            return response.status, hint
        except (http.client.HTTPException, OSError):
            try:
                self._conn.close()
                self._conn = self._connect()
            except OSError:
                pass
            return -1, None


def make_feature_pool(
    feature_dim: int, pool_size: int = 256, seed: int = 7
) -> np.ndarray:
    """Seeded synthetic patient rows matching the model's feature width."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((pool_size, feature_dim))


def run_load(
    target,
    feature_pool: np.ndarray,
    duration_s: float = 2.0,
    concurrency: int = 32,
    k: int = 3,
    hot_fraction: float = 0.0,
    hot_rows: int = 8,
    seed: int = 23,
    retry_policy: Optional[RetryPolicy] = None,
) -> LoadReport:
    """Closed-loop load: ``concurrency`` workers for ``duration_s`` seconds.

    Each worker draws a row from ``feature_pool`` (with probability
    ``hot_fraction`` from its first ``hot_rows`` rows — skewed traffic),
    sends ``{"features": [row], "k": k}``, and records the latency.
    Returns a :class:`LoadReport`; failed requests count as errors and
    do not contribute latencies.  With a :class:`RetryPolicy`, shed and
    unavailable responses are retried under seeded jittered backoff
    (latency then spans all attempts) and only final failures count as
    errors.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    rng = np.random.default_rng(seed)
    # Pre-build a payload ring per worker so the measurement loop does no
    # numpy work of its own.
    ring_size = 64
    rings: List[List[Dict[str, Any]]] = []
    for _worker in range(concurrency):
        ring = []
        for _ in range(ring_size):
            if hot_fraction and rng.random() < hot_fraction:
                row = feature_pool[int(rng.integers(0, min(hot_rows, len(feature_pool))))]
            else:
                row = feature_pool[int(rng.integers(0, len(feature_pool)))]
            ring.append({"features": [row.tolist()], "k": k})
        rings.append(ring)

    latencies: List[List[float]] = [[] for _ in range(concurrency)]
    errors = [0] * concurrency
    retries = [0] * concurrency
    traced: List[List[Tuple[float, str]]] = [[] for _ in range(concurrency)]
    stop = threading.Event()
    barrier = threading.Barrier(concurrency + 1)

    def worker(index: int) -> None:
        try:
            conn = target.connect()
        except Exception:
            # A worker that cannot even connect must not leave the
            # barrier waiting forever: break it so everyone fails fast.
            errors[index] += 1
            barrier.abort()
            return
        ring = rings[index]
        mine = latencies[index]
        retry_rng = random.Random(seed * 7919 + index)
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            return
        i = 0
        while not stop.is_set():
            started = time.perf_counter()
            status, attempts = send_with_retries(
                conn, ring[i % ring_size], retry_policy, retry_rng
            )
            elapsed = time.perf_counter() - started
            retries[index] += attempts
            if status == 200:
                mine.append(elapsed)
                trace_id = getattr(conn, "last_trace_id", None)
                if trace_id:
                    traced[index].append((elapsed, trace_id))
            else:
                errors[index] += 1
            i += 1

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    batches_before = target.batch_counts()
    try:
        barrier.wait(timeout=60.0)
    except threading.BrokenBarrierError:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        return LoadReport(
            requests=0,
            errors=max(1, sum(errors)),
            duration_s=0.0,
            throughput_rps=0.0,
            p50_ms=0.0,
            p90_ms=0.0,
            p99_ms=0.0,
            mean_latency_ms=0.0,
            concurrency=concurrency,
        )
    started = time.perf_counter()
    time.sleep(duration_s)
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    elapsed = time.perf_counter() - started

    all_latencies = np.array(
        [value for worker_latencies in latencies for value in worker_latencies]
    )
    requests = int(all_latencies.size)
    if requests:
        p50, p90, p99 = (
            float(np.percentile(all_latencies, q) * 1e3) for q in (50, 90, 99)
        )
        mean_ms = float(all_latencies.mean() * 1e3)
    else:
        p50 = p90 = p99 = mean_ms = 0.0
    return LoadReport(
        requests=requests,
        errors=sum(errors),
        duration_s=elapsed,
        throughput_rps=requests / elapsed if elapsed > 0 else 0.0,
        p50_ms=p50,
        p90_ms=p90,
        p99_ms=p99,
        mean_latency_ms=mean_ms,
        concurrency=concurrency,
        mean_batch_rows=_mean_batch_rows(batches_before, target.batch_counts()),
        retries=sum(retries),
        **_trace_summary(traced),
    )


def _trace_summary(
    traced: List[List[Tuple[float, str]]], top_n: int = 8
) -> Dict[str, Any]:
    """The ``traced_requests`` / ``slowest_traces`` report fields."""
    flat = [pair for worker_pairs in traced for pair in worker_pairs]
    flat.sort(key=lambda pair: -pair[0])
    return {
        "traced_requests": len(flat),
        "slowest_traces": [
            {"latency_ms": round(latency * 1e3, 3), "trace_id": trace_id}
            for latency, trace_id in flat[:top_n]
        ],
    }


def poisson_schedule(
    rate_rps: float, duration_s: float, seed: int = 23
) -> np.ndarray:
    """Seeded Poisson arrival times (seconds from start), sorted.

    Exponential inter-arrival gaps at ``rate_rps``, accumulated until
    ``duration_s`` is covered.  Fully deterministic for a given
    ``(rate_rps, duration_s, seed)`` — the open-loop tests replay the
    exact same trace twice and assert bitwise-equal timestamps.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    rng = np.random.default_rng(seed)
    block = max(16, int(rate_rps * duration_s * 1.25) + 16)
    chunks: List[np.ndarray] = []
    last = 0.0
    while last <= duration_s:
        gaps = rng.exponential(1.0 / rate_rps, block)
        times = last + np.cumsum(gaps)
        chunks.append(times)
        last = float(times[-1])
    arrivals = np.concatenate(chunks)
    return arrivals[arrivals <= duration_s]


def burst_schedule(
    base_rate_rps: float,
    burst_rate_rps: float,
    duration_s: float,
    period_s: float = 1.0,
    burst_fraction: float = 0.25,
    seed: int = 23,
) -> np.ndarray:
    """Seeded bursty arrivals: periodic spikes over a base rate.

    The rate function alternates every ``period_s`` seconds: the first
    ``burst_fraction`` of each period runs at ``burst_rate_rps``, the
    rest at ``base_rate_rps``.  Sampled by *thinning*: draw a
    homogeneous Poisson stream at the peak rate, then keep each
    candidate with probability ``rate(t) / peak`` — the textbook exact
    method for inhomogeneous Poisson processes, and deterministic here
    because both the candidates and the keep draws come from one seeded
    generator.
    """
    if base_rate_rps <= 0:
        raise ValueError("base_rate_rps must be > 0")
    if burst_rate_rps < base_rate_rps:
        raise ValueError("burst_rate_rps must be >= base_rate_rps")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    if period_s <= 0:
        raise ValueError("period_s must be > 0")
    rng = np.random.default_rng(seed)
    block = max(16, int(burst_rate_rps * duration_s * 1.25) + 16)
    chunks: List[np.ndarray] = []
    last = 0.0
    while last <= duration_s:
        gaps = rng.exponential(1.0 / burst_rate_rps, block)
        times = last + np.cumsum(gaps)
        chunks.append(times)
        last = float(times[-1])
    candidates = np.concatenate(chunks)
    candidates = candidates[candidates <= duration_s]
    phase = np.mod(candidates, period_s)
    rate_at = np.where(
        phase < burst_fraction * period_s, burst_rate_rps, base_rate_rps
    )
    keep = rng.random(candidates.size) < rate_at / burst_rate_rps
    return candidates[keep]


def run_open_loop(
    target,
    feature_pool: np.ndarray,
    schedule: np.ndarray,
    k: int = 3,
    hot_fraction: float = 0.0,
    hot_rows: int = 8,
    seed: int = 23,
    max_inflight: int = 64,
    mode: str = "poisson",
    retry_policy: Optional[RetryPolicy] = None,
) -> LoadReport:
    """Open-loop load: dispatch on ``schedule``, regardless of responses.

    A dispatcher walks the arrival schedule in real time and hands each
    arrival to a pool of ``max_inflight`` sender threads (each owning a
    persistent connection).  Latency is measured **from the scheduled
    arrival time** to response completion, so if the gateway falls
    behind the offered rate, the backlog shows up as latency — the
    coordinated-omission-free measurement closed loops cannot give.

    ``max_inflight`` bounds concurrent outstanding requests; arrivals
    beyond it queue (and their queue wait is, correctly, part of their
    latency).  Returns a :class:`LoadReport` with ``mode`` and the
    offered rate filled in.
    """
    schedule = np.sort(np.asarray(schedule, dtype=np.float64))
    if schedule.size == 0:
        raise ValueError("schedule must contain at least one arrival")
    if max_inflight < 1:
        raise ValueError("max_inflight must be >= 1")
    rng = np.random.default_rng(seed)
    ring_size = 64
    ring: List[Dict[str, Any]] = []
    for _ in range(ring_size):
        if hot_fraction and rng.random() < hot_fraction:
            row = feature_pool[int(rng.integers(0, min(hot_rows, len(feature_pool))))]
        else:
            row = feature_pool[int(rng.integers(0, len(feature_pool)))]
        ring.append({"features": [row.tolist()], "k": k})

    work: "queue.Queue" = queue.Queue()
    latencies: List[List[float]] = [[] for _ in range(max_inflight)]
    errors = [0] * max_inflight
    retries = [0] * max_inflight
    traced: List[List[Tuple[float, str]]] = [[] for _ in range(max_inflight)]
    connect_failed = threading.Event()

    def sender(index: int) -> None:
        try:
            conn = target.connect()
        except Exception:
            connect_failed.set()
            errors[index] += 1
            # Keep draining so the dispatcher never blocks on a dead pool.
            while work.get() is not None:
                errors[index] += 1
            return
        mine = latencies[index]
        retry_rng = random.Random(seed * 7919 + index)
        while True:
            item = work.get()
            if item is None:
                return
            i, scheduled_at = item
            status, attempts = send_with_retries(
                conn, ring[i % ring_size], retry_policy, retry_rng
            )
            completed = time.perf_counter() - start
            retries[index] += attempts
            if status == 200:
                mine.append(completed - scheduled_at)
                trace_id = getattr(conn, "last_trace_id", None)
                if trace_id:
                    traced[index].append((completed - scheduled_at, trace_id))
            else:
                errors[index] += 1

    threads = [
        threading.Thread(target=sender, args=(i,), daemon=True)
        for i in range(max_inflight)
    ]
    batches_before = target.batch_counts()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for i, scheduled_at in enumerate(schedule):
        delay = start + scheduled_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        work.put((i, float(scheduled_at)))
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(timeout=60.0)
    elapsed = time.perf_counter() - start

    all_latencies = np.array(
        [value for sender_latencies in latencies for value in sender_latencies]
    )
    requests = int(all_latencies.size)
    if requests:
        p50, p90, p99 = (
            float(np.percentile(all_latencies, q) * 1e3) for q in (50, 90, 99)
        )
        mean_ms = float(all_latencies.mean() * 1e3)
    else:
        p50 = p90 = p99 = mean_ms = 0.0
    span = float(schedule[-1]) if schedule[-1] > 0 else elapsed
    return LoadReport(
        requests=requests,
        errors=sum(errors),
        duration_s=elapsed,
        throughput_rps=requests / elapsed if elapsed > 0 else 0.0,
        p50_ms=p50,
        p90_ms=p90,
        p99_ms=p99,
        mean_latency_ms=mean_ms,
        concurrency=max_inflight,
        mean_batch_rows=_mean_batch_rows(batches_before, target.batch_counts()),
        mode=mode,
        offered_rps=schedule.size / span if span > 0 else 0.0,
        retries=sum(retries),
        **_trace_summary(traced),
    )


def merge_report(path: str, key: str, payload: Dict[str, Any]) -> None:
    """Merge ``payload`` under ``key`` in the JSON report at ``path``.

    The benchmark and the HTTP load generator both write to
    ``.benchmarks/BENCH_server.json``; merging keeps one file with every
    section.
    The parent directory is created when missing.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if not isinstance(report, dict):
            report = {}
    except (FileNotFoundError, json.JSONDecodeError):
        report = {}
    report[key] = payload
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fetch_healthz(url: str, timeout: float = 10.0) -> Dict[str, Any]:
    target = HTTPTarget(url)
    conn = http.client.HTTPConnection(target.host, target.port, timeout=timeout)
    conn.request("GET", "/healthz")
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    if response.status != 200:
        raise RuntimeError(f"healthz returned {response.status}: {raw[:200]!r}")
    return json.loads(raw)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: load-generate against a live gateway over HTTP."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.loadgen",
        description="Closed/open-loop load generator for the repro-serve gateway.",
    )
    parser.add_argument("--url", default="http://127.0.0.1:8035")
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument(
        "--mode", choices=("closed", "poisson", "burst"), default="closed",
        help="closed-loop workers (default) or open-loop seeded arrivals",
    )
    parser.add_argument(
        "--rate", type=float, default=200.0,
        help="open-loop offered rate in requests/s (poisson; burst base rate)",
    )
    parser.add_argument(
        "--burst-rate", type=float, default=None,
        help="burst mode: peak rate during bursts (default 4x --rate)",
    )
    parser.add_argument(
        "--burst-period", type=float, default=1.0,
        help="burst mode: seconds per base+burst cycle",
    )
    parser.add_argument(
        "--burst-fraction", type=float, default=0.25,
        help="burst mode: fraction of each period spent at the peak rate",
    )
    parser.add_argument(
        "--seed", type=int, default=23,
        help="seed for the arrival schedule and payload draw "
        "(same seed = bitwise-identical schedule)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="open-loop: cap on concurrently outstanding requests",
    )
    parser.add_argument(
        "--hot-fraction", type=float, default=0.0,
        help="fraction of requests drawn from a few hot rows (skewed traffic)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request HTTP timeout in seconds",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per request on 503/429/transport errors "
        "(0 = fire once, the old behavior)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.05,
        help="base of the seeded full-jitter exponential retry backoff "
        "in seconds (honors the server's Retry-After)",
    )
    parser.add_argument(
        "--output", default=None,
        help=f"merge the report into this JSON file (e.g. {DEFAULT_REPORT})",
    )
    parser.add_argument(
        "--report-key", default="loadgen_http",
        help="section name used inside the output JSON",
    )
    args = parser.parse_args(argv)

    health = _fetch_healthz(args.url)
    print(
        f"gateway {args.url}: version={health.get('version')} "
        f"feature_dim={health.get('feature_dim')} num_drugs={health.get('num_drugs')}"
    )
    pool = make_feature_pool(int(health["feature_dim"]))
    retry_policy = (
        RetryPolicy(retries=args.retries, backoff_s=args.backoff)
        if args.retries > 0
        else None
    )
    target = HTTPTarget(args.url, timeout=args.timeout)
    if args.mode == "closed":
        report = run_load(
            target,
            pool,
            duration_s=args.duration,
            concurrency=args.concurrency,
            k=args.k,
            hot_fraction=args.hot_fraction,
            seed=args.seed,
            retry_policy=retry_policy,
        )
    else:
        if args.mode == "poisson":
            schedule = poisson_schedule(args.rate, args.duration, seed=args.seed)
        else:
            burst_rate = args.burst_rate if args.burst_rate is not None else 4.0 * args.rate
            schedule = burst_schedule(
                args.rate,
                burst_rate,
                args.duration,
                period_s=args.burst_period,
                burst_fraction=args.burst_fraction,
                seed=args.seed,
            )
        report = run_open_loop(
            target,
            pool,
            schedule,
            k=args.k,
            hot_fraction=args.hot_fraction,
            seed=args.seed,
            max_inflight=args.max_inflight,
            mode=args.mode,
            retry_policy=retry_policy,
        )
        print(
            f"open-loop {args.mode}: {schedule.size} scheduled arrivals "
            f"({report.offered_rps:.0f}/s offered, seed {args.seed})"
        )
    target.close()
    print(
        f"{report.requests} requests in {report.duration_s:.2f}s "
        f"({report.throughput_rps:.0f}/s, concurrency {report.concurrency}), "
        f"{report.errors} errors, {report.retries} retries, "
        f"mean batch {report.mean_batch_rows:.1f} rows"
    )
    print(
        f"latency ms: p50 {report.p50_ms:.2f}  p90 {report.p90_ms:.2f}  "
        f"p99 {report.p99_ms:.2f}  mean {report.mean_latency_ms:.2f}"
    )
    if args.output:
        payload = report.to_dict()
        payload["url"] = args.url
        payload["version"] = health.get("version")
        merge_report(args.output, args.report_key, payload)
        print(f"merged section {args.report_key!r} into {args.output}")
    return 0 if report.errors == 0 and report.requests > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
