"""Load generator for the repro-serve gateway: closed/open loop + a JSON report.

A benchmarking client, not part of the library: nothing under ``src/``
imports it, so it lives next to the benchmarks that drive it::

    PYTHONPATH=src python benchmarks/gateway_load.py --url http://127.0.0.1:8035

Two arrival models share one sender loop (:func:`_drive`):

* **closed loop** (:func:`run_load`) — each of ``concurrency`` senders
  sends its next request as soon as the previous one answers.
* **open loop** (:func:`run_open_loop`) — requests go out on a seeded
  arrival schedule (:func:`poisson_schedule`, :func:`burst_schedule`)
  whatever the response times.  Latency counts from the scheduled
  arrival, so the queueing delay of a gateway that falls behind is
  included, not hidden (coordinated omission).

Two transports, same traffic: :class:`HTTPTarget` sends real ``POST
/v1/suggest`` requests on keep-alive connections; :class:`InprocTarget`
calls :meth:`repro.server.app.GatewayApp.suggest` directly, which
measures the serving stack without the socket stack.  Requests carry
one row of a seeded synthetic feature pool (:func:`make_feature_pool`);
``hot_fraction`` skews the draw towards a few hot rows.

As a script it merges its report into the JSON file given by
``--output``, conventionally ``.benchmarks/BENCH_server.json``.
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.atomicio import atomic_write_json

#: Statuses worth retrying: transport failure, throttled, unavailable.
#: 503 carries the gateway's Retry-After hint (shed queue, open breaker,
#: expired deadline) — exactly the answers that mean "come back shortly".
RETRYABLE_STATUSES = frozenset({-1, 429, 503})

#: Payloads pre-built per sender, so the measurement loop does no numpy
#: work of its own.
RING_SIZE = 64


def backoff_delay(
    attempt: int,
    base_s: float,
    rng,
    cap_s: float = 30.0,
    retry_after_s: Optional[float] = None,
) -> float:
    """Jittered exponential delay before retry number ``attempt`` (0-based).

    Full jitter: uniform in ``[0, min(cap_s, base_s * 2**attempt)]``, so
    a shed burst does not come back as a synchronized thundering herd.
    When the server sent a ``Retry-After`` hint, the delay never
    undercuts it — the server knows when it expects to recover.
    """
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    ceiling = min(cap_s, base_s * (2.0 ** attempt))
    delay = rng.uniform(0.0, ceiling)
    if retry_after_s is not None:
        delay = max(delay, float(retry_after_s))
    return delay


@dataclass
class RetryPolicy:
    """Client-side retry schedule for shed/unavailable responses.

    ``retries`` extra attempts per request, spaced by seeded
    full-jitter exponential backoff (:func:`backoff_delay`) that never
    undercuts a server ``Retry-After`` hint.  ``None`` (the default
    everywhere) keeps the old fire-once behavior.
    """

    retries: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 5.0


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
        status, hint = conn.request_with_hint(payload)
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

    def request_with_hint(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, Optional[float]]:
        """One suggest call: (HTTP-equivalent status, body's ``retry_after_s``)."""
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

    def request_with_hint(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, Optional[float]]:
        """One suggest POST: (status or -1 on transport error, Retry-After s)."""
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


def _payload_rings(
    feature_pool: np.ndarray,
    senders: int,
    k: int,
    hot_fraction: float,
    hot_rows: int,
    seed: int,
) -> List[List[Dict[str, Any]]]:
    """One seeded ring of ``RING_SIZE`` request bodies per sender.

    With probability ``hot_fraction`` a row comes from the pool's first
    ``hot_rows`` rows (skewed traffic), otherwise from the whole pool.
    """
    rng = np.random.default_rng(seed)
    rings = []
    for _sender in range(senders):
        ring = []
        for _ in range(RING_SIZE):
            if hot_fraction and rng.random() < hot_fraction:
                row = feature_pool[int(rng.integers(0, min(hot_rows, len(feature_pool))))]
            else:
                row = feature_pool[int(rng.integers(0, len(feature_pool)))]
            ring.append({"features": [row.tolist()], "k": k})
        rings.append(ring)
    return rings


def _drive(
    target,
    rings: List[List[Dict[str, Any]]],
    next_arrival: Callable[[], Optional[float]],
    run: Callable[[float], None],
    seed: int,
    retry_policy: Optional[RetryPolicy],
    **report_fields: Any,
) -> LoadReport:
    """The one sender loop and report block behind both arrival models.

    One sender thread per ring, each on its own connection.  A sender
    calls ``next_arrival()`` for every request: the request's scheduled
    start on the ``time.perf_counter`` clock, or None to stop.  Latency
    is completion minus that start, over successful requests only.

    Every sender connects before a start barrier.  One that cannot
    breaks the barrier, so the run fails fast: ``requests=0``,
    ``errors>=1``, ``duration_s=0.0``.  Otherwise ``run(start)`` drives
    the load and returns once every sender has been told to stop.
    """
    senders = len(rings)
    latencies: List[float] = []  # list.append is atomic: shared by senders
    traced: List[Tuple[float, str]] = []
    errors = [0] * senders
    retries = [0] * senders
    barrier = threading.Barrier(senders + 1)

    def sender(index: int) -> None:
        try:
            conn = target.connect()
        except Exception:
            errors[index] += 1
            barrier.abort()
            return
        ring = rings[index]
        retry_rng = random.Random(seed * 7919 + index)
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            return
        sent = 0
        while True:
            arrival = next_arrival()
            if arrival is None:
                return
            status, attempts = send_with_retries(
                conn, ring[sent % RING_SIZE], retry_policy, retry_rng
            )
            latency = time.perf_counter() - arrival
            sent += 1
            retries[index] += attempts
            if status != 200:
                errors[index] += 1
                continue
            latencies.append(latency)
            if conn.last_trace_id:
                traced.append((latency, conn.last_trace_id))

    threads = [
        threading.Thread(target=sender, args=(i,), daemon=True)
        for i in range(senders)
    ]
    for thread in threads:
        thread.start()
    batches_before = target.batch_counts()
    try:
        barrier.wait(timeout=60.0)
        started = time.perf_counter()
    except threading.BrokenBarrierError:
        started = None
    else:
        run(started)
    for thread in threads:
        thread.join(timeout=60.0)
    elapsed = 0.0 if started is None else time.perf_counter() - started
    batches_after = target.batch_counts()
    mean_batch_rows = 0.0
    if batches_before and batches_after and batches_after[1] > batches_before[1]:
        mean_batch_rows = (batches_after[0] - batches_before[0]) / (
            batches_after[1] - batches_before[1]
        )

    requests = len(latencies)
    p50 = p90 = p99 = mean_ms = 0.0
    if requests:
        p50, p90, p99 = (np.percentile(latencies, (50, 90, 99)) * 1e3).tolist()
        mean_ms = float(np.mean(latencies) * 1e3)
    traced.sort(key=lambda pair: -pair[0])
    return LoadReport(
        requests=requests,
        errors=sum(errors) if started is not None else max(1, sum(errors)),
        duration_s=elapsed,
        throughput_rps=requests / elapsed if elapsed > 0 else 0.0,
        p50_ms=p50,
        p90_ms=p90,
        p99_ms=p99,
        mean_latency_ms=mean_ms,
        concurrency=senders,
        mean_batch_rows=mean_batch_rows,
        retries=sum(retries),
        traced_requests=len(traced),
        slowest_traces=[
            {"latency_ms": round(latency * 1e3, 3), "trace_id": trace_id}
            for latency, trace_id in traced[:8]
        ],
        **report_fields,
    )


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

    Each worker sends ``{"features": [row], "k": k}`` bodies back to
    back.  Failed requests count as errors and do not contribute
    latencies.  With a :class:`RetryPolicy`, shed and unavailable
    responses are retried under seeded jittered backoff (latency then
    spans all attempts) and only final failures count as errors.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    stop = threading.Event()

    def next_arrival() -> Optional[float]:
        return None if stop.is_set() else time.perf_counter()

    def run(_start: float) -> None:
        time.sleep(duration_s)
        stop.set()

    rings = _payload_rings(feature_pool, concurrency, k, hot_fraction, hot_rows, seed)
    return _drive(target, rings, next_arrival, run, seed, retry_policy)


def _exponential_arrivals(
    rate_rps: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson arrival times in ``(0, duration_s]`` from ``rng``.

    Exponential gaps are drawn in chunks sized to cover the window in
    one draw on average, and accumulated until it is covered.
    """
    block = max(16, int(rate_rps * duration_s * 1.25) + 16)
    chunks: List[np.ndarray] = []
    last = 0.0
    while last <= duration_s:
        times = last + np.cumsum(rng.exponential(1.0 / rate_rps, block))
        chunks.append(times)
        last = float(times[-1])
    arrivals = np.concatenate(chunks)
    return arrivals[arrivals <= duration_s]


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
    return _exponential_arrivals(rate_rps, duration_s, np.random.default_rng(seed))


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
    candidates = _exponential_arrivals(burst_rate_rps, duration_s, rng)
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
    arrival to one of ``max_inflight`` senders.  Latency is measured
    **from the scheduled arrival time**, so if the gateway falls behind
    the offered rate, the backlog shows up as latency.

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
    work: "queue.Queue[Optional[float]]" = queue.Queue()

    def run(start: float) -> None:
        for scheduled_at in schedule:
            delay = start + scheduled_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            work.put(start + float(scheduled_at))
        for _ in range(max_inflight):
            work.put(None)

    span = float(schedule[-1])
    rings = _payload_rings(feature_pool, max_inflight, k, hot_fraction, hot_rows, seed)
    return _drive(
        target,
        rings,
        work.get,
        run,
        seed,
        retry_policy,
        mode=mode,
        offered_rps=schedule.size / span if span > 0 else 0.0,
    )


def merge_report(path: str, key: str, payload: Dict[str, Any]) -> None:
    """Merge ``payload`` under ``key`` in the JSON report at ``path``.

    The benchmark and the HTTP load generator both write to
    ``.benchmarks/BENCH_server.json``; merging keeps one file with every
    section.  The write is atomic, so a merge that fails partway leaves
    the previous report whole.  The parent directory is created when
    missing.
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
    atomic_write_json(path, report, indent=2, sort_keys=True)


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
        prog="python benchmarks/gateway_load.py",
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
        help="merge the report into this JSON file "
        "(e.g. .benchmarks/BENCH_server.json)",
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
    common = dict(
        k=args.k, hot_fraction=args.hot_fraction, seed=args.seed,
        retry_policy=retry_policy,
    )
    if args.mode == "closed":
        report = run_load(
            target, pool, duration_s=args.duration,
            concurrency=args.concurrency, **common,
        )
    else:
        if args.mode == "poisson":
            schedule = poisson_schedule(args.rate, args.duration, seed=args.seed)
        else:
            burst_rate = args.burst_rate if args.burst_rate is not None else 4.0 * args.rate
            schedule = burst_schedule(
                args.rate, burst_rate, args.duration, period_s=args.burst_period,
                burst_fraction=args.burst_fraction, seed=args.seed,
            )
        report = run_open_loop(
            target, pool, schedule, max_inflight=args.max_inflight,
            mode=args.mode, **common,
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
