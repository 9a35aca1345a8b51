"""The gateway application: routes, validation, batching, telemetry.

:class:`GatewayApp` is the transport-independent heart of the online
gateway.  It owns the :class:`~repro.server.registry.ModelRegistry`, the
:class:`~repro.server.batcher.MicroBatcher` and the metrics
:class:`~repro.obs.metrics.Registry`, and exposes one method per endpoint
taking/returning plain Python values:

========================  =============================================
``POST /v1/suggest``      :meth:`GatewayApp.suggest`
``POST /v1/explain``      :meth:`GatewayApp.explain`
``GET /healthz``          :meth:`GatewayApp.healthz`
``GET /metrics``          :meth:`GatewayApp.metrics_text`
``GET /v1/versions``      :meth:`GatewayApp.versions`
``POST /-/reload``        :meth:`GatewayApp.reload`
========================  =============================================

The HTTP layer (:mod:`repro.server.http`) is a thin JSON shim over these
methods, and the load generator's in-process mode drives them directly —
both therefore measure and exercise the same code.

Request flow for ``suggest``: validate the feature matrix, submit it to
the micro-batcher (where it coalesces with concurrent requests into one
:meth:`repro.serving.SuggestionService.predict_scores` call), then apply
the per-request top-k / re-rank step through the service that scored the
batch.  The model handle is resolved *per flush*, so a hot-swap between
two flushes is atomic and drops nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import __version__, chaos
from ..core.config import ServerConfig
from ..core.ms_module import Explanation
from ..obs.log import JsonlSink
from ..obs.metrics import BATCH_BUCKETS, PHASE_BUCKETS, Registry, render
from ..obs.trace import Span, SpanContext, Tracer, chrome_trace, parse_header
from .batcher import BatcherClosed, MicroBatcher, SubmitTimeout
from .registry import ModelRegistry, NoModelError, ServingHandle, watch
from .resilience import CLOSED, CircuitBreaker


class RequestError(ValueError):
    """A client error (HTTP 400): malformed body or out-of-range fields."""


def _as_feature_matrix(value: Any, feature_dim: int, max_rows: int) -> np.ndarray:
    """Validate and convert the ``features`` field to (n, feature_dim)."""
    if value is None:
        raise RequestError("missing required field 'features'")
    try:
        x = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"features must be numeric: {exc}") from None
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise RequestError(f"features must be 1-D or 2-D, got {x.ndim}-D")
    if x.size == 0:
        raise RequestError("features must contain at least one row")
    if x.shape[0] > max_rows:
        raise RequestError(
            f"too many rows ({x.shape[0]} > max_request_rows={max_rows})"
        )
    if x.shape[1] != feature_dim:
        raise RequestError(
            f"feature dimension mismatch: got {x.shape[1]}, model expects "
            f"{feature_dim}"
        )
    if not np.isfinite(x).all():
        raise RequestError("features must be finite (no NaN/Inf)")
    return x


def explanation_to_dict(explanation: Explanation) -> Dict[str, Any]:
    """JSON-safe representation of an MS-module explanation."""
    return {
        "suggested": [int(d) for d in explanation.suggested],
        "community": [int(d) for d in explanation.community],
        "synergy_within": [[int(a), int(b)] for a, b in explanation.synergy_within],
        "antagonism_within": [
            [int(a), int(b)] for a, b in explanation.antagonism_within
        ],
        "antagonism_avoided": [
            [int(a), int(b)] for a, b in explanation.antagonism_avoided
        ],
        "satisfaction": {
            "value": float(explanation.satisfaction.value),
            "r_in_pos": int(explanation.satisfaction.r_in_pos),
            "r_in_neg": int(explanation.satisfaction.r_in_neg),
            "r_out_neg": int(explanation.satisfaction.r_out_neg),
            "subgraph_nodes": int(explanation.satisfaction.subgraph_nodes),
            "k": int(explanation.satisfaction.k),
        },
        "text": explanation.render(),
    }


@dataclass(frozen=True)
class _ReqMeta:
    """Per-request metadata riding through the micro-batcher.

    The batcher treats ``meta`` as opaque; the flush unpacks the
    requested ``k`` and, for traced requests, the span context that
    links the request's trace to the shared batch-scoring span.
    """

    k: Optional[int]
    trace: Optional[SpanContext] = None


@dataclass(frozen=True)
class _FlushInfo:
    """Flush-shared context returned to every request in a batch.

    Carries the model handle that answered the flush (the existing
    contract) plus the ``perf_counter`` stamps the request path turns
    into its ``queue_wait`` / ``batch_wait`` / ``score`` phases, and
    the batch span (if any traced request rode in this flush).
    """

    handle: ServingHandle
    flush_started: float
    score_started: float
    score_ended: float
    rows: int
    requests: int
    batch_span: Optional[SpanContext] = None


#: ``Retry-After`` hint (seconds) on a ``queue_full`` shed.
QUEUE_FULL_RETRY_S = 0.05

#: The request-lifecycle phases a traced ``suggest`` decomposes into.
SUGGEST_PHASES = ("parse", "queue_wait", "batch_wait", "score", "serialize")


class GatewayApp:
    """Online serving gateway over a versioned model registry.

    Args:
        registry: the model registry to serve from (the app calls
            ``reload()`` once at start-up unless ``lazy`` is set).
        config: deployment knobs (:class:`repro.core.ServerConfig`).
        lazy: skip the initial model load (requests 503 until a
            successful ``reload``) — used by tests and by deployments
            that publish after the gateway starts.

    Usage::

        app = GatewayApp(ModelRegistry("models/"), ServerConfig())
        status, body = app.suggest({"features": [[...]]})
        app.close()
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[ServerConfig] = None,
        lazy: bool = False,
    ) -> None:
        self.config = config or ServerConfig()
        self.config.validate()
        self.registry = registry
        if registry.score_block is None:
            # Deployment config decides the scoring shape; an explicit 0
            # (legacy variable-shape path) overrides the artifact too.
            registry.score_block = self.config.score_block
        self.started_at = time.monotonic()
        #: Request tracer (see :mod:`repro.obs`).  With the default
        #: ``trace_sample=0.0`` only requests that *arrive* with an
        #: ``X-Repro-Trace`` header are traced; everything else pays a
        #: single float comparison.
        self._trace_sink = (
            JsonlSink(self.config.trace_log) if self.config.trace_log else None
        )
        self.tracer = Tracer(
            sample=self.config.trace_sample,
            ring_size=self.config.trace_ring,
            service="repro-server",
            sink=self._trace_sink,
        )
        #: Registry lifecycle (swap/quarantine) lands as instant spans.
        registry.trace_events = self._registry_event
        #: Circuit breaker around the scoring path; ``None`` when
        #: ``breaker_threshold`` is 0 (disabled).
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            )
            if self.config.breaker_threshold > 0
            else None
        )
        #: Set by the pool's worker drain path: /healthz answers 503
        #: "draining" so load balancers stop routing here while in-flight
        #: requests finish.
        self.draining = False
        #: Set by the pre-fork pool's worker_main: {"worker", "pid",
        #: "mmap"}.  None in the single-process gateway.
        self.worker_info: Optional[Dict[str, Any]] = None
        #: Extra text appended to /metrics (the pool's cross-process
        #: aggregate); None renders per-process metrics only.
        self.metrics_extra: Optional[Callable[[], str]] = None
        #: Every ``/metrics`` family, registered once (read at scrape).
        self.metrics = self._register_metrics()
        if not lazy:
            self.registry.reload()
        self.batcher = MicroBatcher(
            self._flush,
            max_batch_size=self.config.max_batch_size,
            on_flush=lambda requests, rows: self._batch_sizes.observe(rows),
        )
        self._watch_stop = threading.Event()
        self._watch_thread: Optional[threading.Thread] = None
        if self.config.watch_interval_s > 0:
            self._watch_thread = threading.Thread(
                target=watch,
                args=(self.registry, self.config.watch_interval_s, self._watch_stop),
                kwargs={"on_swap": self._on_swap},
                name="repro-registry-watch",
                daemon=True,
            )
            self._watch_thread.start()

    def _register_metrics(self) -> Registry:
        """The gateway's metric families, each registered once.

        Serving counts (patients scored, explanation-cache lookups) are
        the gateway's own, not the active service's, so they run for the
        gateway's lifetime across hot-swaps.  What another object already
        counts (flushes, swaps, breaker trips) is read from it when
        ``/metrics`` is scraped, as are the gauges.
        """
        m = Registry()
        s = "repro_server_"
        self._requests = m.counter(
            s + "requests_total",
            "Finished requests by endpoint and HTTP status.",
            ("endpoint", "status"),
        )
        self._latency = m.histogram(
            s + "request_latency_seconds",
            "End-to-end request latency by endpoint.",
            PHASE_BUCKETS,
            ("endpoint",),
        )
        self._phases = m.histogram(
            s + "phase_latency_seconds",
            "Request lifecycle phase durations "
            "(parse/queue_wait/batch_wait/score/serialize).",
            PHASE_BUCKETS,
            ("phase",),
        )
        self._batch_sizes = m.histogram(
            s + "batch_size", "Coalesced rows per micro-batch flush.", BATCH_BUCKETS
        )
        self._shed_total = m.counter(
            s + "shed_total",
            "Requests shed by admission control, deadline, or the breaker.",
            ("reason",),
        )
        self._scoring_failures = m.counter(
            s + "scoring_failures_total",
            "Batch flushes that raised inside the scoring call.",
        )
        self._model_swaps = m.counter(
            s + "model_swaps_total",
            "Model hot-swaps by trigger (reload endpoint or watcher).",
            ("trigger",),
        )
        self._patients_scored = m.counter(
            s + "patients_scored_total", "Patient rows scored by this gateway."
        )
        hits = self._cache_hits = m.counter(
            s + "explanation_cache_hits_total", "Explanations served from cache."
        )
        misses = self._cache_misses = m.counter(
            s + "explanation_cache_misses_total", "Explanations computed afresh."
        )
        read_counters = [
            ("flushes_total", "Micro-batch flushes.", lambda: self.batcher.flushes),
            ("registry_swaps_total", "Model versions swapped in by the registry.",
             lambda: self.registry.swaps),
            ("registry_reload_errors_total", "Registry reloads that failed.",
             lambda: self.registry.reload_errors),
        ]
        if self.breaker is not None:
            read_counters += [
                ("breaker_opens_total", "Times the scoring circuit opened.",
                 lambda: self.breaker.opens),
                ("breaker_rejections_total", "Requests the open circuit rejected.",
                 lambda: self.breaker.rejections),
            ]
        for suffix, help_text, read in read_counters:
            m.counter(s + suffix, help_text, read=read)
        gauges = [
            ("uptime_seconds", "Seconds since the gateway started.",
             lambda: time.monotonic() - self.started_at),
            ("queue_depth", "Patient rows waiting in the micro-batcher.",
             lambda: self.batcher.queue_depth),
            ("quarantined_versions", "Model versions quarantined as corrupt.",
             lambda: len(self.registry.quarantined)),
            ("degraded", "1 while the scoring circuit is open or probing.",
             lambda: int(self.degraded)),
            ("draining", "1 while the worker drains before exiting.",
             lambda: int(self.draining)),
            ("trace_sample", "Fraction of requests traced.",
             lambda: self.tracer.sample),
            ("explanation_cache_hit_rate", "Share of explanations served from cache.",
             lambda: hits.value() / max(1, hits.value() + misses.value())),
            ("model_info", "The active model version.",
             lambda: [({"version": self.registry.active().version.name}, 1)]
             if self.registry.has_model else []),
            ("worker_info", "Identity of this pool worker.",
             lambda: [({k: self.worker_info[k] for k in ("worker", "pid")}, 1)]
             if self.worker_info is not None else []),
        ]
        for suffix, help_text, read in gauges:
            m.gauge(s + suffix, help_text, read)
        return m

    # ------------------------------------------------------------------
    def _registry_event(self, event: str, fields: Dict[str, Any]) -> None:
        """Registry swap/quarantine observer -> instant span (if sampled)."""
        self.tracer.instant(event, **fields)

    def _flush(self, stacked: np.ndarray, items) -> Tuple[list, _FlushInfo]:
        """Batch executor: one scoring call + one top-k call per distinct k.

        ``items`` is ``[(row_count, _ReqMeta), ...]``.  Scoring *and*
        the top-k/re-rank step run on the whole coalesced matrix (top-k
        is a per-row pure function, so batching it preserves bitwise
        equality with sequential ``suggest``); each request gets back
        its ``(scores_rows, suggestion_rows)`` slice.  The model handle
        is resolved once per flush: every request in a flush is answered
        by one consistent model version.

        Returns a :class:`_FlushInfo` shared by every request in the
        flush: the handle plus the phase-boundary timestamps.  When any
        request in the batch is traced, the whole scoring step runs
        under one ``batch_score`` span parented to the first traced
        request — the other traced requests link to it by id, which is
        how N request traces share a single kernel invocation.
        """
        flush_started = time.perf_counter()
        handle = self.registry.active()
        service = handle.service
        traced = [meta.trace for _rows, meta in items if meta.trace is not None]
        batch_span: Optional[Span] = None
        if traced:
            batch_span = self.tracer.start_span(
                "batch_score",
                parent=traced[0],
                attrs={
                    "rows": int(stacked.shape[0]),
                    "requests": len(items),
                    "traces": sorted({t.trace_id for t in traced}),
                    "version": handle.version.name,
                },
            )
            # Activate on the batcher thread so chaos hits inside the
            # scoring call annotate this span.
            batch_span.__enter__()
        score_started = time.perf_counter()
        try:
            try:
                # ``gateway.score`` is the chaos harness's hook into the
                # hot path: an ``err`` rule simulates a broken model
                # (feeds the breaker), a ``sleep`` rule injects scoring
                # latency (feeds the deadline tests).
                chaos.failpoint("gateway.score")
                self._patients_scored.inc(int(stacked.shape[0]))
                scores = service.predict_scores(stacked)
            except Exception:
                # One flush failure is one scoring failure, however many
                # requests were coalesced into it — record it here, not
                # per request, so the breaker threshold means what it
                # says.
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            distinct_k = {meta.k if meta.k is not None else service.config.default_k
                          for _rows, meta in items}
            topk = {k: service.topk_from_scores(scores, k) for k in distinct_k}
            results = []
            offset = 0
            for rows, meta in items:
                k = meta.k if meta.k is not None else service.config.default_k
                results.append(
                    (scores[offset : offset + rows], topk[k][offset : offset + rows])
                )
                offset += rows
        except BaseException as exc:
            if batch_span is not None:
                batch_span.__exit__(type(exc), exc, exc.__traceback__)
                batch_span = None
            raise
        finally:
            if batch_span is not None:
                batch_span.__exit__(None, None, None)
        score_ended = time.perf_counter()
        return results, _FlushInfo(
            handle=handle,
            flush_started=flush_started,
            score_started=score_started,
            score_ended=score_ended,
            rows=int(stacked.shape[0]),
            requests=len(items),
            batch_span=batch_span.context() if batch_span is not None else None,
        )

    def _on_swap(self, version) -> None:
        self._model_swaps.inc(trigger="watch")

    # ------------------------------------------------------------------
    def suggest(
        self, body: Dict[str, Any], trace_parent: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/suggest``: micro-batched top-k suggestions.

        Body: ``{"features": [[...]] | [...], "k": int?,
        "return_scores": bool?}``.  Returns suggestions (one id list per
        patient row), the serving version, and optionally the raw score
        rows.

        ``trace_parent`` is the raw ``X-Repro-Trace`` header value, if
        the client sent one: the request is then traced unconditionally
        and its spans join the caller's trace.  Otherwise the sampler
        (``--trace-sample``) decides.  Traced responses carry
        ``trace_id``; the HTTP layer echoes it as ``X-Repro-Trace``.
        """
        started = time.perf_counter()
        status, response = self._suggest_inner(body, trace_parent)
        self._observe_request("suggest", status, time.perf_counter() - started)
        return status, response

    def _observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        self._requests.inc(endpoint=endpoint, status=status)
        self._latency.observe(seconds, endpoint=endpoint)

    def _observe_phases(self, phases: List[Tuple[str, float, float]]) -> None:
        """Record ``(phase, start, end)`` stamps; a negative span counts as 0."""
        for name, start, end in phases:
            self._phases.observe(max(0.0, end - start), phase=name)

    def _deadline_s(self, body: Dict[str, Any]) -> Optional[float]:
        """Effective time budget in seconds for this request, or None.

        The deployment's ``deadline_ms`` is the ceiling; a request body
        may carry its own (smaller) ``deadline_ms`` — a client that will
        give up in 50 ms gains nothing from the server working for 200.
        """
        config_ms = self.config.deadline_ms or None
        body_ms = body.get("deadline_ms")
        if body_ms is not None:
            try:
                body_ms = float(body_ms)
            except (TypeError, ValueError):
                raise RequestError("deadline_ms must be a number") from None
            if body_ms <= 0:
                raise RequestError("deadline_ms must be > 0")
            if config_ms is not None:
                body_ms = min(body_ms, config_ms)
            return body_ms / 1000.0
        return config_ms / 1000.0 if config_ms is not None else None

    def _shed(
        self, reason: str, error: str, retry_after_s: float
    ) -> Tuple[int, Dict[str, Any]]:
        """One load-shedding 503: count it, attach the retry hint."""
        self._shed_total.inc(reason=reason)
        return 503, {
            "error": error,
            "shed": reason,
            "retry_after_s": round(max(retry_after_s, 0.001), 3),
        }

    def _suggest_inner(
        self, body: Dict[str, Any], trace_parent: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """Sampling decision, phase bookkeeping, and span finalization.

        The request work itself lives in :meth:`_suggest_phased`, which
        appends ``(phase, perf_start, perf_end)`` triples as it crosses
        each boundary.  Phase *timestamps* are collected for every
        request (three ``perf_counter`` calls per flush plus per-request
        arithmetic — they feed the ``/metrics`` phase histograms);
        *spans* are only materialized for sampled requests.
        """
        ctx = parse_header(trace_parent)
        root: Optional[Span] = None
        if ctx is not None or self.tracer.sample_decision():
            root = self.tracer.start_span("request.suggest", parent=ctx)
            if self.worker_info is not None:
                root.set("worker", self.worker_info["worker"])
        phases: List[Tuple[str, float, float]] = []
        try:
            status, response = self._suggest_phased(body, root, phases)
        except BaseException as exc:
            if root is not None:
                root.set("error", f"{type(exc).__name__}: {exc}")
                root.end()
            raise
        if status == 200:
            self._observe_phases(phases)
        if root is not None:
            root.set("status", status)
            root.end()
            # Children are derived from the recorded stamps *after* the
            # root closes, so their bookkeeping cost never widens the
            # parent they must account for.
            for name, start, end in phases:
                self.tracer.record_child(root, name, start, end)
            response["trace_id"] = root.trace_id
        return status, response

    def _suggest_phased(
        self,
        body: Dict[str, Any],
        root: Optional[Span],
        phases: List[Tuple[str, float, float]],
    ) -> Tuple[int, Dict[str, Any]]:
        t0 = root.start_perf if root is not None else time.perf_counter()
        started = time.monotonic()
        try:
            handle = self.registry.active()
        except NoModelError as exc:
            return 503, {"error": str(exc)}
        service = handle.service
        try:
            x = _as_feature_matrix(
                body.get("features"),
                service.feature_dim,
                self.config.max_request_rows,
            )
            k = body.get("k")
            if k is not None:
                k = int(k)
                if not 1 <= k <= service.num_drugs:
                    raise RequestError(
                        f"k must be in [1, {service.num_drugs}], got {k}"
                    )
            return_scores = bool(body.get("return_scores", False))
            deadline_s = self._deadline_s(body)
        except RequestError as exc:
            return 400, {"error": str(exc)}
        if self.breaker is not None and not self.breaker.allow():
            return self._shed(
                "breaker",
                "scoring circuit open: gateway is in degraded mode",
                self.breaker.retry_after(),
            )
        limit = self.config.queue_limit
        if limit and self.batcher.queue_depth >= limit:
            # Admission control: beyond the limit, every queued row only
            # adds latency for everyone — shed now, retry after a short
            # fixed pause.
            return self._shed(
                "queue_full",
                f"admission queue full ({self.batcher.queue_depth} rows "
                f">= queue_limit={limit})",
                QUEUE_FULL_RETRY_S,
            )
        timeout = self.config.submit_timeout_s
        if deadline_s is not None:
            remaining = deadline_s - (time.monotonic() - started)
            if remaining <= 0:
                return self._shed(
                    "deadline",
                    f"deadline of {deadline_s * 1000:.0f} ms expired before "
                    f"scoring started",
                    deadline_s,
                )
            timeout = min(timeout, remaining)
        t_submit = time.perf_counter()
        phases.append(("parse", t0, t_submit))
        meta = _ReqMeta(
            k=k, trace=root.context() if root is not None else None
        )
        try:
            (scores, suggestions), info = self.batcher.submit(
                x, meta=meta, timeout=timeout
            )
        except SubmitTimeout as exc:
            if deadline_s is not None and timeout < self.config.submit_timeout_s:
                return self._shed(
                    "deadline",
                    f"deadline of {deadline_s * 1000:.0f} ms expired in the "
                    f"batch queue: {exc}",
                    deadline_s,
                )
            return 503, {"error": f"batch timeout: {exc}", "retry_after_s": 1.0}
        except BatcherClosed:
            return 503, {"error": "gateway is shutting down", "retry_after_s": 1.0}
        except NoModelError as exc:
            return 503, {"error": str(exc)}
        except Exception as exc:
            # A flush blew up (a broken model, an injected fault, a
            # hot-swap to a different feature width invalidating queued
            # requests).  The batch is poisoned but the gateway is fine
            # — this is a *service-unavailable* condition, not a server
            # bug: answer 503 with a retry hint (the breaker, fed inside
            # the flush, decides whether the next attempt is even let
            # through) so a well-behaved client backs off and retries.
            self._scoring_failures.inc()
            retry_after = (
                self.breaker.retry_after() if self.breaker is not None else 0.1
            )
            return 503, {
                "error": f"scoring failed: {type(exc).__name__}: {exc}",
                "retry_after_s": round(max(retry_after, 0.001), 3),
            }
        phases.append(("queue_wait", t_submit, info.flush_started))
        phases.append(("batch_wait", info.flush_started, info.score_started))
        phases.append(("score", info.score_started, info.score_ended))
        if root is not None and info.batch_span is not None:
            root.event(
                "batch",
                span=info.batch_span.span_id,
                rows=info.rows,
                requests=info.requests,
            )
        if deadline_s is not None and time.monotonic() - started > deadline_s:
            # The result exists but arrived past the budget: the caller
            # has (by contract) already given up, so the honest answer
            # is the deadline 503, not a response nobody is reading.
            return self._shed(
                "deadline",
                f"deadline of {deadline_s * 1000:.0f} ms expired during "
                f"scoring",
                deadline_s,
            )
        response: Dict[str, Any] = {
            "suggestions": suggestions.tolist(),
            "k": int(suggestions.shape[1]),
            "version": info.handle.version.name,
        }
        if self.worker_info is not None:
            response["worker"] = self.worker_info["worker"]
        if return_scores:
            response["scores"] = scores.tolist()
        # Serialize starts where scoring ended, so it also carries the
        # hand-back from the flusher thread to this one.
        phases.append(("serialize", info.score_ended, time.perf_counter()))
        return 200, response

    def explain(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/explain``: MS-module explanation of a drug set.

        Body: ``{"suggested": [drug ids]}``.  Served from the service's
        LRU explanation cache when the set was explained before.
        """
        started = time.perf_counter()
        status, response = self._explain_inner(body)
        self._observe_request("explain", status, time.perf_counter() - started)
        return status, response

    def _explain_inner(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        try:
            handle = self.registry.active()
        except NoModelError as exc:
            return 503, {"error": str(exc)}
        suggested = body.get("suggested")
        if not isinstance(suggested, (list, tuple)) or not suggested:
            return 400, {"error": "'suggested' must be a non-empty list of drug ids"}
        try:
            drugs = [int(d) for d in suggested]
        except (TypeError, ValueError):
            return 400, {"error": "'suggested' must contain integers"}
        n = handle.service.num_drugs
        bad = [d for d in drugs if not 0 <= d < n]
        if bad:
            return 400, {"error": f"unknown drug ids {bad} (catalog size {n})"}
        explanation, hit = handle.service.lookup_explanation(drugs)
        (self._cache_hits if hit else self._cache_misses).inc()
        response = explanation_to_dict(explanation)
        response["version"] = handle.version.name
        return 200, response

    @property
    def degraded(self) -> bool:
        """Whether the scoring circuit is currently open or probing."""
        return self.breaker is not None and self.breaker.state != CLOSED

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /healthz``: deep health, not just liveness.

        Status ladder (each state implies the ones below are moot):

        * ``draining`` (503) — the worker is shutting down; stop routing
          here, in-flight requests still get answers.
        * ``no_model`` (503) — nothing loadable to serve.
        * ``degraded`` (200) — serving, but the scoring breaker is open
          or probing: expect 503s with ``Retry-After`` on suggest.
        * ``ok`` (200) — serving normally.
        """
        base: Dict[str, Any] = {
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "queue_depth": self.batcher.queue_depth,
            # Package version and sampling rate, so probes and
            # dashboards stop scraping /metrics for liveness metadata.
            # ("version" is taken by the *model* version below.)
            "repro_version": __version__,
            "trace_sample": self.tracer.sample,
        }
        if self.worker_info is not None:
            base["worker"] = dict(self.worker_info)
        if self.breaker is not None:
            base["breaker"] = self.breaker.state
        quarantined = self.registry.quarantined
        if quarantined:
            base["quarantined"] = sorted(quarantined)
        if self.draining:
            base["status"] = "draining"
            return 503, base
        try:
            handle = self.registry.active()
        except NoModelError as exc:
            base.update({"status": "no_model", "error": str(exc)})
            return 503, base
        base.update(
            {
                "status": "degraded" if self.degraded else "ok",
                "version": handle.version.name,
                "feature_dim": handle.service.feature_dim,
                "num_drugs": handle.service.num_drugs,
                "versions_available": len(self.registry.versions()),
            }
        )
        return 200, base

    def trace_payload(
        self, query: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/trace``: recent finished spans from the in-memory ring.

        Query parameters: ``trace=<id>`` filters to one trace,
        ``limit=<n>`` bounds the span count, ``format=chrome`` returns a
        Chrome ``trace_event`` document (Perfetto-loadable as saved)
        instead of the default ``{"spans": [...]}`` payload.

        In a ``--workers N`` pool each worker owns its ring, so one GET
        sees one worker's spans; clients chasing a specific trace retry
        until the kernel routes them to the worker that served it (the
        payload's ``pid`` says who answered).
        """
        query = query or {}
        limit: Optional[int] = None
        if "limit" in query:
            try:
                limit = max(0, int(query["limit"]))
            except (TypeError, ValueError):
                return 400, {"error": "limit must be an integer"}
        trace_id = query.get("trace") or None
        spans = self.tracer.drain(limit=limit, trace_id=trace_id)
        if query.get("format") == "chrome":
            return 200, chrome_trace(spans, service=self.tracer.service)
        return 200, {
            "spans": spans,
            "count": len(spans),
            "sample": self.tracer.sample,
            "pid": os.getpid(),
        }

    def versions(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/versions``: what the artifact root currently holds."""
        active = (
            self.registry.active().version.name if self.registry.has_model else None
        )
        return 200, {
            "active": active,
            "pinned": self.registry.pinned_version,
            "versions": [
                {
                    "name": v.name,
                    "digest": v.digest,
                    "created_at": v.created_at,
                    "active": v.name == active,
                }
                for v in self.registry.versions()
            ],
        }

    def reload(self) -> Tuple[int, Dict[str, Any]]:
        """``POST /-/reload``: hot-swap to the pinned-or-latest version."""
        try:
            swapped, version = self.registry.reload()
        except NoModelError as exc:
            return 503, {"error": str(exc)}
        except Exception as exc:
            # A corrupt/half-readable target: the active version keeps
            # serving (reload never tears it down), report the failure.
            return 500, {"error": f"reload failed: {type(exc).__name__}: {exc}"}
        if swapped:
            self._model_swaps.inc(trigger="reload")
        return 200, {"reloaded": swapped, "version": version.name}

    def metrics_text(self) -> str:
        """``GET /metrics``: Prometheus text exposition of every family."""
        text = render(self.metrics.snapshot())
        if self.metrics_extra is not None:
            text += self.metrics_extra()
        return text

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the watcher and the batcher (flushing queued requests)."""
        self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=5.0)
        self.batcher.close(flush_remaining=True)
        if self._trace_sink is not None:
            self._trace_sink.close()

    def __enter__(self) -> "GatewayApp":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parse_json_body(raw: bytes) -> Dict[str, Any]:
    """Decode a request body, raising :class:`RequestError` on bad JSON."""
    if not raw:
        raise RequestError("empty request body (expected JSON)")
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RequestError(f"invalid JSON: {exc}") from None
    except UnicodeDecodeError:
        # json.loads decodes bytes itself; non-UTF-8 noise raises this
        # instead of JSONDecodeError and must be the same client error.
        raise RequestError("invalid JSON: request body is not UTF-8") from None
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    return body
