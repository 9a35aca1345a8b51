"""``repro.obs`` — unified tracing and structured telemetry.

The observability layer of the reproduction: deterministic spans from
the HTTP edge down to the scoring kernel, a structured (JSONL) logger
replacing bare prints in library code, and export paths into Perfetto
and the run manifests.  Stdlib-only; see ``docs/observability.md``.

Public surface:

* :class:`Tracer`, :class:`Span`, :class:`SpanContext` — the span API
  (:mod:`repro.obs.trace`);
* :data:`TRACE_HEADER`, :func:`parse_header`, :func:`format_header` —
  cross-process propagation via ``X-Repro-Trace``;
* :func:`get_tracer` / :func:`set_tracer` — the env-configured
  process-global tracer used by pipeline and training instrumentation;
* :func:`current_span` — the thread's active span (chaos annotations);
* :func:`chrome_trace` / :func:`spans_from_chrome` — Chrome
  ``trace_event`` export and its inverse;
* :func:`get_logger`, :class:`StructLogger`, :class:`JsonlSink`,
  :func:`read_jsonl` — structured logging (:mod:`repro.obs.log`);
* :mod:`repro.obs.metrics` — the typed metrics registry (counter,
  histogram, gauge) behind every ``/metrics`` page, with
  ``render`` (Prometheus text) and ``merge`` (pool-wide sums).
"""

from .log import JsonlSink, StructLogger, get_logger, read_jsonl
from .trace import (
    TRACE_HEADER,
    Span,
    SpanContext,
    Tracer,
    chrome_trace,
    current_span,
    format_header,
    get_tracer,
    parse_header,
    set_tracer,
    spans_from_chrome,
)

__all__ = [
    "TRACE_HEADER",
    "Span",
    "SpanContext",
    "Tracer",
    "chrome_trace",
    "current_span",
    "format_header",
    "get_tracer",
    "parse_header",
    "set_tracer",
    "spans_from_chrome",
    "JsonlSink",
    "StructLogger",
    "get_logger",
    "read_jsonl",
]
