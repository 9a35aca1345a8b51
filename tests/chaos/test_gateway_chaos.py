"""Gateway resilience under injected faults: deadlines, breaker, shedding.

The acceptance bar from the hardening issue: under injected scoring
errors and latency, **no request ever sees a 500** — every failure mode
maps to an orderly 503 with a ``Retry-After`` hint — and the gateway
flips into (and back out of) explicit degraded mode that ``/healthz``
and ``/metrics`` report truthfully.
"""

import http.client
import time

import pytest

from repro import chaos
from repro.core.config import ServerConfig
from repro.server import GatewayApp, ModelRegistry, publish_artifact
from repro.server.http import build_server, serve_in_thread


@pytest.fixture(scope="module")
def model_root(fitted_system, tmp_path_factory):
    system, _pool = fitted_system
    root = tmp_path_factory.mktemp("gateway-chaos") / "models"
    publish_artifact(system, root)
    return root


def make_app(model_root, **overrides):
    defaults = dict(
        max_batch_size=8,
        breaker_threshold=3,
        breaker_cooldown_s=0.2,
    )
    defaults.update(overrides)
    config = ServerConfig(**defaults)
    return GatewayApp(ModelRegistry(model_root), config)


@pytest.fixture()
def app(model_root):
    with make_app(model_root) as app:
        yield app


def suggest_body(app, **extra):
    dim = app.registry.active().service.feature_dim
    body = {"features": [[0.0] * dim], "k": 3}
    body.update(extra)
    return body


class TestDeadlines:
    def test_injected_latency_expires_the_budget(self, app):
        with chaos.chaos("gateway.score=sleep:120"):
            status, body = app.suggest(suggest_body(app, deadline_ms=40))
        assert status == 503
        assert body["shed"] == "deadline"
        assert body["retry_after_s"] > 0
        assert (
            app.metrics["repro_server_shed_total"].value(reason="deadline")
            == 1
        )

    def test_generous_deadline_still_succeeds(self, app):
        status, body = app.suggest(suggest_body(app, deadline_ms=5000))
        assert status == 200
        assert len(body["suggestions"][0]) == 3

    def test_config_deadline_caps_body_deadline(self, model_root):
        with make_app(model_root, deadline_ms=40.0) as app:
            with chaos.chaos("gateway.score=sleep:120"):
                # The body asks for more than the deployment allows.
                status, body = app.suggest(suggest_body(app, deadline_ms=60000))
            assert status == 503
            assert body["shed"] == "deadline"
            assert "40 ms" in body["error"]

    @pytest.mark.parametrize("bad", ["soon", 0, -5])
    def test_invalid_body_deadline_is_a_client_error(self, app, bad):
        status, body = app.suggest(suggest_body(app, deadline_ms=bad))
        assert status == 400
        assert "deadline_ms" in body["error"]


class TestCircuitBreaker:
    def test_scoring_faults_trip_the_breaker_into_degraded_mode(self, app):
        with chaos.chaos("gateway.score=err"):
            statuses = [
                app.suggest(suggest_body(app))[0] for _ in range(5)
            ]
        assert set(statuses) == {503}
        assert app.degraded
        assert app.breaker.state != "closed"

        status, health = app.healthz()
        assert status == 200  # degraded still serves: don't kill the pod
        assert health["status"] == "degraded"
        assert health["breaker"] in ("open", "half-open")

        text = app.metrics_text()
        assert "repro_server_degraded 1" in text
        assert "repro_server_scoring_failures_total" in text
        assert "repro_server_breaker_opens_total 1" in text

    def test_open_breaker_sheds_without_touching_scoring(self, app):
        with chaos.chaos("gateway.score=err"):
            for _ in range(3):
                app.suggest(suggest_body(app))
        flushes_when_open = app.batcher.flushes
        status, body = app.suggest(suggest_body(app))
        assert status == 503
        assert body["shed"] == "breaker"
        assert body["retry_after_s"] > 0
        assert app.batcher.flushes == flushes_when_open  # shed pre-queue
        assert (
            app.metrics["repro_server_shed_total"].value(reason="breaker")
            == 1
        )

    def test_breaker_recovers_after_cooldown(self, app):
        with chaos.chaos("gateway.score=err#3"):
            for _ in range(3):
                assert app.suggest(suggest_body(app))[0] == 503
        assert app.degraded
        time.sleep(app.config.breaker_cooldown_s + 0.05)
        # Faults exhausted (#3): the half-open probe succeeds and closes
        # the circuit.
        status, body = app.suggest(suggest_body(app))
        assert status == 200
        assert not app.degraded
        assert app.healthz()[1]["status"] == "ok"
        assert "repro_server_degraded 0" in app.metrics_text()

    def test_zero_500s_under_flaky_scoring(self, app):
        """The headline invariant: seeded 50%-flaky scoring, breaker
        flapping, every single response is 200 or 503."""
        statuses = []
        with chaos.chaos("gateway.score=err@0.5", seed=42):
            for _ in range(60):
                statuses.append(app.suggest(suggest_body(app))[0])
                if app.degraded:
                    time.sleep(app.config.breaker_cooldown_s + 0.02)
        assert set(statuses) <= {200, 503}, sorted(set(statuses))
        assert 200 in statuses
        assert 503 in statuses


class TestQueueShedding:
    def test_full_queue_sheds_with_retry_hint(self, model_root, monkeypatch):
        with make_app(model_root, queue_limit=4) as app:
            monkeypatch.setattr(
                type(app.batcher), "queue_depth", property(lambda self: 4)
            )
            status, body = app.suggest(suggest_body(app))
            assert status == 503
            assert body["shed"] == "queue_full"
            assert body["retry_after_s"] > 0
            assert (
                app.metrics["repro_server_shed_total"].value(reason="queue_full")
                == 1
            )


class TestRetryAfterHeader:
    def test_http_layer_promotes_the_hint_to_a_header(self, model_root):
        import json

        with make_app(model_root) as app:
            server = build_server(app, host="127.0.0.1", port=0)
            _thread, stop = serve_in_thread(server)
            try:
                host, port = server.server_address[:2]
                body = json.dumps(suggest_body(app))
                with chaos.chaos("gateway.score=err"):
                    response = payload = None
                    for _ in range(4):  # trip the breaker, then get shed
                        conn = http.client.HTTPConnection(host, port, timeout=10)
                        conn.request(
                            "POST", "/v1/suggest", body=body,
                            headers={"Content-Type": "application/json"},
                        )
                        response = conn.getresponse()
                        payload = json.loads(response.read())
                        conn.close()
                assert response.status == 503, payload
                header = response.getheader("Retry-After")
                assert header is not None
                assert float(header) == payload["retry_after_s"] > 0
            finally:
                stop()


class TestDrainingHealth:
    def test_draining_reports_503(self, app):
        assert app.healthz()[0] == 200
        app.draining = True
        status, health = app.healthz()
        assert status == 503
        assert health["status"] == "draining"
        assert "repro_server_draining 1" in app.metrics_text()
