"""End-to-end gateway tests: app routes, validation, HTTP transport."""

import json
import http.client

import numpy as np
import pytest

from repro.core import ServerConfig
from repro.serving import SuggestionService
from repro.server import (
    GatewayApp,
    ModelRegistry,
    build_server,
    publish_artifact,
    serve_in_thread,
)


@pytest.fixture()
def app(model_root):
    gateway = GatewayApp(
        ModelRegistry(model_root),
        ServerConfig(max_batch_size=8, score_block=8),
    )
    yield gateway
    gateway.close()


class TestSuggestRoute:
    def test_matches_direct_service(self, app, model_root, fitted_system):
        _system, pool = fitted_system
        status, body = app.suggest({"features": pool[:4].tolist(), "k": 3})
        assert status == 200
        reference = SuggestionService.load(
            model_root / body["version"],
        )
        # Same artifact + same fixed-shape scoring config as the gateway.
        from dataclasses import replace

        reference = SuggestionService(
            reference._system, config=replace(reference.config, score_block=8)
        )
        assert body["suggestions"] == reference.suggest(pool[:4], k=3).tolist()
        assert body["k"] == 3

    def test_single_row_and_scores(self, app, fitted_system):
        _system, pool = fitted_system
        status, body = app.suggest(
            {"features": pool[0].tolist(), "k": 2, "return_scores": True}
        )
        assert status == 200
        assert len(body["suggestions"]) == 1
        assert len(body["suggestions"][0]) == 2
        scores = np.asarray(body["scores"])
        assert scores.shape == (1, 86)
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_default_k_from_serving_config(self, app, fitted_system):
        _system, pool = fitted_system
        status, body = app.suggest({"features": pool[0].tolist()})
        assert status == 200
        assert body["k"] == 3  # ServingConfig.default_k

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({}, "missing required field"),
            ({"features": "text"}, "must be numeric"),
            ({"features": [[[1.0]]]}, "1-D or 2-D"),
            ({"features": []}, "at least one row"),
            ({"features": [[1.0, 2.0]]}, "dimension mismatch"),
        ],
    )
    def test_validation_errors(self, app, payload, message):
        status, body = app.suggest(payload)
        assert status == 400
        assert message in body["error"]

    def test_nan_and_bad_k_rejected(self, app, fitted_system):
        _system, pool = fitted_system
        row = pool[0].tolist()
        row[0] = float("nan")
        status, body = app.suggest({"features": [row]})
        assert status == 400 and "finite" in body["error"]
        status, body = app.suggest({"features": pool[0].tolist(), "k": 0})
        assert status == 400 and "k must be" in body["error"]

    def test_row_cap_enforced(self, model_root, fitted_system):
        _system, pool = fitted_system
        gateway = GatewayApp(
            ModelRegistry(model_root),
            ServerConfig(max_batch_size=8, max_request_rows=2),
        )
        try:
            status, body = gateway.suggest({"features": pool[:3].tolist()})
            assert status == 400
            assert "too many rows" in body["error"]
        finally:
            gateway.close()


class TestOtherRoutes:
    def test_explain_and_cache(self, app):
        status, first = app.suggest({"features": [[0.0] * 71], "k": 3})
        assert status == 200
        status, body = app.explain({"suggested": first["suggestions"][0]})
        assert status == 200
        assert body["suggested"] == sorted(set(first["suggestions"][0]))
        assert "satisfaction" in body and "text" in body
        # Second identical explain comes from the LRU cache.
        app.explain({"suggested": first["suggestions"][0]})
        hits = app.metrics["repro_server_explanation_cache_hits_total"].value()
        assert hits >= 1
        service = app.registry.active().service
        assert service.lookup_explanation(first["suggestions"][0])[1] is True

    def test_explain_validation(self, app):
        assert app.explain({})[0] == 400
        assert app.explain({"suggested": []})[0] == 400
        assert app.explain({"suggested": ["x"]})[0] == 400
        status, body = app.explain({"suggested": [99999]})
        assert status == 400 and "unknown drug ids" in body["error"]

    def test_healthz_and_versions(self, app):
        status, health = app.healthz()
        assert status == 200
        assert health["status"] == "ok"
        assert health["feature_dim"] == 71
        assert health["num_drugs"] == 86
        status, versions = app.versions()
        assert status == 200
        assert versions["active"] == health["version"]
        assert versions["versions"][0]["active"] is True

    def test_reload_endpoint_reports_noop_and_swap(self, fitted_system, tmp_path):
        # Private artifact root: this test publishes into it, and the
        # session-scoped model_root must stay single-version for others.
        system, _pool = fitted_system
        root = tmp_path / "models"
        publish_artifact(system, root)
        gateway = GatewayApp(
            ModelRegistry(root),
            ServerConfig(max_batch_size=8, score_block=8),
        )
        served = (
            "repro_server_patients_scored_total",
            "repro_server_explanation_cache_hits_total",
            "repro_server_explanation_cache_misses_total",
        )

        def counts():
            values = dict(
                line.rsplit(" ", 1) for line in gateway.metrics_text().splitlines()
                if line.startswith(served)
            )
            scored = gateway.metrics["repro_server_patients_scored_total"].value()
            return [float(values[name]) for name in served] + [scored]

        def traffic():
            assert gateway.suggest({"features": _pool[:3].tolist(), "k": 2})[0] == 200
            for _ in range(2):  # a miss, then a hit, on each model
                assert gateway.explain({"suggested": [0, 1]})[0] == 200

        try:
            status, body = gateway.reload()
            assert status == 200 and body["reloaded"] is False
            traffic()
            before = counts()
            assert before == [3.0, 1.0, 1.0, 3]
            publish_artifact(system, root, reuse_identical=False)
            status, body = gateway.reload()
            assert status == 200 and body["reloaded"] is True
            assert body["version"].startswith("v0002-")
            # Served counters are the gateway's: a swap does not reset them.
            assert counts() == before
            traffic()
            assert counts() == [6.0, 2.0, 2.0, 6]
        finally:
            gateway.close()

    def test_file_watcher_auto_swaps(self, fitted_system, tmp_path):
        import time

        system, _pool = fitted_system
        root = tmp_path / "models"
        publish_artifact(system, root)
        gateway = GatewayApp(
            ModelRegistry(root),
            ServerConfig(max_batch_size=4, watch_interval_s=0.05),
        )
        try:
            _status, before = gateway.healthz()
            published = publish_artifact(system, root, reuse_identical=False)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                _status, health = gateway.healthz()
                if health["version"] == published.name:
                    break
                time.sleep(0.02)
            assert gateway.healthz()[1]["version"] == published.name != before["version"]
            assert gateway.metrics["repro_server_model_swaps_total"].value(
                trigger="watch"
            ) == 1
        finally:
            gateway.close()

    def test_metrics_text(self, app, fitted_system):
        _system, pool = fitted_system
        app.suggest({"features": pool[0].tolist()})
        text = app.metrics_text()
        assert 'repro_server_requests_total{endpoint="suggest",status="200"}' in text
        assert "repro_server_batch_size_bucket" in text
        assert "repro_server_model_info" in text
        assert "repro_server_uptime_seconds" in text

    def test_503_before_any_model(self, tmp_path):
        gateway = GatewayApp(
            ModelRegistry(tmp_path / "empty"),
            ServerConfig(max_batch_size=2),
            lazy=True,
        )
        try:
            assert gateway.suggest({"features": [[0.0] * 71]})[0] == 503
            assert gateway.explain({"suggested": [1]})[0] == 503
            assert gateway.healthz()[0] == 503
            assert gateway.reload()[0] == 503
        finally:
            gateway.close()


class TestHTTPTransport:
    @pytest.fixture()
    def live(self, app):
        server = build_server(app, port=0)
        _thread, stop = serve_in_thread(server)
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )
        yield conn
        conn.close()
        stop()

    def _get(self, conn, path):
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()

    def _post(self, conn, path, payload):
        conn.request(
            "POST",
            path,
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()

    def test_full_surface(self, live, fitted_system):
        _system, pool = fitted_system
        status, raw = self._get(live, "/healthz")
        assert status == 200 and json.loads(raw)["status"] == "ok"

        status, raw = self._post(
            live, "/v1/suggest", {"features": [pool[0].tolist()], "k": 3}
        )
        body = json.loads(raw)
        assert status == 200 and len(body["suggestions"][0]) == 3

        status, raw = self._post(
            live, "/v1/explain", {"suggested": body["suggestions"][0]}
        )
        assert status == 200 and "text" in json.loads(raw)

        status, raw = self._get(live, "/metrics")
        assert status == 200 and b"repro_server_requests_total" in raw

        status, raw = self._post(live, "/-/reload", {})
        assert status == 200 and json.loads(raw)["reloaded"] is False

        status, raw = self._get(live, "/v1/versions")
        assert status == 200 and json.loads(raw)["active"]

    def test_unexpected_handler_error_returns_500(self, live, app, monkeypatch):
        def explode():
            raise RuntimeError("boom")

        monkeypatch.setattr(app, "healthz", explode)
        status, raw = self._get(live, "/healthz")
        assert status == 500
        assert b"internal error" in raw and b"boom" in raw
        # The connection was marked close; a fresh one still works.
        monkeypatch.undo()
        import http.client as hc

        conn = hc.HTTPConnection(
            live.host, live.port, timeout=10
        )
        conn.request("GET", "/healthz")
        assert conn.getresponse().status == 200
        conn.close()

    def test_http_errors(self, live):
        assert self._get(live, "/nope")[0] == 404
        assert self._post(live, "/v1/nope", {})[0] == 404
        status, raw = self._post(live, "/v1/suggest", {"features": [[1.0]]})
        assert status == 400
        live.request("POST", "/v1/suggest", body=b"not json")
        response = live.getresponse()
        assert response.status == 400
        assert b"invalid JSON" in response.read()
