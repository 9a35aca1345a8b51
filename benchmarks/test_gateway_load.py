"""Load-generator tests: transport wiring, schedules, retries, reports."""

import json
import random

import numpy as np
import pytest

from repro.core import ServerConfig
from repro.obs.metrics import BATCH_BUCKETS, Registry, render
from repro.server import (
    GatewayApp,
    ModelRegistry,
    StatsBoard,
    build_server,
    serve_in_thread,
)

import gateway_load
from gateway_load import (
    RETRYABLE_STATUSES,
    HTTPTarget,
    InprocTarget,
    RetryPolicy,
    backoff_delay,
    batch_counts_from_metrics,
    burst_schedule,
    make_feature_pool,
    merge_report,
    poisson_schedule,
    run_load,
    run_open_loop,
    send_with_retries,
)


class TestRunLoad:
    def test_inproc_load_reports_sane_numbers(self, model_root):
        app = GatewayApp(
            ModelRegistry(model_root),
            ServerConfig(max_batch_size=8),
        )
        try:
            pool = make_feature_pool(app.registry.active().service.feature_dim)
            report = run_load(
                InprocTarget(app), pool, duration_s=0.3, concurrency=4, k=3
            )
        finally:
            app.close()
        assert report.errors == 0
        assert report.requests > 0
        assert report.throughput_rps > 0
        assert 0 < report.p50_ms <= report.p99_ms
        assert report.mean_batch_rows >= 1.0

    def test_http_mean_batch_rows_is_the_run_delta(self, model_root):
        app = GatewayApp(
            ModelRegistry(model_root), ServerConfig(max_batch_size=8)
        )
        server = build_server(app, port=0)
        _thread, stop = serve_in_thread(server)
        try:
            pool = make_feature_pool(app.registry.active().service.feature_dim)
            # A 6-row flush before the run: a cumulative reading would
            # include it, the per-run delta must not.
            status, _ = app.suggest({"features": pool[:6].tolist()})
            assert status == 200
            histogram = app.metrics["repro_server_batch_size"]
            flushes_before, rows_before = histogram.observed()
            target = HTTPTarget(f"http://127.0.0.1:{server.server_address[1]}")
            report = run_load(target, pool, duration_s=0.3, concurrency=4, k=3)
            target.close()
            flushes_after, rows_after = histogram.observed()
            rows_run = rows_after - rows_before
            flushes_run = flushes_after - flushes_before
        finally:
            stop()
            app.close()
        assert report.errors == 0 and report.requests > 0
        assert flushes_run > 0
        assert report.mean_batch_rows == pytest.approx(rows_run / flushes_run)
        assert 1.0 <= report.mean_batch_rows <= 4.0

    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_unreachable_target_fails_fast_instead_of_hanging(self, mode):
        # Nothing listens on the discard port; every sender's connect
        # fails, which must break the start barrier and return at once
        # instead of running out the duration or the schedule.
        target = HTTPTarget("http://127.0.0.1:9")
        if mode == "closed":
            report = run_load(
                target, make_feature_pool(4), duration_s=0.2, concurrency=4
            )
        else:
            report = run_open_loop(
                target,
                make_feature_pool(4),
                poisson_schedule(50.0, 2.0, seed=1),
                max_inflight=4,
            )
        assert report.requests == 0
        assert report.errors >= 1
        assert report.duration_s == 0.0
        assert report.throughput_rps == 0.0

    def test_validates_concurrency(self):
        with pytest.raises(ValueError):
            run_load(InprocTarget(None), make_feature_pool(4), concurrency=0)


class TestSchedules:
    def test_poisson_same_seed_is_bitwise_identical(self):
        first = poisson_schedule(300.0, 1.5, seed=42)
        second = poisson_schedule(300.0, 1.5, seed=42)
        assert np.array_equal(first, second)

    def test_poisson_different_seed_differs(self):
        assert not np.array_equal(
            poisson_schedule(300.0, 1.5, seed=1),
            poisson_schedule(300.0, 1.5, seed=2),
        )

    def test_poisson_shape_and_rate(self):
        schedule = poisson_schedule(500.0, 2.0, seed=7)
        assert (np.diff(schedule) >= 0).all()
        assert schedule[0] > 0 and schedule[-1] <= 2.0
        # Poisson count concentrates near rate*duration = 1000.
        assert 750 < schedule.size < 1250

    def test_poisson_validates_inputs(self):
        with pytest.raises(ValueError):
            poisson_schedule(0.0, 1.0)
        with pytest.raises(ValueError):
            poisson_schedule(10.0, -1.0)

    def test_burst_same_seed_is_bitwise_identical(self):
        kwargs = dict(period_s=0.5, burst_fraction=0.2, seed=9)
        assert np.array_equal(
            burst_schedule(100.0, 500.0, 2.0, **kwargs),
            burst_schedule(100.0, 500.0, 2.0, **kwargs),
        )

    def test_burst_windows_are_denser_than_base(self):
        schedule = burst_schedule(
            50.0, 400.0, 4.0, period_s=0.5, burst_fraction=0.25, seed=3
        )
        phase = np.mod(schedule, 0.5)
        in_burst = int((phase < 0.125).sum())
        outside = int((phase >= 0.125).sum())
        # Arrival *density* (count / window share) must reflect the
        # 8x rate ratio, not just the raw counts.
        assert in_burst / 0.25 > 2.0 * outside / 0.75

    def test_burst_validates_inputs(self):
        with pytest.raises(ValueError):
            burst_schedule(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            burst_schedule(100.0, 50.0, 1.0)  # peak below base
        with pytest.raises(ValueError):
            burst_schedule(10.0, 20.0, 1.0, burst_fraction=1.5)


class TestRunOpenLoop:
    def test_inproc_open_loop_reports_offered_rate(self, model_root):
        app = GatewayApp(
            ModelRegistry(model_root),
            ServerConfig(max_batch_size=8),
        )
        try:
            pool = make_feature_pool(app.registry.active().service.feature_dim)
            schedule = poisson_schedule(150.0, 0.4, seed=5)
            report = run_open_loop(
                InprocTarget(app), pool, schedule, k=3, max_inflight=8
            )
        finally:
            app.close()
        assert report.mode == "poisson"
        assert report.errors == 0
        # Open loop: every scheduled arrival is dispatched, exactly once.
        assert report.requests == schedule.size
        assert report.offered_rps == pytest.approx(
            schedule.size / schedule[-1]
        )
        assert 0 < report.p50_ms <= report.p99_ms
        assert report.duration_s >= schedule[-1]

    def test_open_loop_validates_inputs(self):
        with pytest.raises(ValueError):
            run_open_loop(InprocTarget(None), make_feature_pool(4), np.array([]))
        with pytest.raises(ValueError):
            run_open_loop(
                InprocTarget(None),
                make_feature_pool(4),
                np.array([0.1]),
                max_inflight=0,
            )

    def test_open_loop_merges_into_bench_report(self, model_root, tmp_path):
        app = GatewayApp(
            ModelRegistry(model_root),
            ServerConfig(max_batch_size=8),
        )
        try:
            pool = make_feature_pool(app.registry.active().service.feature_dim)
            schedule = burst_schedule(
                60.0, 240.0, 0.4, period_s=0.2, burst_fraction=0.25, seed=11
            )
            report = run_open_loop(
                InprocTarget(app), pool, schedule, mode="burst", max_inflight=8
            )
        finally:
            app.close()
        path = tmp_path / "BENCH_server.json"
        merge_report(str(path), "loadgen_closed", {"requests": 10})
        merge_report(str(path), "loadgen_open_loop", report.to_dict())
        merged = json.loads(path.read_text())
        assert set(merged) == {"loadgen_closed", "loadgen_open_loop"}
        section = merged["loadgen_open_loop"]
        assert section["mode"] == "burst"
        assert section["requests"] == schedule.size
        assert section["offered_rps"] > 0


class TestHelpers:
    def test_make_feature_pool_is_seeded(self):
        assert np.array_equal(make_feature_pool(8), make_feature_pool(8))
        assert make_feature_pool(8, pool_size=16).shape == (16, 8)

    def test_merge_report_preserves_other_sections(self, tmp_path):
        path = tmp_path / "bench.json"
        merge_report(str(path), "a", {"x": 1})
        merge_report(str(path), "b", {"y": 2})
        merge_report(str(path), "a", {"x": 3})
        report = json.loads(path.read_text())
        assert report == {"a": {"x": 3}, "b": {"y": 2}}

    def test_failed_merge_keeps_the_previous_report(self, tmp_path):
        # The serializer raises partway through the second merge; an
        # in-place rewrite would leave a torn file that the next merge
        # reads as empty, silently dropping section "a".
        path = tmp_path / "bench.json"
        merge_report(str(path), "a", {"x": 1})
        with pytest.raises(TypeError):
            merge_report(str(path), "b", {"y": object()})
        assert json.loads(path.read_text()) == {"a": {"x": 1}}
        merge_report(str(path), "c", {"z": 2})
        assert json.loads(path.read_text()) == {"a": {"x": 1}, "c": {"z": 2}}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json"]

    def test_http_target_rejects_non_http(self):
        with pytest.raises(ValueError):
            HTTPTarget("https://example.com")

    def test_batch_counts_prefer_the_pool_wide_family(self, tmp_path):
        board = StatsBoard(tmp_path)
        pages = []
        for worker, sizes in enumerate(([2, 4], [8])):
            registry = Registry()
            histogram = registry.histogram(
                "repro_server_batch_size", "rows", BATCH_BUCKETS
            )
            for size in sizes:
                histogram.observe(size)
            board.publish(worker, {"metrics": registry.snapshot()})
            pages.append(render(registry.snapshot()))
        # A pool worker's page is its own families plus the aggregate:
        # the pool-wide sums win over the answering worker's own.
        pooled = pages[1] + board.render_aggregate()
        assert batch_counts_from_metrics(pooled) == (14.0, 3.0)
        # A single-process page has no repro_pool_ families.
        assert batch_counts_from_metrics(pages[1]) == (8.0, 1.0)
        assert batch_counts_from_metrics("") == (0.0, 0.0)


class ScriptedConnection:
    """A fake worker connection answering from a scripted status list."""

    def __init__(self, statuses, hints=None):
        self.statuses = list(statuses)
        self.hints = list(hints or [])
        self.calls = 0

    def request_with_hint(self, payload):
        self.calls += 1
        status = self.statuses.pop(0)
        hint = self.hints.pop(0) if self.hints else None
        return status, hint


@pytest.fixture()
def rng():
    return random.Random(11)


# Backoff bases are tiny so the sleeps inside send_with_retries are
# microseconds — these tests must stay fast.
FAST = RetryPolicy(retries=2, backoff_s=1e-6, backoff_cap_s=1e-5)


class TestSendWithRetries:
    def test_success_first_try_uses_no_retries(self, rng):
        conn = ScriptedConnection([200])
        assert send_with_retries(conn, {}, FAST, rng) == (200, 0)

    def test_shed_then_success(self, rng):
        conn = ScriptedConnection([503, 200])
        status, retries = send_with_retries(conn, {}, FAST, rng)
        assert (status, retries) == (200, 1)
        assert conn.calls == 2

    def test_budget_exhausted_returns_last_status(self, rng):
        conn = ScriptedConnection([503, 503, 503, 200])
        status, retries = send_with_retries(conn, {}, FAST, rng)
        assert (status, retries) == (503, 2)  # 1 try + 2 retries, gave up
        assert conn.calls == 3

    @pytest.mark.parametrize("status", sorted(RETRYABLE_STATUSES))
    def test_retryable_statuses(self, rng, status):
        conn = ScriptedConnection([status, 200])
        assert send_with_retries(conn, {}, FAST, rng) == (200, 1)

    @pytest.mark.parametrize("status", [400, 404, 500])
    def test_non_retryable_statuses_fail_fast(self, rng, status):
        conn = ScriptedConnection([status, 200])
        assert send_with_retries(conn, {}, FAST, rng) == (status, 0)
        assert conn.calls == 1

    def test_no_policy_means_fire_once(self, rng):
        conn = ScriptedConnection([503, 200])
        assert send_with_retries(conn, {}, None, rng) == (503, 0)
        assert conn.calls == 1

    def test_server_hint_floors_the_backoff(self, rng, monkeypatch):
        slept = []
        monkeypatch.setattr(gateway_load.time, "sleep", slept.append)
        conn = ScriptedConnection([503, 200], hints=[0.25, None])
        status, retries = send_with_retries(conn, {}, FAST, rng)
        assert (status, retries) == (200, 1)
        assert slept == [0.25]  # tiny jitter ceiling, hint dominates


class TestInprocTargetHints:
    def test_request_with_hint_surfaces_retry_after(self, monkeypatch):
        class FakeApp:
            def suggest(self, payload):
                return 503, {"error": "shed", "retry_after_s": 0.7}

        target = InprocTarget(FakeApp())
        conn = target.connect()
        assert conn.request_with_hint({}) == (503, 0.7)

    def test_request_with_hint_none_on_success(self):
        class FakeApp:
            def suggest(self, payload):
                return 200, {"suggestions": [[1, 2, 3]]}

        target = InprocTarget(FakeApp())
        assert target.connect().request_with_hint({}) == (200, None)


class TestBackoffDelay:
    def test_deterministic_for_a_seeded_rng(self):
        a = [backoff_delay(i, 0.1, random.Random(3)) for i in range(5)]
        b = [backoff_delay(i, 0.1, random.Random(3)) for i in range(5)]
        assert a == b

    def test_bounded_by_exponential_ceiling(self):
        rng = random.Random(0)
        for attempt in range(10):
            delay = backoff_delay(attempt, 0.1, rng, cap_s=2.0)
            assert 0.0 <= delay <= min(2.0, 0.1 * 2**attempt)

    def test_cap_limits_growth(self):
        rng = random.Random(0)
        assert all(
            backoff_delay(attempt, 1.0, rng, cap_s=3.0) <= 3.0
            for attempt in range(20)
        )

    def test_never_undercuts_retry_after(self):
        rng = random.Random(0)
        for attempt in range(6):
            delay = backoff_delay(
                attempt, 0.001, rng, retry_after_s=1.5
            )
            assert delay >= 1.5

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            backoff_delay(-1, 0.1, random.Random(0))
