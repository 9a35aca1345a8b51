"""Unit tests for the metrics registry and the gateway's exposition.

The registry (:mod:`repro.obs.metrics`) is exercised family by family;
:class:`TestExpositionConformance` then parses a live single-process
``/metrics`` page and a 2-worker pool aggregate and checks the Prometheus
text-format rules and the pool-wide sums.
"""

import re
import sys
import threading

import pytest

from repro.core import ServerConfig
from repro.obs.metrics import (
    BATCH_BUCKETS,
    PHASE_BUCKETS,
    Histogram,
    Registry,
    _escape,
    merge,
    render,
)
from repro.server import GatewayApp, ModelRegistry, StatsBoard, publish_artifact

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _declared_types(text):
    """``{family: type}`` from the ``# TYPE`` lines of an exposition."""
    return {
        line.split()[2]: line.split()[3]
        for line in text.splitlines()
        if line.startswith("# TYPE ")
    }


def parse_exposition(text):
    """``{family: (type, [(sample, labels, value), ...])}`` in page order.

    Asserts the structural rules while parsing: each family has exactly
    one ``# HELP`` line directly followed by one ``# TYPE`` line, before
    any of its samples; its samples are contiguous; no family is
    declared twice.
    """
    families = {}
    lines = text.splitlines()
    current = None
    for i, line in enumerate(lines):
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert name not in families, f"family {name} declared twice"
            kind_line = lines[i + 1].split()
            assert kind_line[:3] == ["#", "TYPE", name], f"{name}: HELP without TYPE"
            families[name] = (kind_line[3], [])
            current = name
        elif line.startswith("# TYPE "):
            assert lines[i - 1].startswith(f"# HELP {line.split()[2]} "), line
        else:
            match = _SAMPLE.match(line)
            assert match, f"malformed sample line {line!r}"
            sample, raw_labels, value = match.groups()
            kind = families[current][0] if current else None
            suffixes = ("_bucket", "_count", "_sum") if kind == "histogram" else ()
            assert sample == current or any(
                sample == current + suffix for suffix in suffixes
            ), f"sample {sample} outside its family block (in {current})"
            labels = dict(_LABEL.findall(raw_labels or ""))
            families[current][1].append((sample, labels, float(value)))
    return families


def _sample_values(families, kinds=("counter", "histogram")):
    """``{(sample name, frozen labels): value}`` of the given family types."""
    return {
        (sample, frozenset(labels.items())): value
        for kind, samples in families.values()
        if kind in kinds
        for sample, labels, value in samples
    }


def _check_histograms(families):
    for name, (kind, samples) in families.items():
        if kind != "histogram":
            continue
        buckets, counts = {}, {}
        for sample, labels, value in samples:
            series = frozenset((k, v) for k, v in labels.items() if k != "le")
            if sample.endswith("_bucket"):
                buckets.setdefault(series, []).append((labels["le"], value))
            elif sample.endswith("_count"):
                counts[series] = value
        for series, ladder in buckets.items():
            values = [value for _le, value in ladder]
            assert values == sorted(values), f"{name}{dict(series)} decreases"
            assert ladder[-1][0] == "+Inf"
            assert ladder[-1][1] == counts[series], f"{name}: +Inf != _count"


class TestCounterSet:
    """Counter families: one monotonic series per label set."""

    def test_inc_and_value(self):
        counter = Registry().counter("x_total", "x")
        assert counter.value() == 0
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_labels_are_separate_series(self):
        counter = Registry().counter("req_total", "requests", ("endpoint",))
        assert counter.samples() == []  # no series before a label set is used
        counter.inc(endpoint="suggest")
        counter.inc(endpoint="explain")
        counter.inc(endpoint="suggest")
        assert counter.value(endpoint="suggest") == 2
        assert counter.value(endpoint="explain") == 1
        assert counter.value(endpoint="other") == 0
        with pytest.raises(ValueError):
            counter.inc()  # the declared label is required

    def test_concurrent_increments_lose_nothing(self):
        registry = Registry()
        counter = registry.counter("n_total", "n")
        hist = registry.histogram("h", "h", BATCH_BUCKETS, ("phase",))

        def spin():
            for i in range(2000):
                counter.inc()
                hist.observe(i % 4, phase="p")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches mid-update
        try:
            threads = [threading.Thread(target=spin) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert counter.value() == 16000
        assert hist.observed(phase="p") == (16000, 8 * 3000)
        [[_labels, value]] = hist.samples()
        assert sum(value["counts"]) == 16000


class TestBatchSizeHistogram:
    def test_buckets_and_mean(self):
        registry = Registry()
        hist = registry.histogram("repro_server_batch_size", "rows", BATCH_BUCKETS)
        for size in (1, 1, 2, 8, 300):
            hist.observe(size)
        text = render(registry.snapshot())
        assert 'repro_server_batch_size_bucket{le="1"} 2' in text
        assert 'repro_server_batch_size_bucket{le="2"} 3' in text
        assert 'repro_server_batch_size_bucket{le="8"} 4' in text
        assert 'repro_server_batch_size_bucket{le="256"} 4' in text
        assert 'repro_server_batch_size_bucket{le="+Inf"} 5' in text
        # Integer observations keep integer sums: the lines perfbench
        # and loadgen scrape stay two plain tokens.
        assert "repro_server_batch_size_count 5\n" in text
        assert "repro_server_batch_size_sum 312\n" in text
        count, total = hist.observed()
        assert (count, total) == (5, 312)
        assert total / count == (1 + 1 + 2 + 8 + 300) / 5


class TestRender:
    def test_prometheus_text_contains_all_families(self):
        registry = Registry()
        requests = registry.counter(
            "repro_server_requests_total", "requests", ("endpoint", "status")
        )
        latency = registry.histogram(
            "repro_server_request_latency_seconds", "latency", PHASE_BUCKETS,
            ("endpoint",),
        )
        batch = registry.histogram("repro_server_batch_size", "rows", BATCH_BUCKETS)
        registry.gauge(
            "repro_server_model_info", "model", lambda: [({"version": "v0001-abc"}, 1)]
        )
        requests.inc(endpoint="suggest", status=200)
        latency.observe(0.004, endpoint="suggest")
        requests.inc(endpoint="suggest", status=400)
        latency.observe(0.001, endpoint="suggest")
        batch.observe(16)
        text = render(registry.snapshot())
        assert (
            'repro_server_requests_total{endpoint="suggest",status="200"} 1' in text
        )
        assert (
            'repro_server_requests_total{endpoint="suggest",status="400"} 1' in text
        )
        # Latency is a histogram over the phase buckets: inclusive edges,
        # exact count and sum.
        assert "# TYPE repro_server_request_latency_seconds histogram" in text
        assert (
            'repro_server_request_latency_seconds_bucket{endpoint="suggest",'
            'le="0.001"} 1' in text
        )
        assert (
            'repro_server_request_latency_seconds_bucket{endpoint="suggest",'
            'le="0.005"} 2' in text
        )
        assert (
            'repro_server_request_latency_seconds_bucket{endpoint="suggest",'
            'le="+Inf"} 2' in text
        )
        assert (
            'repro_server_request_latency_seconds_count{endpoint="suggest"} 2' in text
        )
        assert (
            'repro_server_request_latency_seconds_sum{endpoint="suggest"} 0.005'
            in text
        )
        assert 'repro_server_batch_size_bucket{le="16"} 1' in text
        assert 'repro_server_batch_size_bucket{le="+Inf"} 1' in text
        assert 'repro_server_model_info{version="v0001-abc"} 1' in text
        assert text.endswith("\n")

    def test_every_family_has_help_and_type(self):
        """Prometheus text-format compliance: # HELP precedes # TYPE."""
        registry = Registry()
        registry.counter(
            "repro_server_requests_total", "requests", ("status",)
        ).inc(status=200)
        registry.histogram("repro_server_batch_size", "rows", BATCH_BUCKETS).observe(4)
        registry.gauge("repro_server_uptime_seconds", "uptime", lambda: 1.5)
        registry.counter("repro_server_flushes_total", "flushes", read=lambda: 3)
        text = render(registry.snapshot())
        lines = text.splitlines()
        helps = {"repro_server_requests_total": "requests",
                 "repro_server_batch_size": "rows",
                 "repro_server_uptime_seconds": "uptime",
                 "repro_server_flushes_total": "flushes"}
        for i, line in enumerate(lines):
            if line.startswith("# TYPE "):
                family = line.split()[2]
                assert lines[i - 1] == f"# HELP {family} {helps[family]}", (
                    f"family {family} lacks a preceding HELP line"
                )
        types = _declared_types(text)
        assert types == {
            "repro_server_requests_total": "counter",
            "repro_server_batch_size": "histogram",
            "repro_server_uptime_seconds": "gauge",
            "repro_server_flushes_total": "counter",
        }
        # A counter read from its owner renders as one plain sample.
        assert "repro_server_flushes_total 3" in lines
        assert "repro_server_uptime_seconds 1.5" in lines

    def test_no_total_family_is_a_gauge_in_the_gateway(self, model_root):
        app = GatewayApp(
            ModelRegistry(model_root), ServerConfig(breaker_threshold=3)
        )
        try:
            app.explain({"suggested": [0, 1]})
            text = app.metrics_text()
        finally:
            app.close()
        types = _declared_types(text)
        totals = {name: kind for name, kind in types.items() if name.endswith("_total")}
        assert all(kind == "counter" for kind in totals.values()), totals
        for family in (
            "flushes",
            "registry_swaps",
            "registry_reload_errors",
            "breaker_opens",
            "breaker_rejections",
            "patients_scored",
            "explanation_cache_hits",
            "explanation_cache_misses",
        ):
            assert totals[f"repro_server_{family}_total"] == "counter"

    def test_escaped_label_values_in_render(self):
        registry = Registry()
        registry.counter("weird_total", "weird", ("path",)).inc(path='a\\b"c\nd')
        text = render(registry.snapshot())
        assert 'path="a\\\\b\\"c\\nd"' in text

    def test_family_without_samples_renders_nothing(self):
        registry = Registry()
        registry.counter("idle_total", "never incremented", ("reason",))
        registry.histogram("idle_seconds", "never observed", PHASE_BUCKETS, ("phase",))
        registry.gauge("absent_info", "no label sets", lambda: [])
        assert render(registry.snapshot()) == ""
        # An unlabelled family has its one series from the start.
        registry.counter("fresh_total", "zero until incremented")
        assert render(registry.snapshot()).endswith("fresh_total 0\n")

    def test_duplicate_family_is_rejected(self):
        registry = Registry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError, match="registered twice"):
            registry.gauge("x_total", "again", lambda: 1)


class TestLabelEscaping:
    def test_backslash_escaped_first(self):
        # A pre-escaped quote must not be double-escaped out of order.
        assert _escape('\\"') == '\\\\\\"'

    def test_plain_values_untouched(self):
        assert _escape("v0001-abc") == "v0001-abc"

    def test_newline_becomes_literal_backslash_n(self):
        assert _escape("a\nb") == "a\\nb"


class TestLatencyHistogram:
    def test_cumulative_buckets(self):
        hist = Histogram("h", "latency", buckets=(0.001, 0.01, 0.1))
        for seconds in (0.0005, 0.002, 0.01, 0.05, 5.0):
            hist.observe(seconds)
        [[labels, value]] = hist.samples()
        assert labels == {}
        # Per-bucket counts plus overflow; 0.01 sits on an edge and the
        # edge is inclusive (``le``).
        assert value["counts"] == [1, 2, 1, 1]
        assert hist.observed() == (5, value["sum"])
        assert abs(value["sum"] - 5.0625) < 1e-9
        text = render({"h": {"type": "histogram", "help": "latency",
                             "buckets": [0.001, 0.01, 0.1],
                             "samples": hist.samples()}})
        assert 'h_bucket{le="0.001"} 1' in text
        assert 'h_bucket{le="0.01"} 3' in text
        assert 'h_bucket{le="0.1"} 4' in text
        assert 'h_bucket{le="+Inf"} 5' in text

    def test_default_phase_buckets_are_monotone(self):
        assert list(PHASE_BUCKETS) == sorted(PHASE_BUCKETS)
        assert list(BATCH_BUCKETS) == sorted(BATCH_BUCKETS)

    def test_phase_histograms_shared_per_name(self, model_root):
        app = GatewayApp(ModelRegistry(model_root), ServerConfig(), lazy=True)
        try:
            # (phase, start, end): a clock step backwards is clamped to 0.
            app._observe_phases([("parse", 2.0, 1.5), ("parse", 1.0, 1.25),
                                 ("score", 0.0, 0.5)])
            phases = app.metrics["repro_server_phase_latency_seconds"]
            assert phases.observed(phase="parse") == (2, 0.25)
            assert phases.observed(phase="score") == (1, 0.5)
        finally:
            app.close()

    def test_phase_section_rendered_only_when_observed(self):
        registry = Registry()
        hist = registry.histogram(
            "repro_server_phase_latency_seconds", "phases", PHASE_BUCKETS, ("phase",)
        )
        assert "phase_latency" not in render(registry.snapshot())
        hist.observe(0.003, phase="queue_wait")
        text = render(registry.snapshot())
        assert (
            'repro_server_phase_latency_seconds_bucket{phase="queue_wait",'
            'le="0.0025"} 0' in text
        )
        assert 'repro_server_phase_latency_seconds_count{phase="queue_wait"} 1' in text


class TestMerge:
    def _worker(self, requests, rows, inflight):
        registry = Registry()
        counter = registry.counter(
            "repro_server_requests_total", "requests", ("endpoint", "status")
        )
        for status, n in requests.items():
            counter.inc(n, endpoint="suggest", status=status)
        hist = registry.histogram("repro_server_batch_size", "rows", BATCH_BUCKETS)
        for size in rows:
            hist.observe(size)
        registry.counter(
            "repro_server_flushes_total", "flushes", read=lambda: len(rows)
        )
        registry.gauge("repro_server_inflight_requests", "inflight", lambda: inflight)
        return registry.snapshot()

    def test_sums_counters_and_histograms_keeps_gauges_per_worker(self):
        merged = merge({
            "0": self._worker({200: 9, 503: 1}, [1, 4], inflight=2),
            "1": self._worker({200: 20}, [8], inflight=1),
        })
        text = render(merged)
        assert (
            'repro_server_requests_total{endpoint="suggest",status="200"} 29' in text
        )
        assert (
            'repro_server_requests_total{endpoint="suggest",status="503"} 1' in text
        )
        assert "repro_server_flushes_total 3\n" in text
        assert 'repro_server_batch_size_bucket{le="4"} 2' in text
        assert 'repro_server_batch_size_bucket{le="+Inf"} 3' in text
        assert "repro_server_batch_size_count 3\n" in text
        assert "repro_server_batch_size_sum 13\n" in text
        assert 'repro_server_inflight_requests{worker="0"} 2' in text
        assert 'repro_server_inflight_requests{worker="1"} 1' in text
        assert "repro_server_inflight_requests 3" not in text

    def test_empty_merge_is_empty(self):
        assert merge({}) == {}
        assert render(merge({})) == ""


class TestExpositionConformance:
    """Parser-based checks over live pages, single-process and pooled."""

    def _traffic(self, app, pool, monkeypatch, rows):
        assert app.suggest({"features": pool[:rows].tolist(), "k": 2})[0] == 200
        assert app.explain({"suggested": [0, 1]})[0] == 200
        assert app.explain({"suggested": [0, 1]})[0] == 200
        with monkeypatch.context() as patch:
            patch.setattr(type(app.batcher), "queue_depth", property(lambda self: 4))
            status, body = app.suggest({"features": pool[:1].tolist()})
        assert status == 503 and body["shed"] == "queue_full"

    def test_single_process_and_pool_pages(
        self, fitted_system, tmp_path, monkeypatch
    ):
        system, pool = fitted_system
        root = tmp_path / "models"
        publish_artifact(system, root)
        config = ServerConfig(max_batch_size=8, score_block=8, queue_limit=4)
        apps = [GatewayApp(ModelRegistry(root), config) for _ in range(2)]
        try:
            self._traffic(apps[0], pool, monkeypatch, rows=3)
            self._traffic(apps[1], pool, monkeypatch, rows=5)
            publish_artifact(system, root, reuse_identical=False)
            assert apps[0].reload()[1]["reloaded"] is True
            pages = [app.metrics_text() for app in apps]
            board = StatsBoard(tmp_path / "stats")
            for worker, app in enumerate(apps):
                board.publish(worker, {"metrics": app.metrics.snapshot()})
            aggregate = board.render_aggregate()
        finally:
            for app in apps:
                app.close()

        worker_pages = [parse_exposition(page) for page in pages]
        pool_page = parse_exposition(aggregate)
        for families in worker_pages + [pool_page]:
            _check_histograms(families)
            for name, (kind, _samples) in families.items():
                if name.endswith("_total"):
                    assert kind == "counter", f"{name} is a {kind}"

        single = worker_pages[0]
        assert single["repro_server_request_latency_seconds"][0] == "histogram"
        assert single["repro_server_shed_total"][1] == [
            ("repro_server_shed_total", {"reason": "queue_full"}, 1.0)
        ]
        assert ("repro_server_model_swaps_total", {"trigger": "reload"}, 1.0) in (
            single["repro_server_model_swaps_total"][1]
        )
        # The three lines perfbench scrapes stay unlabelled two-token lines.
        plain = {line.split()[0]: line for line in pages[0].splitlines()}
        for name in ("repro_server_flushes_total", "repro_server_batch_size_count",
                     "repro_server_batch_size_sum"):
            assert len(plain[name].split()) == 2
            assert float(plain[name].split()[1]) > 0

        # Every counter and histogram family on a worker page has a
        # repro_pool_ twin holding the sum over both workers.
        per_worker = [_sample_values(page) for page in worker_pages]
        pooled = _sample_values(pool_page)
        keys = set(per_worker[0]) | set(per_worker[1])
        assert keys
        for sample, labels in keys:
            twin = (sample.replace("repro_server_", "repro_pool_", 1), labels)
            expected = sum(values.get((sample, labels), 0.0) for values in per_worker)
            assert abs(pooled[twin] - expected) < 1e-9, (twin, pooled.get(twin))
        assert pool_page["repro_pool_workers_reporting"][1] == [
            ("repro_pool_workers_reporting", {}, 2.0)
        ]
        assert ("repro_pool_batch_size_count", {}, 2.0) in (
            pool_page["repro_pool_batch_size"][1]
        )
