"""Concurrency acceptance: micro-batched == sequential, bitwise.

The gateway's core correctness claim (ISSUE 4): N threads hammering
``suggest`` through the micro-batcher must produce results bitwise-equal
to sequential :meth:`repro.serving.SuggestionService.suggest` on the
same artifact — including raw scores, and including across a mid-flight
hot-swap to a byte-identical artifact version.  The one scoring contract
(``repro.core.md_module.score_patients``) is what makes this achievable:
every patient's scores are a pure function of their features, independent
of how the batcher happened to group concurrent requests.
"""

import threading

import numpy as np
import pytest

from repro.core import ServerConfig
from repro.serving import SuggestionService
from repro.server import GatewayApp, ModelRegistry, publish_artifact

CONCURRENCY = 16
REQUESTS_PER_THREAD = 25
K = 3


@pytest.fixture()
def sequential_service(fitted_system):
    """The sequential baseline: same fitted system, same scoring config."""
    system, _pool = fitted_system
    return SuggestionService(system)


def hammer(app, pool, swap=None):
    """Fire CONCURRENCY threads of single-row suggests; return results.

    ``swap`` (optional) is a zero-arg callable run from a separate thread
    mid-load (the hot-swap injection).  Returns ``{(thread, i): (row_index,
    suggestions, scores)}`` with every response's served version collected.
    """
    results = {}
    versions = set()
    errors = []
    start = threading.Barrier(CONCURRENCY + (2 if swap else 1))

    def worker(tid):
        rng = np.random.default_rng(tid)
        start.wait()
        for i in range(REQUESTS_PER_THREAD):
            row = int(rng.integers(0, len(pool)))
            status, body = app.suggest(
                {"features": [pool[row].tolist()], "k": K, "return_scores": True}
            )
            if status != 200:
                errors.append((tid, i, status, body))
                return
            results[(tid, i)] = (row, body["suggestions"][0], body["scores"][0])
            versions.add(body["version"])

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(CONCURRENCY)
    ]
    for t in threads:
        t.start()
    if swap:
        swapper = threading.Thread(target=lambda: (start.wait(), swap()))
        swapper.start()
    start.wait()
    for t in threads:
        t.join(timeout=60.0)
    if swap:
        swapper.join(timeout=60.0)
    assert not errors, f"dropped/failed requests: {errors[:3]}"
    assert len(results) == CONCURRENCY * REQUESTS_PER_THREAD
    return results, versions


class TestConcurrentBitwiseEquality:
    def test_micro_batched_equals_sequential(
        self, model_root, fitted_system, sequential_service
    ):
        _system, pool = fitted_system
        app = GatewayApp(
            ModelRegistry(model_root),
            ServerConfig(max_batch_size=8),
        )
        try:
            results, _versions = hammer(app, pool)
            # Coalescing must actually have happened, otherwise this
            # proves nothing about batching.
            flushes, _rows = app.metrics["repro_server_batch_size"].observed()
            assert flushes < len(results)
        finally:
            app.close()
        expected_scores = sequential_service.predict_scores(pool)
        expected_topk = sequential_service.topk_from_scores(expected_scores, K)
        for row, suggestions, scores in results.values():
            assert suggestions == expected_topk[row].tolist()
            assert np.array_equal(np.asarray(scores), expected_scores[row])

    def test_bitwise_across_mid_flight_hot_swap(
        self, fitted_system, tmp_path, sequential_service
    ):
        system, pool = fitted_system
        root = tmp_path / "models"
        publish_artifact(system, root)
        registry = ModelRegistry(root)
        app = GatewayApp(
            registry,
            ServerConfig(max_batch_size=8),
        )

        def swap():
            # Publish a byte-identical artifact as a new version and
            # hot-swap to it while the hammer threads are in flight.
            publish_artifact(system, root, reuse_identical=False)
            status, body = app.reload()
            assert status == 200 and body["reloaded"] is True

        try:
            results, _versions = hammer(app, pool, swap=swap)
        finally:
            app.close()
        # The swap really happened (initial load + hot-swap) and no
        # request was dropped (hammer asserts zero errors and a full
        # result set).
        assert registry.swaps == 2
        expected_scores = sequential_service.predict_scores(pool)
        expected_topk = sequential_service.topk_from_scores(expected_scores, K)
        for row, suggestions, scores in results.values():
            assert suggestions == expected_topk[row].tolist()
            assert np.array_equal(np.asarray(scores), expected_scores[row])

    def test_sequential_gateway_equals_sequential_service(
        self, model_root, fitted_system, sequential_service
    ):
        """Batch-size-1 gateway (the benchmark ablation) is also bitwise."""
        _system, pool = fitted_system
        app = GatewayApp(
            ModelRegistry(model_root),
            ServerConfig(max_batch_size=1),
        )
        try:
            for i in range(0, len(pool), 5):
                status, body = app.suggest(
                    {"features": [pool[i].tolist()], "k": K, "return_scores": True}
                )
                assert status == 200
                assert np.array_equal(
                    np.asarray(body["scores"][0]),
                    sequential_service.predict_scores(pool[i : i + 1])[0],
                )
        finally:
            app.close()
