"""Thread-safety of the serving hot path.

The gateway hammers one ``SuggestionService`` from many worker threads;
the MS module's explanation cache (an ``LRUCache``) must not lose updates
or corrupt its internal state under that load.
"""

import sys
import threading

from repro.core import MSModule, canonical_suggestion
from repro.core.ms_module import LRUCache
from repro.data import generate_ddi


class TestLRUCacheConcurrency:
    def test_concurrent_get_put_is_consistent(self):
        cache = LRUCache(maxsize=32)
        errors = []

        def worker(tid):
            try:
                for i in range(2000):
                    key = (tid, i % 50)
                    value = cache.get(key)
                    if value is None:
                        cache.put(key, i)
                    _ = len(cache)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Invariants survived: bounded size, coherent counters.
        assert len(cache) <= 32
        assert cache.hits + cache.misses == 8 * 2000

    def test_concurrent_clear_does_not_break_invariants(self):
        cache = LRUCache(maxsize=16)
        stop = threading.Event()

        def churn():
            i = 0
            while not stop.is_set():
                cache.put(i % 64, i)
                cache.get((i + 1) % 64)
                i += 1

        def clearer():
            while not stop.is_set():
                cache.clear()

        threads = [threading.Thread(target=churn) for _ in range(4)]
        threads.append(threading.Thread(target=clearer))
        for t in threads:
            t.start()
        import time

        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join()
        assert len(cache) <= 16


class TestExplanationCacheConcurrency:
    def test_concurrent_lookups_share_one_cache(self):
        """Gateway threads share one MSModule: every lookup is counted
        once, each suggested set is stored once, and all threads see the
        same explanation for it."""
        module = MSModule(generate_ddi(seed=7).graph)
        sets = [[i, i + 1, i + 5] for i in range(12)]
        seen = {}
        errors = []

        def worker(tid):
            try:
                for i in range(120):
                    suggested = sets[(tid + i) % len(sets)]
                    explanation, _hit = module.lookup(suggested[::-1])
                    seen.setdefault(tid, []).append((tuple(suggested), explanation))
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert module.cache.hits + module.cache.misses == 8 * 120
        assert len(module.cache) == len(sets)
        for suggested in sets:
            expected = module.explain(suggested)
            assert expected.suggested == list(canonical_suggestion(suggested))
            for results in seen.values():
                for key, explanation in results:
                    if key == tuple(suggested):
                        assert explanation == expected
