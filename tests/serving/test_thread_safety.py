"""Thread-safety of the serving hot path.

The gateway hammers one ``SuggestionService`` from many worker threads;
the LRU cache must not lose updates or corrupt its internal state under
that load.
"""

import threading

from repro.serving import LRUCache


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
