"""Benchmark: serving throughput (suggestions/sec) and cache hit rate.

Measures the fit-once/serve-many path added by ``repro.serving``:

* batched suggestion scoring at batch sizes 1 / 32 / 512, against the
  per-patient ``DSSDDI.suggest`` loop a naive deployment would run,
* the explanation cache hit rate under skewed (real-traffic-like) load.

The headline acceptance claim: batched scoring is >= 1.5x faster than
the per-patient loop at batch 512.  (The floor was 5x when the core
``predict_scores`` re-encoded the training set on every call; the
sparse-backend PR moved that caching into ``MDModule`` itself, so the
per-patient loop got dramatically faster and the batched edge now comes
from batching alone — measured 2-5x depending on machine load, so the
floor keeps a conservative margin.)  The throughput comparisons carry
the ``timing`` marker, which the default run deselects (``pytest -m
timing`` runs them); the answer-equality check always runs.
"""

import time

import numpy as np
import pytest

from repro.core import DSSDDI, DSSDDIConfig
from repro.data import generate_chronic_cohort, split_patients, standardize_features
from repro.serving import SuggestionService

BATCH_SIZES = (1, 32, 512)
K = 3


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Fit a small system, persist it, and serve it from the artifact."""
    cohort = generate_chronic_cohort(num_patients=200, seed=3)
    x = standardize_features(cohort.features)
    split = split_patients(200, seed=1)
    cfg = DSSDDIConfig.fast()
    cfg.ddi.epochs = 15
    cfg.md.epochs = 40
    system = DSSDDI(cfg)
    system.fit(x[split.train], cohort.medications[split.train], cohort.ddi)
    path = tmp_path_factory.mktemp("serving") / "model"
    system.save(path)
    service = SuggestionService.load(path)
    # Warm both paths so one-time BLAS/threading setup is off the clock;
    # the large batch matters, as big matmuls hit a different kernel path.
    pool = x[split.test]
    service.suggest(_batches(pool, max(BATCH_SIZES), seed=0), k=K)
    system.suggest(pool[:1], k=K)
    return system, service, pool


def _batches(pool: np.ndarray, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return pool[rng.integers(0, len(pool), size=size)]


@pytest.mark.timing
def test_bench_batched_throughput(served, benchmark):
    """Suggestions/sec of the batched service across batch sizes."""
    _system, service, pool = served
    rates = {}
    for size in BATCH_SIZES:
        batch = _batches(pool, size, seed=size)
        elapsed = float("inf")
        for _repeat in range(3):  # best-of-3 to shrug off scheduler noise
            start = time.perf_counter()
            out = service.suggest(batch, k=K)
            elapsed = min(elapsed, time.perf_counter() - start)
        assert out.shape == (size, K)
        rates[size] = size / elapsed
    print("\nserving throughput (suggestions/sec):")
    for size, rate in rates.items():
        print(f"  batch {size:>4}: {rate:>10.0f}/s")
    # Batching must amortize: per-suggestion cost shrinks with batch size.
    assert rates[512] > rates[1]
    benchmark.pedantic(
        lambda: service.suggest(_batches(pool, 512, seed=0), k=K),
        rounds=3,
        iterations=1,
    )


def test_bench_batched_matches_per_patient_loop(served):
    """Batched scoring answers exactly what the per-patient loop does."""
    system, service, pool = served
    batch = _batches(pool, 512, seed=7)
    looped = [system.suggest(row[None], k=K)[0] for row in batch]
    assert service.suggest(batch, k=K).tolist() == looped


@pytest.mark.timing
def test_bench_batched_vs_per_patient_loop(served):
    """Acceptance: batched scoring >= 1.5x faster than per-patient suggest."""
    system, service, pool = served
    batch = _batches(pool, 512, seed=7)

    t_batched = float("inf")
    t_loop = float("inf")
    for _repeat in range(3):  # best-of-3: the ratio is noise-sensitive
        start = time.perf_counter()
        batched = service.suggest(batch, k=K)
        t_batched = min(t_batched, time.perf_counter() - start)

        start = time.perf_counter()
        looped = [system.suggest(row[None], k=K)[0] for row in batch]
        t_loop = min(t_loop, time.perf_counter() - start)

    speedup = t_loop / t_batched
    print(
        f"\nbatch 512: batched {t_batched * 1e3:.1f} ms "
        f"({512 / t_batched:.0f}/s) vs loop {t_loop * 1e3:.1f} ms "
        f"({512 / t_loop:.0f}/s) -> {speedup:.1f}x"
    )
    assert speedup >= 1.5


def test_bench_cache_hit_rate(served):
    """Skewed traffic: most explanations come from the LRU cache."""
    _system, service, pool = served
    service.clear_cache()
    # Zipf-ish skew: a few frequent patients dominate, like popular
    # suggestion sets in production traffic.
    rng = np.random.default_rng(11)
    hot = pool[:8]
    batch = hot[rng.integers(0, len(hot), size=512)]
    suggestions = service.suggest(batch, k=K)
    misses = [service.lookup_explanation(row)[1] for row in suggestions].count(False)
    print(
        f"\nexplanation cache: {512 - misses} hits / {misses} misses "
        f"(hit rate {1 - misses / 512:.1%})"
    )
    # At most 8 distinct suggestion sets across 512 requests.
    assert misses <= 8
    assert 1 - misses / 512 > 0.9
    # The batched path serves the same cached objects.
    explanations = service.suggest_and_explain(batch, k=K)
    assert len(explanations) == 512
