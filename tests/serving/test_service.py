"""The batched SuggestionService: parity with the core system, the MS
module's explanation cache read through it, re-ranking, and the LRU cache
itself."""

import numpy as np
import pytest

from repro.core import DSSDDI, DSSDDIConfig, ServingConfig, canonical_suggestion
from repro.core.rerank import antagonism_count
from repro.data import generate_chronic_cohort, split_patients, standardize_features
from repro.core.ms_module import LRUCache
from repro.serving import SuggestionService


@pytest.fixture(scope="module")
def fitted():
    cohort = generate_chronic_cohort(num_patients=120, seed=9)
    x = standardize_features(cohort.features)
    split = split_patients(120, seed=2)
    cfg = DSSDDIConfig.fast()
    cfg.ddi.epochs = 10
    cfg.md.epochs = 30
    system = DSSDDI(cfg)
    system.fit(x[split.train], cohort.medications[split.train], cohort.ddi)
    return system, x[split.test], cohort


@pytest.fixture()
def service(fitted):
    """A service over the module-scoped system, whose MS module (and so
    the explanation cache) every test here shares: start it empty."""
    system, _x, _cohort = fitted
    service = SuggestionService(system)
    service.clear_cache()
    return service


class TestScoringParity:
    def test_scores_match_system_bitwise(self, fitted, service):
        system, x_test, _ = fitted
        assert np.array_equal(
            service.predict_scores(x_test), system.predict_scores(x_test)
        )

    def test_suggest_matches_system(self, fitted, service):
        system, x_test, _ = fitted
        batched = service.suggest(x_test, k=4)
        assert batched.shape == (len(x_test), 4)
        assert batched.tolist() == system.suggest(x_test, k=4)

    def test_single_patient_and_1d_input(self, fitted, service):
        _system, x_test, _ = fitted
        row = service.suggest(x_test[0], k=3)
        assert row.shape == (1, 3)
        assert row.tolist() == service.suggest(x_test[:1], k=3).tolist()

    def test_default_k_from_config(self, fitted):
        system, x_test, _ = fitted
        service = SuggestionService(system, config=ServingConfig(default_k=5))
        assert service.suggest(x_test[:2]).shape == (2, 5)

    def test_explicit_zero_k_rejected(self, fitted, service):
        _system, x_test, _ = fitted
        with pytest.raises(ValueError):
            service.suggest(x_test[:2], k=0)


class TestExplanationCache:
    def test_repeated_suggestions_hit_cache(self, fitted, service):
        system, x_test, _ = fitted
        batch = np.tile(x_test[:2], (3, 1))  # 6 patients, <= 2 distinct
        distinct = {tuple(sorted(row)) for row in system.suggest(x_test[:2], k=3)}
        suggestions = service.suggest(batch, k=3)
        hits = [service.lookup_explanation(row)[1] for row in suggestions]
        assert hits.count(False) == len(distinct)
        assert hits.count(True) == 6 - len(distinct)
        explanations = service.suggest_and_explain(batch, k=3)
        assert len(explanations) == 6
        # Repeats share the cached object outright.
        assert explanations[0] is explanations[2]
        assert explanations[0] is service.explain(suggestions[0])

    def test_explain_order_and_duplicates_are_one_key(self, fitted, service):
        first, first_hit = service.lookup_explanation([47, 46])
        second, second_hit = service.lookup_explanation([46, 47, 46])
        assert first is second
        assert (first_hit, second_hit) == (False, True)

    def test_explain_matches_system(self, fitted, service):
        system, _x, _ = fitted
        assert service.explain([46, 47]).render() == system.explain(
            [46, 47]
        ).render()

    def test_system_explain_fills_the_service_cache(self, fitted, service):
        system, _x, _ = fitted
        explanation = system.explain([46, 47])
        cached, hit = service.lookup_explanation([47, 46])
        assert hit and cached is explanation

    def test_clear_cache(self, fitted, service):
        assert service.lookup_explanation([46, 47])[1] is False
        assert service.lookup_explanation([46, 47])[1] is True
        service.clear_cache()
        assert service.lookup_explanation([46, 47])[1] is False


class TestRerank:
    def test_reranked_suggestions_are_safer(self, fitted):
        system, x_test, cohort = fitted
        plain = SuggestionService(system)
        safe = SuggestionService(
            system,
            config=ServingConfig(rerank=True, hard_exclude=True),
        )
        k = 5
        plain_conflicts = sum(
            antagonism_count(row, cohort.ddi.graph)
            for row in plain.suggest(x_test, k=k)
        )
        safe_conflicts = sum(
            antagonism_count(row, cohort.ddi.graph)
            for row in safe.suggest(x_test, k=k)
        )
        assert safe_conflicts <= plain_conflicts
        assert safe.suggest(x_test[:3], k=k).shape == (3, k)

    def test_unfitted_system_rejected(self):
        with pytest.raises(RuntimeError):
            SuggestionService(DSSDDI(DSSDDIConfig.fast()))


class TestCanonicalSuggestion:
    def test_sorts_and_dedupes(self):
        assert canonical_suggestion([3, 1, 3, 2]) == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonical_suggestion([])


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now least recently used
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_size_disables_storage(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)
