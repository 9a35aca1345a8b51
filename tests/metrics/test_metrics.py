"""Tests for ranking, satisfaction and similarity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import MSConfig, MSModule
from repro.graph import SignedGraph
from repro.metrics import (
    cosine_similarity_matrix,
    ndcg_at_k,
    offdiagonal_mean,
    precision_at_k,
    ranking_report,
    recall_at_k,
    smoothing_report,
    suggestion_pairs,
    top_k_indices,
)


class TestTopK:
    def test_order_descending(self):
        scores = np.array([[0.1, 0.9, 0.5]])
        assert top_k_indices(scores, 3).tolist() == [[1, 2, 0]]

    def test_k_bounds(self):
        scores = np.zeros((2, 3))
        with pytest.raises(ValueError):
            top_k_indices(scores, 0)
        with pytest.raises(ValueError):
            top_k_indices(scores, 4)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros(3), 1)

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            (4, 6),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        st.integers(1, 6),
    )
    def test_topk_are_the_k_largest(self, scores, k):
        top = top_k_indices(scores, k)
        for i in range(scores.shape[0]):
            chosen = scores[i, top[i]]
            rest = np.delete(scores[i], top[i])
            if rest.size:
                assert chosen.min() >= rest.max() - 1e-12


class TestPrecisionRecall:
    def test_perfect_prediction(self):
        labels = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        scores = labels.astype(float)
        assert precision_at_k(scores, labels, 2) == 1.0
        assert recall_at_k(scores, labels, 2) == 1.0

    def test_worst_prediction(self):
        labels = np.array([[1, 1, 0, 0]])
        scores = np.array([[0.0, 0.0, 1.0, 1.0]])
        assert precision_at_k(scores, labels, 2) == 0.0
        assert recall_at_k(scores, labels, 2) == 0.0

    def test_micro_averaging(self):
        """Eq. 21-22 sum hits over patients before dividing."""
        labels = np.array([[1, 0, 0, 0], [1, 1, 1, 1]])
        scores = np.array([[1.0, 0.9, 0, 0], [1.0, 0.9, 0, 0]])
        # k=2: patient 0 hits 1 of 2 picks, patient 1 hits 2 of 2
        assert precision_at_k(scores, labels, 2) == pytest.approx(3 / 4)
        assert recall_at_k(scores, labels, 2) == pytest.approx(3 / 5)

    def test_empty_labels_recall_zero(self):
        labels = np.zeros((2, 3), dtype=int)
        scores = np.random.default_rng(0).random((2, 3))
        assert recall_at_k(scores, labels, 2) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5))
    def test_metric_bounds(self, k):
        rng = np.random.default_rng(k)
        scores = rng.random((6, 5))
        labels = (rng.random((6, 5)) > 0.6).astype(int)
        assert 0.0 <= precision_at_k(scores, labels, k) <= 1.0
        assert 0.0 <= recall_at_k(scores, labels, k) <= 1.0
        assert 0.0 <= ndcg_at_k(scores, labels, k) <= 1.0

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(3)
        scores = rng.random((10, 8))
        labels = (rng.random((10, 8)) > 0.5).astype(int)
        recalls = [recall_at_k(scores, labels, k) for k in range(1, 9)]
        assert recalls == sorted(recalls)


class TestNDCG:
    def test_perfect_is_one(self):
        labels = np.array([[1, 1, 0, 0]])
        scores = np.array([[0.9, 0.8, 0.1, 0.0]])
        assert ndcg_at_k(scores, labels, 2) == pytest.approx(1.0)

    def test_position_matters(self):
        labels = np.array([[1, 0, 0]])
        good = np.array([[1.0, 0.5, 0.1]])
        bad = np.array([[0.5, 0.1, 1.0]])  # positive ranked last
        assert ndcg_at_k(good, labels, 3) > ndcg_at_k(bad, labels, 3)

    def test_known_value(self):
        # one positive at rank 2 of 2: DCG = 1/log2(3), IDCG = 1
        labels = np.array([[1, 0]])
        scores = np.array([[0.1, 0.9]])
        assert ndcg_at_k(scores, labels, 2) == pytest.approx(1.0 / np.log2(3))

    def test_patients_without_labels_skipped(self):
        labels = np.array([[0, 0], [1, 0]])
        scores = np.array([[0.5, 0.1], [0.9, 0.1]])
        assert ndcg_at_k(scores, labels, 2) == pytest.approx(1.0)

    def test_all_empty_returns_zero(self):
        assert ndcg_at_k(np.ones((2, 3)), np.zeros((2, 3), dtype=int), 2) == 0.0

    def test_ranking_report_ks(self):
        rng = np.random.default_rng(0)
        scores = rng.random((5, 6))
        labels = (rng.random((5, 6)) > 0.5).astype(int)
        reports = ranking_report(scores, labels, [1, 3, 6])
        assert [r.k for r in reports] == [1, 3, 6]


class TestSuggestionSatisfaction:
    def graph(self):
        # 0-1 synergy; 0-2, 1-3 antagonism; 2-3 synergy
        return SignedGraph.from_signed_edges(
            5, [(0, 1, 1), (0, 2, -1), (1, 3, -1), (2, 3, 1)]
        )

    def test_synergistic_pair_better_than_antagonistic(self):
        g = self.graph()
        syn = suggestion_pairs(g, [0, 1], [0, 1, 2, 3]).satisfaction(0.5)
        ant = suggestion_pairs(g, [0, 2], [0, 1, 2, 3]).satisfaction(0.5)
        assert syn.value > ant.value

    def test_counts(self):
        g = self.graph()
        result = suggestion_pairs(g, [0, 1], [0, 1, 2, 3]).satisfaction(0.5)
        assert result.r_in_pos == 1
        assert result.r_in_neg == 0
        assert result.r_out_neg == 2  # 0-2 and 1-3

    def test_eq19_value(self):
        g = self.graph()
        result = suggestion_pairs(g, [0, 1], [0, 1, 2, 3]).satisfaction(0.5)
        k, n_prime = 2, 4
        synergy_term = 2 * (1 + 1) / ((0 + 1) * (k * (k - 1) + 2))
        antagonism_term = 2 / (k * (n_prime - k))
        assert result.value == pytest.approx(0.5 * synergy_term + 0.5 * antagonism_term)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            MSModule(self.graph(), MSConfig(alpha=0.0)).explain([0])
        with pytest.raises(ValueError):
            suggestion_pairs(self.graph(), [0], None).satisfaction(0.0)

    def test_empty_suggestion(self):
        with pytest.raises(ValueError):
            MSModule(self.graph()).explain([])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            MSModule(self.graph()).explain([9])

    def test_single_drug(self):
        result = MSModule(self.graph()).explain([4]).satisfaction
        assert result.k == 1
        assert result.value > 0

    def test_auto_subgraph(self):
        result = MSModule(self.graph()).explain([0, 1]).satisfaction
        assert result.subgraph_nodes >= 2

    def test_mean_satisfaction_at_k(self):
        g = self.graph()
        scores = np.array([[0.9, 0.8, 0.1, 0.1, 0.0], [0.9, 0.1, 0.8, 0.1, 0.0]])
        module = MSModule(g)
        value = module.satisfaction_at_k(scores, 2)
        a = module.explain([0, 1]).satisfaction.value
        b = module.explain([0, 2]).satisfaction.value
        assert value == pytest.approx((a + b) / 2)

    def test_max_patients_cap(self):
        scores = np.tile(np.array([[0.9, 0.8, 0.1, 0.1, 0.0]]), (10, 1))
        module = MSModule(self.graph())
        full = module.satisfaction_at_k(scores, 2)
        capped = module.satisfaction_at_k(scores, 2, max_patients=3)
        assert full == pytest.approx(capped)


class TestSimilarity:
    def test_cosine_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        sim = cosine_similarity_matrix(x)
        assert np.allclose(np.diag(sim), 1.0)
        assert np.all(sim <= 1.0 + 1e-12)

    def test_orthogonal_rows(self):
        x = np.eye(3)
        sim = cosine_similarity_matrix(x)
        assert np.allclose(sim, np.eye(3))

    def test_offdiagonal_mean(self):
        sim = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert offdiagonal_mean(sim) == pytest.approx(0.5)

    def test_offdiagonal_needs_two(self):
        with pytest.raises(ValueError):
            offdiagonal_mean(np.ones((1, 1)))

    def test_smoothing_report(self):
        rng = np.random.default_rng(1)
        report = smoothing_report(
            {
                "smooth": np.ones((5, 3)) + rng.normal(scale=1e-6, size=(5, 3)),
                "diverse": rng.normal(size=(5, 3)),
            }
        )
        assert report["smooth"] > 0.99
        assert report["smooth"] > report["diverse"]

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            cosine_similarity_matrix(np.zeros(3))
