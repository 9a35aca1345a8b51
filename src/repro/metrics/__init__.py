"""Evaluation metrics: ranking (Eq. 21-24), SS (Eq. 19), similarity (Fig. 7)."""

from .ranking import (
    RankingReport,
    ndcg_at_k,
    precision_at_k,
    ranking_report,
    recall_at_k,
    top_k_indices,
)
from .satisfaction import (
    SatisfactionBreakdown,
    SuggestionPairs,
    suggestion_pairs,
)
from .similarity import cosine_similarity_matrix, offdiagonal_mean, smoothing_report

__all__ = [
    "top_k_indices",
    "precision_at_k",
    "recall_at_k",
    "ndcg_at_k",
    "RankingReport",
    "ranking_report",
    "suggestion_pairs",
    "SatisfactionBreakdown",
    "SuggestionPairs",
    "cosine_similarity_matrix",
    "offdiagonal_mean",
    "smoothing_report",
]
