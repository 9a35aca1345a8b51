"""The batched suggestion service: fit once, serve many.

Wraps a fitted (or freshly loaded) :class:`repro.core.DSSDDI` behind a
request-oriented API:

* ``suggest`` — vectorized batch scoring (one matrix product per decoder
  layer per batch, never a per-patient loop) with optional DDI-aware
  greedy re-ranking,
* ``explain`` — MS-module explanations behind an LRU cache keyed on the
  sorted suggestion tuple (explanations depend only on the drug set, so
  repeated suggestions across patients are free),
* ``suggest_and_explain`` — the paper's Fig. 4 system output, batched.

Usage::

    system.save("model_dir")                       # after DSSDDI.fit(...)
    service = SuggestionService.load("model_dir")
    suggestions = service.suggest(x_batch, k=3)    # (batch, 3) drug ids
    explanations = service.suggest_and_explain(x_batch, k=3)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import ServingConfig
from ..core.ms_module import Explanation, canonical_suggestion
from ..core.rerank import RerankConfig, rerank_topk
from ..core.system import DSSDDI
from ..metrics import top_k_indices
from .cache import LRUCache
from .scorer import BatchScorer


class SuggestionService:
    """Serve medication suggestions and explanations from a fitted system.

    Construct from an in-memory fitted :class:`repro.core.DSSDDI` or load
    a saved artifact directly::

        service = SuggestionService(system)            # in-process
        service = SuggestionService.load("model_dir")  # from DSSDDI.save

    Scoring is numerically identical to ``system.predict_scores`` but
    amortizes all request-independent work (drug representations, cluster
    drug exposure, DDI synergy adjacency) at construction, so a batch of
    512 patients costs a handful of matrix products rather than 512
    re-encodings of the training set.

    Serving knobs come from ``system.config.serving``
    (:class:`repro.core.ServingConfig`) unless an explicit ``config``
    overrides them: LRU explanation-cache size, default suggestion size
    ``k``, and optional DDI-safety re-ranking via
    :func:`repro.core.rerank_topk`.
    """

    def __init__(
        self,
        system: DSSDDI,
        config: Optional[ServingConfig] = None,
    ) -> None:
        if system.md_module is None or system.ms_module is None:
            raise RuntimeError("SuggestionService needs a fitted DSSDDI")
        self.config = config or system.config.serving
        self.config.validate()
        self._system = system
        self._ms = system.ms_module
        self._scorer = BatchScorer.from_md_module(system.md_module)
        self._cache = LRUCache(self.config.explanation_cache_size)
        self._rerank_config = RerankConfig(
            synergy_bonus=self.config.synergy_bonus,
            antagonism_penalty=self.config.antagonism_penalty,
            hard_exclude=self.config.hard_exclude,
        )

    @classmethod
    def load(
        cls,
        path,
        config: Optional[ServingConfig] = None,
        mmap_mode: Optional[str] = None,
        verify: bool = True,
    ) -> "SuggestionService":
        """Load a :meth:`repro.core.DSSDDI.save` artifact and serve it.

        ``mmap_mode="r"`` maps the artifact's arrays read-only instead
        of copying them (scores stay bitwise identical); ``verify``
        checks the arrays against the manifest's integrity digests; see
        :meth:`repro.core.DSSDDI.load`.
        """
        return cls(
            DSSDDI.load(path, mmap_mode=mmap_mode, verify=verify), config=config
        )

    # ------------------------------------------------------------------
    @property
    def num_drugs(self) -> int:
        """Size of the drug catalog the model scores over."""
        return self._scorer.num_drugs

    @property
    def feature_dim(self) -> int:
        """Width of the patient feature vectors the model consumes."""
        return self._scorer.feature_dim

    def predict_scores(self, patient_features: np.ndarray) -> np.ndarray:
        """Suggestion scores (batch, n_drugs); matches ``DSSDDI.predict_scores``.

        With ``config.score_block`` set (>= 2) the batch is scored in
        fixed-shape chunks (:meth:`BatchScorer.scores_blocked`), making
        each patient's scores bitwise-independent of the batch they
        arrived in — the contract the online gateway's micro-batcher is
        built on.
        """
        x = np.atleast_2d(np.asarray(patient_features, dtype=np.float64))
        if self.config.score_block:
            return self._scorer.scores_blocked(x, self.config.score_block)
        return self._scorer.scores(x)

    def suggest(
        self, patient_features: np.ndarray, k: Optional[int] = None
    ) -> np.ndarray:
        """Top-k drug ids per patient, (batch, k), best first.

        Plain score top-k by default; the DDI-aware greedy re-ranker when
        ``config.rerank`` is set.
        """
        return self.topk_from_scores(self.predict_scores(patient_features), k)

    def topk_from_scores(
        self, scores: np.ndarray, k: Optional[int] = None
    ) -> np.ndarray:
        """The suggestion step of :meth:`suggest` on precomputed scores.

        Exposed so the gateway's micro-batcher can score a coalesced
        batch once and still produce per-request suggestions through
        exactly the code path sequential ``suggest`` uses.
        """
        k = self.config.default_k if k is None else k
        if self.config.rerank:
            return rerank_topk(
                scores, self._ms.ddi, k, config=self._rerank_config
            )
        return top_k_indices(scores, k)

    def explain(self, suggested: Sequence[int]) -> Explanation:
        """MS-module explanation for one suggested drug set, LRU-cached."""
        return self.lookup_explanation(suggested)[0]

    def lookup_explanation(
        self, suggested: Sequence[int]
    ) -> Tuple[Explanation, bool]:
        """:meth:`explain`, plus whether the explanation was a cache hit."""
        return self._explain_cached(canonical_suggestion(suggested))

    def suggest_and_explain(
        self, patient_features: np.ndarray, k: Optional[int] = None
    ) -> List[Explanation]:
        """Batched system output (Fig. 4): one explanation per patient.

        Patients whose suggestion sets coincide share a single cached
        explanation object.
        """
        suggestions = self.suggest(patient_features, k)
        return [
            self._explain_cached(canonical_suggestion(row))[0]
            for row in suggestions
        ]

    def _explain_cached(self, key: Tuple[int, ...]) -> Tuple[Explanation, bool]:
        explanation = self._cache.get(key)
        if explanation is not None:
            return explanation, True
        explanation = self._ms.explain(key)
        self._cache.put(key, explanation)
        return explanation, False

    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop cached explanations and reset the cache counters."""
        self._cache.clear()

    def __repr__(self) -> str:
        return (
            f"SuggestionService(drugs={self.num_drugs}, "
            f"cache={len(self._cache)}/{self._cache.maxsize}, "
            f"rerank={self.config.rerank})"
        )
