"""Serving subsystem: model persistence + the batched suggestion service.

The core package (``repro.core``) trains DSSDDI in-process; this package
makes fit-once/serve-many possible:

* :mod:`repro.serving.artifact` — ``DSSDDI.save`` / ``DSSDDI.load``
  backing store (``manifest.json`` + ``arrays.npz``), bitwise-exact.
* :mod:`repro.serving.scorer` — :class:`BatchScorer`, the vectorized
  replica of ``MDModule.predict_scores`` with all request-independent
  work precomputed.
* :mod:`repro.serving.cache` — :class:`LRUCache` with hit/miss counters.
* :mod:`repro.serving.service` — :class:`SuggestionService`, the
  request-facing API (``suggest`` / ``explain`` / ``suggest_and_explain``)
  with batched scoring, explanation caching and optional DDI re-ranking.

Quickstart::

    from repro.serving import SuggestionService

    system.fit(x_train, y_train, ddi)       # repro.core.DSSDDI
    system.save("model_dir")

    service = SuggestionService.load("model_dir")
    topk = service.suggest(x_batch, k=3)
    explanations = service.suggest_and_explain(x_batch, k=3)
"""

from .artifact import (
    FORMAT_VERSION,
    ArtifactIntegrityError,
    load_system,
    save_artifact,
    verify_artifact,
)
from .cache import LRUCache
from .scorer import BatchScorer
from .service import SuggestionService

__all__ = [
    "FORMAT_VERSION",
    "ArtifactIntegrityError",
    "save_artifact",
    "load_system",
    "verify_artifact",
    "LRUCache",
    "BatchScorer",
    "SuggestionService",
]
