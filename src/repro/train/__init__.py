"""``repro.train`` — the unified training engine.

One :class:`Trainer` drives every model in the repo (DDIGCN, MDGCN, the
GNN baselines, and the classic-ML models) through a shared loop with a
serializable :class:`TrainState`, deterministic batch loaders, and a
callback protocol providing checkpointing, early stopping, LR
scheduling and tracing.  See ``docs/training.md`` for the architecture
and the resume runbook.
"""

from .batcher import FullBatch, Loader, MiniBatcher, PairBatch, PairNegativeSampler
from .callbacks import (
    Callback,
    Checkpoint,
    ConvergenceStop,
    EarlyStopping,
    LRScheduler,
    TraceCallback,
)
from .state import (
    TrainState,
    checkpoint_digest,
    checkpoint_info,
    checkpoint_path,
    has_checkpoint,
    latest_checkpoint,
    list_checkpoints,
)
from .trainer import Trainer, TrainingLog, fit_or_resume

__all__ = [
    "Callback",
    "Checkpoint",
    "ConvergenceStop",
    "EarlyStopping",
    "FullBatch",
    "LRScheduler",
    "Loader",
    "MiniBatcher",
    "PairBatch",
    "PairNegativeSampler",
    "TraceCallback",
    "TrainState",
    "Trainer",
    "TrainingLog",
    "checkpoint_digest",
    "checkpoint_info",
    "checkpoint_path",
    "fit_or_resume",
    "has_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
]
