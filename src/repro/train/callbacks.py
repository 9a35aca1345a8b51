"""Trainer callbacks: checkpointing, early stopping, scheduling, tracing.

Callbacks observe one :class:`repro.train.Trainer` fit through four
hooks (fit start, epoch start, epoch end, fit end) and communicate back
through the :class:`repro.train.TrainState` — e.g.
``state.request_stop(reason)`` ends training after the current epoch.

Every callback is resume-aware: stateful ones (:class:`EarlyStopping`,
:class:`ConvergenceStop`) rebuild their internal counters from the
restored metric history at fit start, so a checkpointed run that is
killed and resumed stops at exactly the same epoch — and with exactly
the same losses — as an uninterrupted run.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Callable, Optional, Union

from .state import TrainState, checkpoint_path, list_checkpoints

PathLike = Union[str, Path]


class Callback:
    """Base class: all hooks default to no-ops."""

    def on_fit_start(self, state: TrainState) -> None:
        """Called once before the first (or resumed-from) epoch."""

    def on_epoch_start(self, state: TrainState) -> None:
        """Called before each epoch's batches run."""

    def on_epoch_end(self, state: TrainState) -> None:
        """Called after each epoch's metrics land in ``state.history``."""

    def on_fit_end(self, state: TrainState) -> None:
        """Called once after the loop exits (completed or stopped)."""


class EarlyStopping(Callback):
    """Stop when the monitored metric stops improving.

    Args:
        patience: epochs without improvement tolerated before stopping.
        min_delta: smallest decrease that counts as an improvement.
        monitor: key into ``state.history`` (default ``"loss"``).

    Attributes:
        stopped_epoch: epoch the stop triggered at (None if it never did).
        best: best monitored value seen.
    """

    def __init__(
        self, patience: int = 10, min_delta: float = 0.0, monitor: str = "loss"
    ) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if min_delta < 0:
            raise ValueError("min_delta must be >= 0")
        self.patience = patience
        self.min_delta = min_delta
        self.monitor = monitor
        self.best: Optional[float] = None
        self.wait = 0
        self.stopped_epoch: Optional[int] = None

    def on_fit_start(self, state: TrainState) -> None:
        # Replay the restored history so a resumed run carries the exact
        # best/wait counters of the uninterrupted one.
        self.best, self.wait, self.stopped_epoch = None, 0, None
        for epoch, value in enumerate(state.history.get(self.monitor, []), 1):
            self._observe(state, epoch, value)

    def on_epoch_end(self, state: TrainState) -> None:
        values = state.history.get(self.monitor)
        if values:
            self._observe(state, state.epoch, values[-1])

    def _observe(self, state: TrainState, epoch: int, value: float) -> None:
        if self.best is None or value < self.best - self.min_delta:
            self.best = value
            self.wait = 0
            return
        self.wait += 1
        if self.wait >= self.patience and self.stopped_epoch is None:
            self.stopped_epoch = epoch
            state.request_stop(
                f"early stop: no {self.monitor} improvement in "
                f"{self.patience} epoch(s)"
            )


class ConvergenceStop(Callback):
    """Stop when the metric's epoch-over-epoch change falls under ``tol``.

    The classic-ML convergence criterion (|loss_t − loss_{t−1}| < tol)
    that :class:`repro.ml.LogisticRegression` used in its hand-rolled
    loop — kept as its own callback because it compares *consecutive*
    values where :class:`EarlyStopping` compares against the best.
    """

    def __init__(self, tol: float, monitor: str = "loss") -> None:
        if tol < 0:
            raise ValueError("tol must be >= 0")
        self.tol = tol
        self.monitor = monitor
        self.stopped_epoch: Optional[int] = None

    def on_fit_start(self, state: TrainState) -> None:
        self.stopped_epoch = None
        values = state.history.get(self.monitor, [])
        for epoch in range(2, len(values) + 1):
            self._observe(state, epoch, values[epoch - 2], values[epoch - 1])

    def on_epoch_end(self, state: TrainState) -> None:
        values = state.history.get(self.monitor, [])
        if len(values) >= 2:
            self._observe(state, state.epoch, values[-2], values[-1])

    def _observe(
        self, state: TrainState, epoch: int, previous: float, current: float
    ) -> None:
        if abs(previous - current) < self.tol and self.stopped_epoch is None:
            self.stopped_epoch = epoch
            state.request_stop(
                f"converged: |Δ{self.monitor}| < {self.tol:g}"
            )


class Checkpoint(Callback):
    """Write the TrainState to disk every ``every_n`` epochs.

    Checkpoints land in ``directory/epoch-<n>/`` atomically (see
    :meth:`TrainState.save`); older ones beyond ``keep_last`` are deleted
    *after* the new one is complete, so the newest complete checkpoint is
    always valid even across ``kill -9``.  A final checkpoint is always
    taken when the fit ends, so the directory holds the terminal state.

    Args:
        directory: checkpoint root for this run.
        every_n: checkpoint cadence in epochs.
        keep_last: complete checkpoints retained (>= 1).
        extra_writer: called with the in-flight checkpoint directory
            before its atomic promotion — e.g. :class:`repro.core.DSSDDI`
            embeds a servable model artifact snapshot here, which is what
            lets ``repro.server.publish_artifact`` publish the
            best-so-far model straight from a checkpoint.

    Attributes:
        saved: checkpoints written by this instance during the last fit.
        last_path: directory of the newest checkpoint written.
    """

    def __init__(
        self,
        directory: PathLike,
        every_n: int = 1,
        keep_last: int = 1,
        extra_writer: Optional[Callable[[Path], None]] = None,
    ) -> None:
        if every_n < 1:
            raise ValueError("every_n must be >= 1")
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.every_n = every_n
        self.keep_last = keep_last
        self.extra_writer = extra_writer
        self.saved = 0
        self.last_path: Optional[Path] = None

    def on_fit_start(self, state: TrainState) -> None:
        self.saved = 0

    def on_epoch_end(self, state: TrainState) -> None:
        if state.epoch % self.every_n == 0:
            self._write(state)

    def on_fit_end(self, state: TrainState) -> None:
        if self.last_path != checkpoint_path(self.directory, state.epoch):
            self._write(state)

    def _write(self, state: TrainState) -> None:
        target = checkpoint_path(self.directory, state.epoch)
        state._save(target, extra_writer=self.extra_writer)
        self.saved += 1
        self.last_path = target
        for old in list_checkpoints(self.directory)[: -self.keep_last]:
            shutil.rmtree(old, ignore_errors=True)


class LRScheduler(Callback):
    """Set the optimizer learning rate from the epoch number.

    ``schedule`` maps the *upcoming* epoch (1-based) to a learning rate;
    being a pure function of the epoch it needs no serialization — a
    resumed run recomputes the same rates.
    """

    def __init__(self, schedule: Callable[[int], float]) -> None:
        self.schedule = schedule

    def on_epoch_start(self, state: TrainState) -> None:
        if state.optimizer is None:
            raise ValueError("LRScheduler needs a TrainState with an optimizer")
        state.optimizer.lr = float(self.schedule(state.epoch + 1))


class TraceCallback(Callback):
    """Emit :mod:`repro.obs` spans for one fit: ``fit`` plus per-epoch.

    The fit span nests under whatever span is active on the calling
    thread — training inside a pipeline run lands under its
    ``stage:<name>`` span, so ``repro report`` waterfalls show epochs
    inside stages.  With a disabled tracer every hook is a no-op, so
    :func:`repro.train.fit_or_resume` appends this unconditionally is
    safe; it only does so when the global tracer is enabled.

    Args:
        name: suffix of the fit span name (``fit:<name>``).
        tracer: explicit tracer; defaults to the process-global one
            (:func:`repro.obs.trace.get_tracer`), resolved at fit start
            so a tracer scoped in later is still picked up.
        checkpoint: the fit's :class:`Checkpoint` callback, if any —
            epochs that wrote a checkpoint get a ``checkpoint`` event.
    """

    def __init__(
        self,
        name: str = "fit",
        tracer: Optional[object] = None,
        checkpoint: Optional[Checkpoint] = None,
    ) -> None:
        self.name = name
        self._tracer = tracer
        self._checkpoint = checkpoint
        self._fit_span = None
        self._epoch_span = None
        self._saved_seen = 0

    def _resolve(self):
        if self._tracer is not None:
            return self._tracer
        from ..obs.trace import get_tracer

        return get_tracer()

    def on_fit_start(self, state: TrainState) -> None:
        tracer = self._resolve()
        if not getattr(tracer, "enabled", False):
            return
        self._saved_seen = self._checkpoint.saved if self._checkpoint else 0
        span = tracer.span(
            f"fit:{self.name}", attrs={"start_epoch": state.epoch}
        )
        if state.resumed_from is not None:
            span.set("resumed_from", state.resumed_from)
        self._fit_span = span.__enter__()

    def on_epoch_start(self, state: TrainState) -> None:
        if self._fit_span is None:
            return
        self._epoch_span = self._fit_span.tracer.span(
            "epoch", attrs={"epoch": state.epoch + 1}
        ).__enter__()

    def on_epoch_end(self, state: TrainState) -> None:
        if self._epoch_span is None:
            return
        losses = state.history.get("loss")
        if losses:
            self._epoch_span.set("loss", losses[-1])
        # Runs after the Checkpoint callback (fit_or_resume appends this
        # last), so a checkpoint written this epoch is visible here.
        if self._checkpoint is not None and self._checkpoint.saved > self._saved_seen:
            self._saved_seen = self._checkpoint.saved
            self._epoch_span.event(
                "checkpoint",
                path=str(self._checkpoint.last_path),
            )
        self._epoch_span.__exit__(None, None, None)
        self._epoch_span = None

    def on_fit_end(self, state: TrainState) -> None:
        if self._epoch_span is not None:  # stop mid-epoch: still close it
            self._epoch_span.__exit__(None, None, None)
            self._epoch_span = None
        if self._fit_span is None:
            return
        self._fit_span.set("epochs", state.epoch)
        if state.stop_reason:
            self._fit_span.set("stop_reason", state.stop_reason)
        self._fit_span.__exit__(None, None, None)
        self._fit_span = None
