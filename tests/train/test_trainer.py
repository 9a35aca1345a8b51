"""Unit tests for the Trainer engine: loop, loaders, state, callbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, Tensor, mse_loss
from repro.train import (
    Checkpoint,
    ConvergenceStop,
    EarlyStopping,
    FullBatch,
    LRScheduler,
    MiniBatcher,
    PairNegativeSampler,
    TrainState,
    Trainer,
    checkpoint_info,
    has_checkpoint,
    latest_checkpoint,
)


def _quadratic_setup(lr: float = 0.1):
    """A 2-parameter least-squares problem with a known optimum."""
    rng = np.random.default_rng(0)
    w = Tensor(np.zeros(3), requires_grad=True)
    x = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0]])
    target = np.array([2.0, 1.0, 3.0])

    def step(state, _batch):
        pred = Tensor(x) @ w
        return mse_loss(pred, target)

    state = TrainState([w], Adam([w], lr=lr), rng)
    return step, state, w


class TestTrainerLoop:
    def test_runs_exact_epoch_count(self):
        step, state, _ = _quadratic_setup()
        log = Trainer(17).fit(step, state)
        assert log.epochs_run == 17
        assert log.total_epochs == 17
        assert len(log.losses) == 17
        assert state.epoch == 17

    def test_loss_decreases(self):
        step, state, _ = _quadratic_setup()
        log = Trainer(50).fit(step, state)
        assert log.final_loss < log.losses[0]

    def test_float_loss_steps_without_optimizer(self):
        weights = np.array([4.0])

        def step(state, _batch):
            weights[0] *= 0.5
            return float(weights[0])

        log = Trainer(4).fit(step, TrainState(params=[]))
        assert weights[0] == 0.25
        assert log.losses == [2.0, 1.0, 0.5, 0.25]

    def test_epoch_loss_is_mean_over_batches(self):
        values = iter([1.0, 3.0, 5.0, 7.0])

        def step(state, idx):
            return next(values)

        log = Trainer(2).fit(
            step, TrainState(params=[]), MiniBatcher(4, 2, shuffle=False)
        )
        assert log.losses == [2.0, 6.0]

    def test_extra_metrics_epoch_averaged(self):
        def step(state, _batch):
            state.log("aux", float(state.epoch))
            return 1.0

        log = Trainer(3).fit(step, TrainState(params=[]))
        assert log.history["aux"] == [0.0, 1.0, 2.0]

    def test_zero_epochs_is_a_noop(self):
        step, state, _ = _quadratic_setup()
        log = Trainer(0).fit(step, state)
        assert log.epochs_run == 0 and log.losses == []


class TestLoaders:
    def test_full_batch_yields_one_none(self):
        batches = list(FullBatch().batches(TrainState(params=[])))
        assert batches == [None]

    def test_minibatcher_is_seeded_and_deterministic(self):
        def collect():
            state = TrainState(params=[], rng=np.random.default_rng(7))
            loader = MiniBatcher(10, 3)
            return [list(b) for b in loader.batches(state)]

        first, second = collect(), collect()
        assert first == second
        flat = sorted(i for batch in first for i in batch)
        assert flat == list(range(10))
        assert [len(b) for b in first] == [3, 3, 3, 1]

    def test_minibatcher_unshuffled_needs_no_rng(self):
        loader = MiniBatcher(5, 2, shuffle=False)
        batches = list(loader.batches(TrainState(params=[])))
        assert [list(b) for b in batches] == [[0, 1], [2, 3], [4]]

    def test_minibatcher_shuffle_without_rng_raises(self):
        with pytest.raises(ValueError, match="rng"):
            list(MiniBatcher(5, 2).batches(TrainState(params=[])))

    def test_pair_sampler_full_batch_matches_legacy_draw(self):
        y = (np.arange(20).reshape(4, 5) % 3 == 0).astype(int)
        positives = np.argwhere(y == 1)
        zero_rows, zero_cols = np.nonzero(y == 0)

        state = TrainState(params=[], rng=np.random.default_rng(3))
        loader = PairNegativeSampler(positives, zero_rows, zero_cols)
        (batch,) = list(loader.batches(state))

        legacy_rng = np.random.default_rng(3)
        neg_idx = legacy_rng.integers(0, len(zero_rows), size=len(positives))
        np.testing.assert_array_equal(
            batch.rows, np.concatenate([positives[:, 0], zero_rows[neg_idx]])
        )
        np.testing.assert_array_equal(
            batch.cols, np.concatenate([positives[:, 1], zero_cols[neg_idx]])
        )
        assert batch.labels.sum() == len(positives)
        assert len(batch.labels) == 2 * len(positives)

    def test_pair_sampler_minibatch_covers_all_positives(self):
        y = np.eye(6, dtype=int)
        positives = np.argwhere(y == 1)
        zero_rows, zero_cols = np.nonzero(y == 0)
        loader = PairNegativeSampler(positives, zero_rows, zero_cols, batch_size=4)
        state = TrainState(params=[], rng=np.random.default_rng(0))
        batches = list(loader.batches(state))
        assert [len(b.labels) for b in batches] == [8, 4]
        seen = sorted(
            (int(r), int(c))
            for b in batches
            for r, c, l in zip(b.rows, b.cols, b.labels)
            if l == 1.0
        )
        assert seen == sorted((int(r), int(c)) for r, c in positives)

    def test_pair_sampler_rejects_empty_positives(self):
        with pytest.raises(ValueError, match="no positive links"):
            PairNegativeSampler(
                np.empty((0, 2), dtype=int), np.array([0]), np.array([0])
            )


class TestCallbacks:
    def test_early_stopping_stops_on_plateau(self):
        def step(state, _batch):
            return 1.0  # never improves

        log = Trainer(100).fit(
            step, TrainState(params=[]), callbacks=[EarlyStopping(patience=3)]
        )
        assert log.stopped_early
        assert log.epochs_run == 4  # first sets best, then 3 waits
        assert "early stop" in log.stop_reason

    def test_early_stopping_respects_min_delta(self):
        losses = iter([1.0, 0.99, 0.98, 0.97, 0.96, 0.95])

        def step(state, _batch):
            return next(losses)

        log = Trainer(6).fit(
            step,
            TrainState(params=[]),
            callbacks=[EarlyStopping(patience=2, min_delta=0.1)],
        )
        assert log.stopped_early and log.epochs_run == 3

    def test_convergence_stop_matches_tol(self):
        losses = iter([1.0, 0.5, 0.4999, 0.4])

        def step(state, _batch):
            return next(losses)

        log = Trainer(4).fit(
            step, TrainState(params=[]), callbacks=[ConvergenceStop(tol=1e-3)]
        )
        assert log.stopped_early and log.epochs_run == 3

    def test_lr_scheduler_sets_optimizer_lr(self):
        step, state, _ = _quadratic_setup(lr=1.0)
        rates = []

        def schedule(epoch):
            rates.append(epoch)
            return 1.0 / epoch

        Trainer(3).fit(step, state, callbacks=[LRScheduler(schedule)])
        assert rates == [1, 2, 3]
        assert state.optimizer.lr == pytest.approx(1.0 / 3.0)


class TestCheckpointing:
    def test_checkpoint_cadence_and_final(self, tmp_path):
        step, state, _ = _quadratic_setup()
        ckpt = Checkpoint(tmp_path / "run", every_n=3, keep_last=10)
        log = Trainer(7).fit(step, state, callbacks=[ckpt])
        # epochs 3 and 6 by cadence, 7 from on_fit_end.
        assert ckpt.saved == 3
        assert log.checkpoints == 3
        info = checkpoint_info(tmp_path / "run")
        assert info["epoch"] == 7

    def test_keep_last_prunes_older(self, tmp_path):
        step, state, _ = _quadratic_setup()
        ckpt = Checkpoint(tmp_path / "run", every_n=1, keep_last=2)
        Trainer(5).fit(step, state, callbacks=[ckpt])
        from repro.train import list_checkpoints

        assert [p.name for p in list_checkpoints(tmp_path / "run")] == [
            "epoch-000004",
            "epoch-000005",
        ]

    def test_state_roundtrip_is_bitwise(self, tmp_path):
        step, state, w = _quadratic_setup()
        Trainer(5).fit(step, state)
        state.save(tmp_path / "ckpt")

        step2, fresh, w2 = _quadratic_setup()
        fresh.restore(tmp_path / "ckpt")
        assert fresh.epoch == 5 and fresh.step == 5
        np.testing.assert_array_equal(w2.data, w.data)
        assert fresh.history == state.history
        assert fresh.rng.bit_generator.state == state.rng.bit_generator.state
        # Optimizer moments restored exactly.
        np.testing.assert_array_equal(
            fresh.optimizer.state_dict()["m.0"],
            state.optimizer.state_dict()["m.0"],
        )

    def test_restore_rejects_shape_mismatch(self, tmp_path):
        step, state, _ = _quadratic_setup()
        Trainer(1).fit(step, state)
        state.save(tmp_path / "ckpt")
        other = TrainState([Tensor(np.zeros(4), requires_grad=True)])
        with pytest.raises(ValueError, match="shape mismatch"):
            other.restore(tmp_path / "ckpt")

    def test_restore_rejects_param_count_mismatch(self, tmp_path):
        step, state, _ = _quadratic_setup()
        Trainer(1).fit(step, state)
        state.save(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="parameters"):
            TrainState(params=[]).restore(tmp_path / "ckpt")

    def test_has_and_latest_checkpoint(self, tmp_path):
        assert not has_checkpoint(tmp_path / "nope")
        step, state, _ = _quadratic_setup()
        Trainer(2).fit(
            step, state, callbacks=[Checkpoint(tmp_path / "run", keep_last=5)]
        )
        assert has_checkpoint(tmp_path / "run")
        assert latest_checkpoint(tmp_path / "run").name == "epoch-000002"


class TestTraceCallback:
    def test_fit_and_epoch_spans(self):
        from repro.obs.trace import Tracer
        from repro.train import TraceCallback

        step, state, _ = _quadratic_setup()
        tracer = Tracer(sample=1.0, seed=5, service="test-train")
        Trainer(3).fit(
            step, state, callbacks=[TraceCallback(name="quad", tracer=tracer)]
        )
        spans = tracer.drain()
        fit = next(s for s in spans if s["name"] == "fit:quad")
        assert fit["attrs"]["start_epoch"] == 0
        assert fit["attrs"]["epochs"] == 3
        epochs = [s for s in spans if s["name"] == "epoch"]
        assert [s["attrs"]["epoch"] for s in epochs] == [1, 2, 3]
        for span in epochs:
            assert span["parent"] == fit["span"]
            assert span["attrs"]["loss"] >= 0.0

    def test_disabled_tracer_is_a_noop(self):
        from repro.obs.trace import Tracer
        from repro.train import TraceCallback

        step, state, _ = _quadratic_setup()
        tracer = Tracer(sample=0.0, seed=5)
        Trainer(2).fit(
            step, state, callbacks=[TraceCallback(tracer=tracer)]
        )
        assert tracer.drain() == []

    def test_fit_or_resume_traces_checkpoint_events(self, tmp_path):
        from repro.obs.trace import Tracer, set_tracer
        from repro.train import fit_or_resume

        step, state, _ = _quadratic_setup()
        tracer = Tracer(sample=1.0, seed=7, service="test-train")
        previous = set_tracer(tracer)
        try:
            fit_or_resume(
                Trainer(4),
                step,
                state,
                checkpoint_dir=tmp_path / "run",
                checkpoint_every=2,
            )
        finally:
            set_tracer(previous)
        spans = tracer.drain()
        epochs = [s for s in spans if s["name"] == "epoch"]
        assert len(epochs) == 4
        checkpointed = [
            s["attrs"]["epoch"]
            for s in epochs
            if any(e["name"] == "checkpoint" for e in s["events"])
        ]
        # Cadence writes at epochs 2 and 4; the final save happens in
        # on_fit_end, after the last epoch span has closed.
        assert checkpointed == [2, 4]
        for span in epochs:
            path_events = [
                e for e in span["events"] if e["name"] == "checkpoint"
            ]
            for event in path_events:
                assert "epoch-" in event["path"]
