"""Logistic regression (reference [26]) trained by full-batch gradient descent.

Used as the base classifier of the ECC baseline and available standalone.
Plain numpy: the gradient of the regularized log-loss is closed-form, so
the model step applies its own update and the shared
:class:`repro.train.Trainer` only drives the loop (with a
:class:`repro.train.ConvergenceStop` reproducing the classic
|Δloss| < tol stopping rule).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import stable_sigmoid
from ..train import ConvergenceStop, TrainState, Trainer, TrainingLog


class LogisticRegression:
    """Binary logistic regression with L2 regularization.

    Attributes:
        weights: (d,) coefficient vector after :meth:`fit`.
        bias: intercept.
    """

    def __init__(
        self,
        l2: float = 1e-3,
        lr: float = 0.1,
        max_iter: int = 300,
        tol: float = 1e-7,
    ) -> None:
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.l2 = l2
        self.lr = lr
        self.max_iter = max_iter
        self.tol = tol
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self.training_log: Optional[TrainingLog] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y disagree on the number of samples")
        n, d = x.shape
        self.weights = np.zeros(d)
        self.bias = 0.0

        def step(state: TrainState, _batch) -> float:
            probs = stable_sigmoid(x @ self.weights + self.bias)
            error = probs - y
            grad_w = x.T @ error / n + self.l2 * self.weights
            grad_b = float(error.mean())
            self.weights -= self.lr * grad_w
            self.bias -= self.lr * grad_b
            # Historical loop semantics: pre-update probabilities, but the
            # regularizer over the just-updated weights.
            return self._loss(probs, y)

        self.training_log = Trainer(self.max_iter).fit(
            step, TrainState(params=[]), callbacks=[ConvergenceStop(self.tol)]
        )
        return self

    def _loss(self, probs: np.ndarray, y: np.ndarray) -> float:
        eps = 1e-12
        ll = -(y * np.log(probs + eps) + (1 - y) * np.log(1 - probs + eps)).mean()
        return float(ll + 0.5 * self.l2 * (self.weights**2).sum())

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("call fit() before predict_proba()")
        x = np.asarray(x, dtype=np.float64)
        return stable_sigmoid(x @ self.weights + self.bias)

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x) >= threshold).astype(np.int64)
