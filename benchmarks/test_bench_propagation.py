"""Benchmark: sparse propagation + hot-path optimizations.

Measures this PR's two speedup claims on a synthetic large cohort
(m=5000 patients, n=500 drugs, ~1% link density — the regime where the
patient-drug graph is >99% empty):

* **fit (per-epoch wall time)**: one MDGCN training epoch under the new
  pipeline (CSR propagation, fused LightGCN scan, fused pair decoder,
  CSR scatter-adds) versus the *dense baseline* — a faithful replica of
  the seed implementation's epoch (dense adjacencies, op-by-op autograd
  propagation, generic gather/concat/MLP decode with ``np.add.at``
  scatters).  Both arms run the identical training semantics (same
  full-batch 1:1 negative sampling, same arithmetic — the new pipeline
  is bitwise-equal per step); timings are interleaved best-of so slow
  scheduler phases hit both arms alike.
* **predict**: ``predict_scores`` throughput with the cached drug
  representations + chunked scoring versus the seed path, which
  re-encoded the whole training set through the propagation on every
  call.

The sparse and dense representations (the density rule forced either
way by the ``representation`` fixture of the root ``conftest.py``) must
agree within 1e-9 on ``predict_scores`` for identical fitted weights.  Both speedups must be
>= 3x; those wall-clock floors carry the ``timing`` marker, which the
default run deselects (``pytest -m timing`` runs them).
The model uses a deep propagation stack (6 LightGCN layers) so the
subsystem under test — propagation — carries realistic weight; the
decoder cost is identical in both arms.  Results land in the
untracked ``.benchmarks/BENCH_propagation.json`` at the repo root, so
a run leaves the tracked tree as it was.  Set ``BENCH_PROP_SMOKE=1``
for the reduced-size CI smoke run (equivalence asserted, speedups only
logged).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core import MDGCNConfig, MDModule
from repro.graph import SignedGraph
from repro.nn import Adam, Tensor, bce_with_logits, concat, matmul_fixed
from repro.nn import sparse as sparse_backend

SMOKE = os.environ.get("BENCH_PROP_SMOKE") == "1"
M, N, DENSITY = (600, 120, 0.03) if SMOKE else (5000, 500, 0.01)
FEATURE_DIM = 12
HIDDEN = 32
NUM_LAYERS = 6
ROUNDS = 3 if SMOKE else 8
PREDICT_BATCH = 64
MIN_SPEEDUP = 3.0
RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", ".benchmarks", "BENCH_propagation.json"
)

RESULTS = {
    "cohort": {
        "patients": M,
        "drugs": N,
        "target_density": DENSITY,
        "smoke": SMOKE,
    },
    "model": {"hidden_dim": HIDDEN, "num_layers": NUM_LAYERS},
}


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(RESULTS, fh, indent=2)
    print(f"\nwrote {os.path.abspath(RESULTS_PATH)}")


@pytest.fixture(scope="module")
def cohort():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(M, FEATURE_DIM))
    y = (rng.random((M, N)) < DENSITY).astype(np.int64)
    y[np.arange(M), rng.integers(0, N, size=M)] = 1  # no linkless patients
    z = rng.normal(size=(N, FEATURE_DIM))
    graph = SignedGraph(N)
    pairs = {
        (int(u), int(v))
        for u, v in rng.integers(0, N, size=(3 * N, 2))
        if u != v
    }
    for i, (u, v) in enumerate(sorted(pairs)):
        graph.add_edge(u, v, 1 if i % 3 else -1)
    RESULTS["cohort"]["links"] = int(y.sum())
    RESULTS["cohort"]["density"] = float(y.mean())
    return x, y, z, graph


def _config() -> MDGCNConfig:
    return MDGCNConfig(
        epochs=1,
        hidden_dim=HIDDEN,
        num_layers=NUM_LAYERS,
        use_counterfactual=False,
        num_clusters=8,
        seed=5,
    )


def _fitted(cohort, representation, kind: str) -> MDModule:
    """A module fitted with every matrix built ``kind`` ("dense"/"sparse"),
    its post-fit treatment factors included."""
    x, y, z, graph = cohort
    module = MDModule(_config())
    with representation(kind):
        module.fit(x, y, z, graph, None)
        module._treatment_factors()
    return module


def _epoch_step_new(module: MDModule, cohort):
    """One epoch of ``MDModule.fit``'s training loop (the new pipeline)."""
    x, y, z, _graph = cohort
    positives = np.argwhere(y == 1)
    zero_rows, zero_cols = np.nonzero(y == 0)
    x_t, z_t = Tensor(x), Tensor(z)
    optimizer = Adam(
        module._patient_fc.parameters()
        + module._drug_fc.parameters()
        + module._decoder.parameters(),
        lr=module.config.learning_rate,
    )
    rng = np.random.default_rng(0)

    def step():
        optimizer.zero_grad()
        h_patients, h_drugs = module._encode(x_t, z_t)
        neg_idx = rng.integers(0, len(zero_rows), size=len(positives))
        batch_i = np.concatenate([positives[:, 0], zero_rows[neg_idx]])
        batch_v = np.concatenate([positives[:, 1], zero_cols[neg_idx]])
        labels = np.concatenate(
            [np.ones(len(positives)), np.zeros(len(positives))]
        )
        logits = module._decode(
            h_patients, h_drugs, batch_i, batch_v,
            module._treatment[batch_i, batch_v][None],
        )[0]
        loss = bce_with_logits(logits, labels)
        loss.backward()
        optimizer.step()

    return step


def _epoch_step_seed(module: MDModule, cohort):
    """One epoch exactly as the seed implemented it: dense adjacencies
    (the module is fitted with dense matrices), the op-by-op autograd
    propagation loop, and the generic gather/concat/MLP decode whose
    backward scatters with ``np.add.at``."""
    x, y, z, _graph = cohort
    positives = np.argwhere(y == 1)
    zero_rows, zero_cols = np.nonzero(y == 0)
    x_t, z_t = Tensor(x), Tensor(z)
    optimizer = Adam(
        module._patient_fc.parameters()
        + module._drug_fc.parameters()
        + module._decoder.parameters(),
        lr=module.config.learning_rate,
    )
    rng = np.random.default_rng(0)
    weights = module._propagation.layer_weights

    def encode():
        h_patients = module._patient_fc(x_t).leaky_relu()
        h_drugs = module._drug_fc(z_t).leaky_relu()
        patients_combined = h_patients * weights[0]
        drugs_combined = h_drugs * weights[0]
        current_p, current_d = h_patients, h_drugs
        for t in range(1, module._propagation.num_layers + 1):
            current_p, current_d = (
                matmul_fixed(module._p2d, current_d),
                matmul_fixed(module._d2p, current_p),
            )
            patients_combined = patients_combined + current_p * weights[t]
            drugs_combined = drugs_combined + current_d * weights[t]
        return h_patients, drugs_combined

    def step():
        optimizer.zero_grad()
        h_patients, h_drugs = encode()
        neg_idx = rng.integers(0, len(zero_rows), size=len(positives))
        batch_i = np.concatenate([positives[:, 0], zero_rows[neg_idx]])
        batch_v = np.concatenate([positives[:, 1], zero_cols[neg_idx]])
        labels = np.concatenate(
            [np.ones(len(positives)), np.zeros(len(positives))]
        )
        h_i = h_patients[batch_i]          # Tensor.__getitem__: np.add.at
        h_v = h_drugs[batch_v]
        t_col = Tensor(
            module._treatment[batch_i, batch_v].astype(np.float64).reshape(-1, 1)
        )
        logits = module._decoder(concat([h_i * h_v, t_col], axis=1)).reshape(-1)
        loss = bce_with_logits(logits, labels)
        loss.backward()
        optimizer.step()

    return step


def _interleaved_best(steppers, rounds: int):
    """Best-of timing with the arms interleaved each round, so scheduler
    slow phases penalize all arms equally."""
    for stepper in steppers:  # warm-up
        stepper()
    best = [float("inf")] * len(steppers)
    for _ in range(rounds):
        for i, stepper in enumerate(steppers):
            start = time.perf_counter()
            stepper()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def fit_speedup(cohort, representation):
    """Time one MDGCN fit epoch per arm; record the speedup and return it
    with the dense and sparse modules it was measured on."""
    dense_module = _fitted(cohort, representation, "dense")
    sparse_module = _fitted(cohort, representation, "sparse")

    seed_t, new_dense_t, new_sparse_t = _interleaved_best(
        [
            _epoch_step_seed(dense_module, cohort),
            _epoch_step_new(dense_module, cohort),
            _epoch_step_new(sparse_module, cohort),
        ],
        ROUNDS,
    )
    speedup = seed_t / new_sparse_t
    RESULTS["fit"] = {
        "seed_dense_epoch_seconds": seed_t,
        "new_dense_epoch_seconds": new_dense_t,
        "new_sparse_epoch_seconds": new_sparse_t,
        "speedup_vs_seed": speedup,
        "speedup_backend_only": new_dense_t / new_sparse_t,
    }
    print(
        f"\nfit epoch: seed-dense {seed_t * 1e3:.0f} ms, new-dense "
        f"{new_dense_t * 1e3:.0f} ms, new-sparse {new_sparse_t * 1e3:.0f} ms "
        f"-> {speedup:.1f}x vs seed ({new_dense_t / new_sparse_t:.1f}x backend-only)"
    )
    return speedup, dense_module, sparse_module


def test_bench_fit_epoch_speedup(fit_speedup):
    """MDGCN fit epoch: the timed arms really run on dense and on sparse
    propagation matrices (the speedup itself is recorded)."""
    _speedup, dense_module, sparse_module = fit_speedup
    assert sparse_backend.is_sparse(sparse_module._p2d)
    assert not sparse_backend.is_sparse(dense_module._p2d)


@pytest.mark.timing
def test_bench_fit_epoch_speedup_floor(fit_speedup):
    """The new sparse pipeline is >= 3x the seed's dense epoch."""
    speedup, _dense_module, _sparse_module = fit_speedup
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP


def _naive_predict(module: MDModule, feats: np.ndarray) -> np.ndarray:
    """Replica of the seed ``predict_scores``: re-encode the training set
    through the propagation on every call, then decode all rows at once."""
    x = np.asarray(feats, dtype=np.float64)
    treatment = module.treatment_for(x)
    _h_p, h_drugs = module._encode(
        Tensor(module._x_train), Tensor(module._z_drugs)
    )
    h_new = module._patient_fc(Tensor(x)).leaky_relu()
    n_drugs = module._y_train.shape[1]
    num = x.shape[0]
    patient_idx = np.repeat(np.arange(num), n_drugs)
    drug_idx = np.tile(np.arange(n_drugs), num)
    logits = module._decode(
        h_new, h_drugs, patient_idx, drug_idx, treatment[patient_idx, drug_idx][None]
    )[0]
    return logits.sigmoid().numpy().reshape(num, n_drugs)


@pytest.fixture(scope="module")
def predict_speedup(cohort, representation):
    """Time cached+sparse predict_scores against the seed path; record
    the speedup and return it with the three arms' scores."""
    x, _y, _z, graph = cohort
    dense_module = _fitted(cohort, representation, "dense")
    with representation("sparse"):
        sparse_module = MDModule.from_state(
            _config(), dense_module.export_state(), graph
        )
        sparse_module._treatment_factors()

    batch = x[:PREDICT_BATCH]
    naive = _naive_predict(dense_module, batch)
    fast = sparse_module.predict_scores(batch)  # warm: builds the rep cache
    dense = dense_module.predict_scores(batch)

    t_naive, t_fast = _interleaved_best(
        [
            lambda: _naive_predict(dense_module, batch),
            lambda: sparse_module.predict_scores(batch),
        ],
        ROUNDS,
    )
    speedup = t_naive / t_fast
    RESULTS["predict"] = {
        "batch": PREDICT_BATCH,
        "naive_seconds": t_naive,
        "cached_seconds": t_fast,
        "naive_patients_per_second": PREDICT_BATCH / t_naive,
        "cached_patients_per_second": PREDICT_BATCH / t_fast,
        "speedup": speedup,
        "max_abs_diff": float(np.abs(fast - naive).max()),
    }
    print(
        f"\npredict batch {PREDICT_BATCH}: naive {t_naive * 1e3:.1f} ms vs "
        f"cached+sparse {t_fast * 1e3:.1f} ms -> {speedup:.1f}x "
        f"({PREDICT_BATCH / t_fast:.0f} patients/s)"
    )
    return speedup, {"naive": naive, "fast": fast, "dense": dense}, sparse_module


def test_bench_predict_speedup_and_equivalence(predict_speedup):
    """Cached+chunked+sparse predict_scores agrees with the seed path —
    and across representations — within 1e-9; its speedup is recorded."""
    _speedup, scores, sparse_module = predict_speedup
    assert sparse_backend.is_sparse(sparse_module._p2d)
    np.testing.assert_allclose(scores["fast"], scores["naive"], atol=1e-9)
    np.testing.assert_allclose(scores["dense"], scores["fast"], atol=1e-9)


@pytest.mark.timing
def test_bench_predict_speedup_floor(predict_speedup):
    """Cached+chunked+sparse predict_scores is >= 3x the seed path."""
    speedup, _scores, _sparse_module = predict_speedup
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP
