"""The blocked Eq. 14 scoring kernel against the scoring it replaced.

``_reference_scores`` is a copy of how ``MDModule.predict_scores`` scored
before :func:`repro.core.md_module.score_all_drugs` existed: repeat/tile
index arrays over every (patient, drug) pair, one decode of all rows
through the training pair op (or the generic op-by-op MLP for other
decoder shapes), then the boolean-index stable sigmoid.  It first pads
the drug axis with zero rows and zero treatment columns as the kernel
does, and slices the padding off.  The kernel must reproduce it bit for
bit, for any block size and any decoder depth, and a fitted model must
score every patient bitwise the same in any batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DSSDDI, DSSDDIConfig, MDModule
from repro.core.md_module import (
    DRUG_ROW_MULTIPLE,
    SCORE_BLOCK_PATIENTS,
    score_all_drugs,
)
from repro.data import generate_chronic_cohort, split_patients, standardize_features
from repro.nn import MLP, Tensor, concat, gather_rows
from repro.nn.fused import can_fuse_pair_mlp, pair_interaction_logits
from repro.serving import SuggestionService


def _boolean_index_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_scores(h_patients, drug_reps, treatment, mlp) -> np.ndarray:
    num, real = treatment.shape
    n = -(-real // DRUG_ROW_MULTIPLE) * DRUG_ROW_MULTIPLE
    drug_reps = np.concatenate([drug_reps, np.zeros((n - real, drug_reps.shape[1]))])
    treatment = np.concatenate([treatment, np.zeros((num, n - real), treatment.dtype)], axis=1)
    patient_idx = np.repeat(np.arange(num), n)
    drug_idx = np.tile(np.arange(n), num)
    h_left, h_right = Tensor(h_patients), Tensor(drug_reps)
    t = treatment[patient_idx, drug_idx]
    if can_fuse_pair_mlp(mlp):
        logits = pair_interaction_logits(h_left, h_right, patient_idx, drug_idx, t, mlp)
    else:
        interaction = gather_rows(h_left, patient_idx) * gather_rows(h_right, drug_idx)
        t_col = Tensor(np.asarray(t, dtype=np.float64).reshape(-1, 1))
        logits = mlp(concat([interaction, t_col], axis=1)).reshape(-1)
    return _boolean_index_sigmoid(logits.numpy()).reshape(num, n)[:, :real]


def _kernel_scores(h_patients, drug_reps, treatment, mlp, block=SCORE_BLOCK_PATIENTS):
    weights = [layer.weight.data for layer in mlp.layers]
    biases = [layer.bias.data for layer in mlp.layers]
    return score_all_drugs(h_patients, drug_reps, treatment, weights, biases, block)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _module_arrays(module: MDModule, x: np.ndarray):
    # A lone patient is encoded as two rows, as md_module.score_patients does.
    encoded = np.concatenate([x, x]) if len(x) == 1 else x
    return (
        module.patient_representations(encoded)[: len(x)],
        module.drug_representations(),
        module.treatment_for(x),
        module._decoder,
    )


@settings(max_examples=80, deadline=None)
@given(
    batch=st.integers(1, 40),
    num_drugs=st.integers(2, 12),
    width=st.integers(1, 9),
    deep=st.booleans(),
    block=st.integers(1, 2 * SCORE_BLOCK_PATIENTS + 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_reference_bitwise(batch, num_drugs, width, deep, block, seed):
    rng = np.random.default_rng(seed)
    sizes = [width + 1, width, width, 1] if deep else [width + 1, width, 1]
    mlp = MLP(sizes, rng, activation="relu")
    h_patients = rng.normal(size=(batch, width))
    drug_reps = rng.normal(size=(num_drugs, width)) * 3.0
    treatment = rng.integers(0, 2, size=(batch, num_drugs))
    expected = _reference_scores(h_patients, drug_reps, treatment, mlp)
    got = _kernel_scores(h_patients, drug_reps, treatment, mlp, block)
    assert np.array_equal(_bits(got), _bits(expected))


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
    return system, x


@pytest.fixture(scope="module")
def deep_module(fitted):
    """The fitted MD module rebuilt with a [h+1, h, h, 1] decoder."""
    system, _x = fitted
    md = system.md_module
    state = dict(md.export_state())
    hidden = state["decoder.layer0.weight"].shape[1]
    for key in [k for k in state if k.startswith("decoder.")]:
        del state[key]
    rng = np.random.default_rng(3)
    for layer, (fan_in, fan_out) in enumerate([(hidden + 1, hidden), (hidden, hidden), (hidden, 1)]):
        state[f"decoder.layer{layer}.weight"] = rng.normal(size=(fan_in, fan_out)) / np.sqrt(fan_in)
        state[f"decoder.layer{layer}.bias"] = rng.normal(size=fan_out) * 0.1
    return MDModule.from_state(md.config, state, md._ddi_graph)


class TestModuleScoring:
    @pytest.mark.parametrize("batch", [1, 2, 7, 8, 9, 17, 40])
    def test_predict_scores_matches_reference(self, fitted, batch):
        system, x = fitted
        md = system.md_module
        rows = x[:batch]
        expected = _reference_scores(*_module_arrays(md, rows))
        assert np.array_equal(_bits(md.predict_scores(rows)), _bits(expected))

    @pytest.mark.parametrize("batch", [1, 9, 40])
    def test_deeper_decoder_matches_reference(self, deep_module, fitted, batch):
        _system, x = fitted
        assert len(deep_module._decoder.layers) == 3
        assert not can_fuse_pair_mlp(deep_module._decoder)
        rows = x[:batch]
        expected = _reference_scores(*_module_arrays(deep_module, rows))
        assert np.array_equal(_bits(deep_module.predict_scores(rows)), _bits(expected))


class TestServiceEqualsModule:
    # ``start`` is the first patient row of each batch, so the two cases
    # score different patients in every batch size.
    @pytest.mark.parametrize("start", [0, 8])
    def test_service_scores_bitwise_equal_module(self, fitted, start):
        system, x = fitted
        service = SuggestionService(system)
        for batch in range(1, 41):
            rows = x[start : start + batch]
            assert np.array_equal(
                _bits(service.predict_scores(rows)),
                _bits(system.md_module.predict_scores(rows)),
            ), batch


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scores_do_not_depend_on_the_batch(fitted, data):
    """Offline, served and full-batch scores agree bitwise, row by row."""
    system, x = fitted
    full = system.predict_scores(x)
    service = SuggestionService(system)
    size = data.draw(st.integers(1, 40), label="size")
    rows = data.draw(
        st.lists(st.integers(0, len(x) - 1), min_size=size, max_size=size, unique=True),
        label="rows",
    )
    subset = x[rows]
    assert np.array_equal(_bits(system.predict_scores(subset)), _bits(full[rows]))
    assert np.array_equal(_bits(service.predict_scores(subset)), _bits(full[rows]))
