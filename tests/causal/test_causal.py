"""Tests for treatment construction and counterfactual links."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.causal import (
    build_counterfactual_links,
    build_treatment,
    pairwise_distances,
    suggest_gammas,
)
from repro.data import generate_chronic_cohort
from repro.graph import SignedGraph


def _reference_links(px, dx, treatment, outcomes, gamma_p, gamma_d):
    """The direct O(n m^2) scan: one masked (m, m) argmin per drug.

    The oracle for ``build_counterfactual_links``; returns its five arrays.
    """
    treatment = np.asarray(treatment, dtype=np.int64)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    m, n = treatment.shape
    dist_p = pairwise_distances(px)
    dist_d = pairwise_distances(dx)
    dist_p_masked = np.where(dist_p < gamma_p, dist_p, np.inf)
    dist_d_masked = np.where(dist_d < gamma_d, dist_d, np.inf)

    treatment_cf = treatment.copy()
    outcome_cf = outcomes.copy()
    matched = np.zeros((m, n), dtype=bool)
    neighbor_patient = np.full((m, n), -1, dtype=np.int64)
    neighbor_drug = np.full((m, n), -1, dtype=np.int64)
    for v in range(n):
        best_u = np.empty((2, m), dtype=np.int64)
        best_dist = np.empty((2, m))
        for t in (0, 1):
            candidate = np.where(treatment == t, dist_d_masked[v][None, :], np.inf)
            best_u[t] = candidate.argmin(axis=1)
            best_dist[t] = candidate[np.arange(m), best_u[t]]
        for t_iv in (0, 1):
            rows = np.nonzero(treatment[:, v] == t_iv)[0]
            if len(rows) == 0:
                continue
            opposite = 1 - t_iv
            total = dist_p_masked[rows] + best_dist[opposite][None, :]
            j_star = total.argmin(axis=1)
            ok = np.isfinite(total[np.arange(len(rows)), j_star])
            good_rows, j_good = rows[ok], j_star[ok]
            u_good = best_u[opposite][j_good]
            matched[good_rows, v] = True
            neighbor_patient[good_rows, v] = j_good
            neighbor_drug[good_rows, v] = u_good
            treatment_cf[good_rows, v] = opposite
            outcome_cf[good_rows, v] = outcomes[j_good, u_good]
    return treatment_cf, outcome_cf, matched, neighbor_patient, neighbor_drug


def assert_links_equal_reference(px, dx, treatment, outcomes, gamma_p, gamma_d):
    links = build_counterfactual_links(px, dx, treatment, outcomes, gamma_p, gamma_d)
    expected = _reference_links(px, dx, treatment, outcomes, gamma_p, gamma_d)
    got = (links.treatment_cf, links.outcome_cf, links.matched,
           links.neighbor_patient, links.neighbor_drug)
    for name, a, b in zip(("treatment_cf", "outcome_cf", "matched",
                           "neighbor_patient", "neighbor_drug"), got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    return links


@st.composite
def link_inputs(draw):
    """Small cohorts built to hit ties: grid patient features (duplicates,
    equal distances), one-hot or dense drug features (dense ones scaled up
    so f dwarfs patient distances and rounding ties appear), treatment
    rows shared within clusters or fully random, thresholds from
    "no donor at all" to "every donor"."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    px = rng.integers(0, draw(st.integers(1, 4)), size=(m, draw(st.integers(1, 3))))
    px = px.astype(np.float64) * draw(st.sampled_from([1.0, 0.1]))
    if draw(st.booleans()):
        dx, scale = np.eye(n), 1.0
    else:
        scale = draw(st.sampled_from([1.0, 1e16]))
        dx = rng.integers(0, 3, size=(n, draw(st.integers(1, 3)))) * scale
    if draw(st.booleans()):
        clusters = rng.integers(0, draw(st.integers(1, 4)), size=m)
        treatment = rng.integers(0, 2, size=(4, n))[clusters]
    else:
        treatment = rng.integers(0, 2, size=(m, n))
    outcomes = rng.integers(0, 2, size=(m, n))
    gamma_p = draw(st.sampled_from([1e-9, 0.15, 1.0, 2.5, 1e9]))
    gamma_d = draw(st.sampled_from([1e-9, 1.5, 3.0, 1e9])) * scale
    return px, dx, treatment, outcomes, gamma_p, gamma_d


def tiny_setup():
    """4 patients x 4 drugs; synergy 0-1, antagonism 2-3."""
    features = np.array(
        [[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]]
    )
    y = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
    )
    graph = SignedGraph.from_signed_edges(4, [(0, 1, 1), (2, 3, -1)])
    return features, y, graph


class TestTreatment:
    def test_stage1_is_observed_links(self):
        features, y, graph = tiny_setup()
        result = build_treatment(features, y, graph, num_clusters=2, seed=0)
        assert np.array_equal(result.stage1, y)

    def test_stage2_cluster_propagation(self):
        features, y, graph = tiny_setup()
        result = build_treatment(features, y, graph, num_clusters=2, seed=0)
        # patients 0/1 cluster together, 2/3 together (well separated blobs)
        assert result.clusters[0] == result.clusters[1]
        assert result.clusters[2] == result.clusters[3]
        assert result.clusters[0] != result.clusters[2]
        # patient 0 inherits drug 2 from patient 1
        assert result.stage2[0, 2] == 1
        assert result.stage2[1, 0] == 1
        # no leakage across clusters
        assert result.stage2[0, 1] == 0

    def test_stage3_synergy_propagation(self):
        features, y, graph = tiny_setup()
        result = build_treatment(features, y, graph, num_clusters=2, seed=0)
        # patient 0 treats drug 0; synergy (0,1) adds drug 1
        assert result.matrix[0, 1] == 1
        # antagonism must NOT propagate: patient 2 has drug 1 (cluster) but
        # drug 1 has no synergy to drug 2 or 3
        assert result.matrix[2, 3] == 0 or result.stage2[2, 3] == 1

    def test_monotone_stages(self):
        features, y, graph = tiny_setup()
        result = build_treatment(features, y, graph, num_clusters=2, seed=0)
        assert np.all(result.stage1 <= result.stage2)
        assert np.all(result.stage2 <= result.matrix)

    def test_precomputed_clusters(self):
        features, y, graph = tiny_setup()
        clusters = np.array([0, 0, 1, 1])
        result = build_treatment(
            features, y, graph, num_clusters=2, clusters=clusters
        )
        assert np.array_equal(result.clusters, clusters)

    def test_arbitrary_cluster_labels(self):
        """Caller-provided labels may be negative or non-contiguous; the
        grouping must match the equivalent contiguous labelling."""
        features, y, graph = tiny_setup()
        reference = build_treatment(
            features, y, graph, num_clusters=2,
            clusters=np.array([0, 0, 1, 1]),
        )
        for odd in ([-2, -2, 7, 7], [10**9, 10**9, -1, -1]):
            result = build_treatment(
                features, y, graph, num_clusters=2,
                clusters=np.array(odd),
            )
            assert np.array_equal(result.stage2, reference.stage2)
            assert np.array_equal(result.matrix, reference.matrix)

    def test_validation(self):
        features, y, graph = tiny_setup()
        with pytest.raises(ValueError):
            build_treatment(features[:2], y, graph, 2)
        with pytest.raises(ValueError):
            build_treatment(features, y[:, :2], graph, 2)
        with pytest.raises(ValueError):
            build_treatment(features, y, graph, 2, clusters=np.zeros(7, dtype=int))

    def test_more_clusters_than_patients_clamped(self):
        features, y, graph = tiny_setup()
        result = build_treatment(features, y, graph, num_clusters=40, seed=0)
        assert result.matrix.shape == y.shape


class TestPairwiseDistances:
    def test_self_distances_zero_diagonal(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        dist = pairwise_distances(x)
        assert np.allclose(np.diag(dist), 0.0)
        assert np.allclose(dist, dist.T)

    def test_matches_manual(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        dist = pairwise_distances(a)
        assert dist[0, 1] == pytest.approx(5.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 5))
    def test_triangle_inequality(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        x = rng.normal(size=(n, d))
        dist = pairwise_distances(x)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-9


class TestCounterfactualLinks:
    def test_matched_pairs_flip_treatment(self):
        rng = np.random.default_rng(0)
        px = rng.normal(size=(10, 3))
        dx = rng.normal(size=(5, 2))
        treatment = rng.integers(0, 2, size=(10, 5))
        outcomes = rng.integers(0, 2, size=(10, 5))
        links = build_counterfactual_links(px, dx, treatment, outcomes, 10.0, 10.0)
        flipped = links.treatment_cf[links.matched]
        original = treatment[links.matched]
        assert np.array_equal(flipped, 1 - original)

    def test_unmatched_pairs_keep_factual(self):
        px = np.array([[0.0], [100.0]])
        dx = np.array([[0.0], [100.0]])
        treatment = np.array([[1, 1], [1, 1]])  # no opposite treatment exists
        outcomes = np.array([[1, 0], [0, 1]])
        links = build_counterfactual_links(px, dx, treatment, outcomes, 1.0, 1.0)
        assert not links.matched.any()
        assert np.array_equal(links.treatment_cf, treatment)
        assert np.array_equal(links.outcome_cf, outcomes)

    def test_neighbor_outcome_copied(self):
        # patient 0 ~ patient 1 (close), drug 0 ~ drug 1 (close)
        px = np.array([[0.0], [0.1]])
        dx = np.array([[0.0], [0.05]])
        treatment = np.array([[1, 1], [0, 0]])
        outcomes = np.array([[1, 1], [0, 0]])
        links = build_counterfactual_links(px, dx, treatment, outcomes, 1.0, 1.0)
        # pair (0, 0) has T=1; nearest opposite-treatment pair is patient 1
        assert links.matched[0, 0]
        assert links.neighbor_patient[0, 0] == 1
        assert links.outcome_cf[0, 0] == 0

    def test_nearest_neighbor_is_chosen(self):
        # Two donors with opposite treatment; the closer one must win.
        px = np.array([[0.0], [0.2], [0.9]])
        dx = np.array([[0.0]])
        treatment = np.array([[1], [0], [0]])
        outcomes = np.array([[1], [0], [1]])
        links = build_counterfactual_links(px, dx, treatment, outcomes, 5.0, 5.0)
        assert links.neighbor_patient[0, 0] == 1  # distance 0.2 < 0.9
        assert links.outcome_cf[0, 0] == 0

    def test_thresholds_exclude_far_donors(self):
        px = np.array([[0.0], [3.0]])
        dx = np.array([[0.0]])
        treatment = np.array([[1], [0]])
        outcomes = np.array([[1], [0]])
        links = build_counterfactual_links(px, dx, treatment, outcomes, 1.0, 1.0)
        assert not links.matched[0, 0]

    def test_match_rate_bounds(self):
        rng = np.random.default_rng(1)
        px = rng.normal(size=(12, 2))
        dx = rng.normal(size=(6, 2))
        treatment = rng.integers(0, 2, size=(12, 6))
        outcomes = rng.integers(0, 2, size=(12, 6))
        links = build_counterfactual_links(px, dx, treatment, outcomes, 100.0, 100.0)
        assert 0.0 <= links.match_rate <= 1.0
        # with huge thresholds and mixed treatments everything matches
        assert links.match_rate == 1.0

    def test_validation(self):
        px = np.zeros((2, 1))
        dx = np.zeros((2, 1))
        t = np.zeros((2, 2), dtype=int)
        y = np.zeros((2, 2), dtype=int)
        with pytest.raises(ValueError):
            build_counterfactual_links(px, dx, t, y[:1], 1.0, 1.0)
        with pytest.raises(ValueError):
            build_counterfactual_links(px[:1], dx, t, y, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_counterfactual_links(px, dx[:1], t, y, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_counterfactual_links(px, dx, t, y, 0.0, 1.0)

    def test_outcome_cf_only_changes_on_match(self):
        rng = np.random.default_rng(2)
        px = rng.normal(size=(8, 2))
        dx = rng.normal(size=(4, 2))
        treatment = rng.integers(0, 2, size=(8, 4))
        outcomes = rng.integers(0, 2, size=(8, 4))
        links = build_counterfactual_links(px, dx, treatment, outcomes, 0.5, 0.5)
        unmatched = ~links.matched
        assert np.array_equal(links.outcome_cf[unmatched], outcomes[unmatched])

    @settings(max_examples=300, deadline=None)
    @given(link_inputs())
    def test_matches_direct_scan(self, case):
        assert_links_equal_reference(*case)

    def test_matches_direct_scan_on_cluster_treatment(self):
        cohort = generate_chronic_cohort(num_patients=400, seed=2)
        x, y = cohort.features, cohort.medications
        z = np.eye(y.shape[1])
        treatment = build_treatment(x, y, cohort.ddi.graph, num_clusters=10, seed=0).matrix
        assert len(np.unique(treatment, axis=0)) <= 10
        gamma_p, gamma_d = suggest_gammas(x, z, quantile=0.25)
        links = assert_links_equal_reference(x, z, treatment, y, gamma_p, gamma_d)
        assert 0.0 < links.match_rate < 1.0

    def test_rounding_tie_goes_to_first_patient(self):
        # Donors 1 and 2 share a treatment row; 2 is nearer, but with
        # f = 1e16 both totals round to 1e16, so the first index wins.
        px = np.array([[0.0], [0.5], [0.25]])
        dx = np.array([[0.0], [1e16]])
        treatment = np.array([[1, 1], [1, 0], [1, 0]])
        outcomes = np.array([[0, 0], [1, 1], [0, 0]])
        links = assert_links_equal_reference(px, dx, treatment, outcomes, 10.0, 1e17)
        assert links.neighbor_patient[0, 0] == 1
        assert links.neighbor_drug[0, 0] == 1

    def test_rounding_tie_behind_an_exact_tie(self):
        # Patient 3 (f = 0, distance 1e16) ties exactly with the group of
        # patients 1 and 2 (f = 1e16), which hides a rounding tie: the
        # first patient over both groups is 1, not either group's nearest.
        px = np.array([[0.0], [0.5], [0.25], [1e16]])
        dx = np.array([[0.0], [1e16]])
        treatment = np.array([[1, 1], [1, 0], [1, 0], [0, 0]])
        outcomes = np.array([[0, 0], [1, 1], [0, 0], [0, 0]])
        links = assert_links_equal_reference(px, dx, treatment, outcomes, 1e17, 1e17)
        assert links.neighbor_patient[0, 0] == 1

    def test_empty_cohort(self):
        links = build_counterfactual_links(
            np.zeros((0, 2)), np.zeros((3, 2)), np.zeros((0, 3)),
            np.zeros((0, 3)), 1.0, 1.0,
        )
        assert links.matched.shape == (0, 3)

    def test_suggest_gammas_monotone_in_quantile(self):
        rng = np.random.default_rng(3)
        px = rng.normal(size=(20, 3))
        dx = rng.normal(size=(10, 3))
        g1 = suggest_gammas(px, dx, quantile=0.1)
        g2 = suggest_gammas(px, dx, quantile=0.5)
        assert g1[0] < g2[0] and g1[1] < g2[1]

    def test_suggest_gammas_validation(self):
        with pytest.raises(ValueError):
            suggest_gammas(np.zeros((3, 1)), np.zeros((3, 1)), quantile=1.5)


def _reference_gammas(px, dx, quantile):
    """``suggest_gammas`` through ``np.triu_indices_from``, the index-array
    selection the boolean mask replaced."""
    gammas = []
    for features in (px, dx):
        dist = pairwise_distances(features)
        gammas.append(float(np.quantile(dist[np.triu_indices_from(dist, k=1)], quantile)))
    return tuple(gammas)


@st.composite
def gamma_inputs(draw):
    """Small integer-grid feature sets: duplicate rows and tied distances
    are common, and m = 2 (a single pair) is in range."""
    def rows(max_rows):
        m = draw(st.integers(2, max_rows))
        d = draw(st.integers(1, 3))
        pool = draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=d, max_size=d),
            min_size=1, max_size=m,
        ))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
        return np.array([pool[i] for i in picks], dtype=np.float64)

    quantile = draw(st.one_of(
        st.sampled_from([0.1, 0.25, 0.5]),
        st.floats(0.01, 0.99, allow_nan=False),
    ))
    return rows(12), rows(8), quantile


def _float_bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


class TestSuggestGammasMask:
    @settings(max_examples=200, deadline=None)
    @given(gamma_inputs())
    def test_matches_triu_indices_bitwise(self, case):
        px, dx, quantile = case
        got = suggest_gammas(px, dx, quantile=quantile)
        assert _float_bits(got) == _float_bits(_reference_gammas(px, dx, quantile))

    @pytest.mark.parametrize("quantile", [0.1, 0.25, 0.5])
    def test_matches_triu_indices_on_chronic_cohort(self, quantile):
        cohort = generate_chronic_cohort(num_patients=300, seed=4)
        x, z = cohort.features, np.eye(cohort.medications.shape[1])
        got = suggest_gammas(x, z, quantile=quantile)
        assert _float_bits(got) == _float_bits(_reference_gammas(x, z, quantile))


@st.composite
def shared_distance_inputs(draw):
    """Grid features with tied distances (m = 2 in range), a quantile, and
    random treatment and outcome matrices for the links."""
    px, dx, quantile = draw(gamma_inputs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(px), len(dx))
    return px, dx, quantile, rng.integers(0, 2, size=shape), rng.integers(0, 2, size=shape)


class TestSharedDistances:
    """Precomputed distance matrices give the self-computing results."""

    @settings(max_examples=200, deadline=None)
    @given(shared_distance_inputs())
    def test_precomputed_matrices_match_bitwise(self, case):
        px, dx, quantile, treatment, outcomes = case
        dist_p, dist_d = pairwise_distances(px), pairwise_distances(dx)
        shared = suggest_gammas(px, dx, quantile, dist_p=dist_p, dist_d=dist_d)
        own = suggest_gammas(px, dx, quantile)
        assert _float_bits(shared) == _float_bits(own)

        # A zero quantile (all rows tied) is no valid threshold.
        gamma_p, gamma_d = (g if g > 0 else 1.0 for g in own)
        got = build_counterfactual_links(
            px, dx, treatment, outcomes, gamma_p, gamma_d,
            dist_p=dist_p, dist_d=dist_d,
        )
        expected = build_counterfactual_links(
            px, dx, treatment, outcomes, gamma_p, gamma_d
        )
        for name in ("treatment_cf", "outcome_cf", "matched",
                     "neighbor_patient", "neighbor_drug"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_misshapen_matrix_rejected(self):
        px, dx = np.zeros((3, 2)), np.zeros((2, 2))
        with pytest.raises(ValueError):
            suggest_gammas(px, dx, dist_p=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            build_counterfactual_links(
                px, dx, np.zeros((3, 2)), np.zeros((3, 2)), 1.0, 1.0,
                dist_d=np.zeros((3, 3)),
            )
