"""Counterfactual link construction (Eq. 7-8 of the paper).

For every patient-drug pair (S_i, D_v) we look for the *nearest neighbour
with the opposite treatment*:

    (S_j, D_u) = argmin { dis(x_i, x_j) + dis(z_v, z_u) :
                          T_ju = 1 - T_iv,
                          dis(x_i, x_j) < gamma_p,
                          dis(z_v, z_u) < gamma_d }

and take its outcome y_ju as the counterfactual outcome y^CF_iv with the
flipped treatment T^CF_iv = 1 - T_iv.  Pairs without a qualifying neighbour
keep their factual treatment and outcome (Eq. 8).

Implementation notes
--------------------
A naive scan is O((m n)^2).  We instead factor the minimization:

    min_{j,u} D_p[i,j] + D_d[v,u]
  = min_j ( D_p[i,j] + f_v^t(j) ),   f_v^t(j) = min_{u : T_ju = t} D_d[v,u]

``f_v^t(j)`` depends on patient j only through j's treatment row, and
``build_treatment`` gives every member of a patient cluster the same row
(the paper-size cohort has 14 distinct rows for 2078 patients).  So the
patients are grouped by distinct treatment row, R groups in all, and once
per call we take, for every patient i and group r, the nearest in-threshold
distance ``near[i, r]`` and the first patient ``arg[i, r]`` attaining it.
Each drug then needs an argmin over an (m, R) table, restricted to the
groups with a finite f, instead of an (m, m) one: O(m^2 + n m R) in total,
and no worse than the direct O(n m^2) scan when every row is distinct.

The result equals the direct scan's, first-index tie rule included.
Floating-point addition is monotone, so the minimum of D_p[i,j] + f over a
group is ``near[i, r] + f``, and where every tied group has f == 0 the
winner is the smallest ``arg[i, r]`` among them, because d + 0 == d
exactly.  A tied group with a finite f != 0 and more than one member can
hide a rounding tie (distinct d with equal d + f) behind ``arg``, so those
rows are recomputed with the direct scan over all patients.  With one-hot
drug features f is always 0 or inf and that fallback never runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

_INF = np.inf


@dataclass
class CounterfactualLinks:
    """Counterfactual training data for MDGCN.

    Attributes:
        treatment_cf: (m, n) counterfactual treatment matrix T^CF.
        outcome_cf: (m, n) counterfactual adjacency Y^CF.
        matched: (m, n) bool — True where Eq. 7 found a neighbour.
        neighbor_patient / neighbor_drug: indices (j, u) of the matched
            neighbour, -1 where unmatched.
    """

    treatment_cf: np.ndarray
    outcome_cf: np.ndarray
    matched: np.ndarray
    neighbor_patient: np.ndarray
    neighbor_drug: np.ndarray

    @property
    def match_rate(self) -> float:
        """Fraction of pairs with a counterfactual neighbour."""
        return float(self.matched.mean())


def pairwise_distances(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense Euclidean distance matrix between row sets."""
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    # In place, as (-2 a.b + |a|^2) + |b|^2: the same roundings as
    # (|a|^2 - 2 a.b) + |b|^2, without four (len(a), len(b)) temporaries.
    sq = a @ b.T
    sq *= -2.0
    sq += (a * a).sum(axis=1)[:, None]
    sq += (b * b).sum(axis=1)[None, :]
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def _distances(features: np.ndarray, dist: Optional[np.ndarray]) -> np.ndarray:
    """``dist`` checked against ``features``, or their distance matrix if None."""
    if dist is None:
        return pairwise_distances(features)
    rows = len(features)
    if dist.shape != (rows, rows):
        raise ValueError(f"distance matrix must be ({rows}, {rows}), got {dist.shape}")
    return dist


def build_counterfactual_links(
    patient_features: np.ndarray,
    drug_features: np.ndarray,
    treatment: np.ndarray,
    outcomes: np.ndarray,
    gamma_p: float,
    gamma_d: float,
    dist_p: Optional[np.ndarray] = None,
    dist_d: Optional[np.ndarray] = None,
) -> CounterfactualLinks:
    """Construct T^CF and Y^CF per Eq. 7-8.

    Args:
        patient_features: (m, d1) original patient features x_i.
        drug_features: (n, d2) original drug features z_v.
        treatment: (m, n) binary treatment matrix T.
        outcomes: (m, n) binary medication use Y.
        gamma_p: max patient distance to count as similar.
        gamma_d: max drug distance to count as similar.
        dist_p / dist_d: optional precomputed
            :func:`pairwise_distances` of the patient / drug features
            (computed here when absent).  A given matrix is thresholded
            in place, so it is consumed by this call.
    """
    treatment = np.asarray(treatment, dtype=np.int64)
    outcomes = np.asarray(outcomes, dtype=np.int64)
    if treatment.shape != outcomes.shape:
        raise ValueError("treatment and outcomes must share shape")
    m, n = treatment.shape
    if patient_features.shape[0] != m:
        raise ValueError("patient_features rows must match treatment rows")
    if drug_features.shape[0] != n:
        raise ValueError("drug_features rows must match treatment columns")
    if gamma_p <= 0 or gamma_d <= 0:
        raise ValueError("gamma_p and gamma_d must be positive")

    # Distances at/above the thresholds are disqualified (NaN included).
    dist_p = _distances(patient_features, dist_p)
    np.copyto(dist_p, _INF, where=~(dist_p < gamma_p))
    dist_d = _distances(drug_features, dist_d)
    np.copyto(dist_d, _INF, where=~(dist_d < gamma_d))

    # Group patients by treatment row; near[i, r] / arg[i, r] are the
    # nearest in-threshold distance from i to group r and its first patient.
    # The lexsort is stable, so each group lists its members in order.
    order = np.lexsort(treatment.T) if n else np.arange(m)
    sorted_rows = treatment[order]
    starts = np.ones(m, dtype=bool)
    starts[1:] = (sorted_rows[1:] != sorted_rows[:-1]).any(axis=1)
    rows_t = sorted_rows[starts]
    num_groups = len(rows_t)
    group = np.empty(m, dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    sizes = np.bincount(group, minlength=num_groups)
    near = np.empty((m, num_groups))
    arg = np.empty((m, num_groups), dtype=np.int64)
    everyone = np.arange(m)
    for r, cols in enumerate(np.split(order, np.flatnonzero(starts))[1:]):
        block = dist_p[:, cols]
        first = block.argmin(axis=1)
        near[:, r] = block[everyone, first]
        arg[:, r] = cols[first]

    treatment_cf = treatment.copy()
    outcome_cf = outcomes.copy()
    matched = np.zeros((m, n), dtype=bool)
    neighbor_patient = np.full((m, n), -1, dtype=np.int64)
    neighbor_drug = np.full((m, n), -1, dtype=np.int64)

    for v in range(n):
        # f[t][r] = min over drugs u with rows_t[r, u] = t of dist_d[v, u]
        best_u = np.empty((2, num_groups), dtype=np.int64)
        best_dist = np.empty((2, num_groups))
        for t in (0, 1):
            candidate = np.where(rows_t == t, dist_d[v][None, :], _INF)
            best_u[t] = candidate.argmin(axis=1)
            best_dist[t] = candidate[np.arange(num_groups), best_u[t]]

        for t_iv in (0, 1):
            opposite = 1 - t_iv
            f = best_dist[opposite]
            # Only groups with an in-threshold drug can donate.
            donors = np.flatnonzero(np.isfinite(f))
            rows = np.flatnonzero(treatment[:, v] == t_iv)
            if len(donors) == 0 or len(rows) == 0:
                continue
            total = near[rows]
            if len(donors) < num_groups:  # a column gather costs ~4 row gathers
                total = total[:, donors]
            total += f[donors]
            best = total.argmin(axis=1)
            at_best = (np.arange(len(rows)), best)
            value = total[at_best]
            ok = np.isfinite(value)
            j_star = arg[rows, donors[best]]
            # Where other groups tie with the best, the first patient wins.
            total[at_best] = _INF
            several = np.flatnonzero(ok & (total.min(axis=1) == value))
            tied = total[several] == value[several, None]
            if len(several):
                others = np.where(tied, arg[np.ix_(rows[several], donors)], m)
                j_star[several] = np.minimum(j_star[several], others.min(axis=1))
            # A group with several members and a finite f != 0 can hide a
            # rounding tie behind arg; such rows take the dense scan.
            hides = (f[donors] != 0) & (sizes[donors] > 1)
            if hides.any():
                suspect = ok & hides[best]
                suspect[several] |= (tied & hides).any(axis=1)
                dense = np.flatnonzero(suspect)
                j_star[dense] = (dist_p[rows[dense]] + f[group]).argmin(axis=1)
            rows, j_star = rows[ok], j_star[ok]
            u_star = best_u[opposite][group[j_star]]
            matched[rows, v] = True
            neighbor_patient[rows, v] = j_star
            neighbor_drug[rows, v] = u_star
            treatment_cf[rows, v] = opposite
            outcome_cf[rows, v] = outcomes[j_star, u_star]

    return CounterfactualLinks(
        treatment_cf=treatment_cf,
        outcome_cf=outcome_cf,
        matched=matched,
        neighbor_patient=neighbor_patient,
        neighbor_drug=neighbor_drug,
    )


def suggest_gammas(
    patient_features: np.ndarray,
    drug_features: np.ndarray,
    quantile: float = 0.25,
    dist_p: Optional[np.ndarray] = None,
    dist_d: Optional[np.ndarray] = None,
) -> Tuple[float, float]:
    """Data-driven default thresholds: the given quantile of pairwise distances.

    The paper treats gamma_p and gamma_d as hyperparameters; a low quantile
    keeps only genuinely similar patients/drugs as counterfactual donors.
    ``dist_p`` / ``dist_d`` are optional precomputed
    :func:`pairwise_distances` of the features (computed here when
    absent); they are read, not modified, so the same matrices can go on
    to :func:`build_counterfactual_links`.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    gamma_p = _distance_quantile(_distances(patient_features, dist_p), quantile)
    gamma_d = _distance_quantile(_distances(drug_features, dist_d), quantile)
    return gamma_p, gamma_d


def _distance_quantile(dist: np.ndarray, quantile: float) -> float:
    """``quantile`` of the distances between distinct rows in ``dist``.

    The boolean ``np.triu(ones, k=1)`` mask selects the same entries in
    the same row-major order as ``np.triu_indices_from(dist, k=1)``
    without its two int64 (m^2 / 2) index arrays, and the quantile
    partitions that selection in place.
    """
    upper = dist[np.triu(np.ones(dist.shape, dtype=bool), k=1)]
    return float(np.quantile(upper, quantile, overwrite_input=True))
