"""Algorithm 1 regression: recorded communities and SS values, replayed.

``fixtures/algorithm1.json`` holds, for a fixed set of queries, what
``MSModule.query_subgraph`` (the closest truss community, or ``None``)
and ``MSModule.explain`` (the community members and every
``SatisfactionBreakdown`` field) returned when the fixture was recorded.
The queries are:

* 200 seeded top-k suggestions (40 random score rows x k = 2..6) on the
  chronic cohort's DDI graph, the shape of one Table III column;
* one connected query on ``generate_ddi(seed=7).graph`` and one
  disconnected query on that graph with the edges between its lower and
  upper half of drugs removed (Algorithm 1 finds no community, so the
  neighbour fallback is taken).

The replay compares exactly, floats with ``==``: any change to the
search, the truss numbers it reads or the Eq. 19 arithmetic shows here.

Regenerate the fixture (only after an *intentional* change of Algorithm 1
or Eq. 19) with::

    PYTHONPATH=src python tests/core/test_algorithm1_regression.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import MSModule, canonical_suggestion
from repro.data import generate_chronic_cohort, generate_ddi
from repro.graph import SignedGraph
from repro.metrics import top_k_indices

FIXTURE = Path(__file__).parent / "fixtures" / "algorithm1.json"

KS = (2, 3, 4, 5, 6)
ROWS = 40
SCORE_SEED = 2025


def _split_in_halves(graph: SignedGraph) -> SignedGraph:
    """``graph`` without the edges between its lower and upper half."""
    half = graph.num_nodes // 2
    split = SignedGraph(graph.num_nodes)
    for u, v, sign in graph.edges_with_signs():
        if (u < half) == (v < half):
            split.add_edge(u, v, sign)
    return split


def _graphs():
    ddi7 = generate_ddi(seed=7).graph
    return {
        "chronic": generate_chronic_cohort().ddi.graph,
        "ddi7": ddi7,
        "ddi7_split": _split_in_halves(ddi7),
    }


def _queries(chronic: SignedGraph):
    scores = np.random.default_rng(SCORE_SEED).random((ROWS, chronic.num_nodes))
    cases = [
        ("chronic", row.tolist())
        for k in KS
        for row in top_k_indices(scores, k)
    ]
    cases.append(("ddi7", [3, 17, 52]))
    cases.append(("ddi7_split", [3, 60]))
    return cases


def _record(module: MSModule, suggested) -> dict:
    ctc = module.query_subgraph(suggested)
    explanation = module.explain(suggested)
    return {
        "ctc_nodes": None if ctc is None else [int(n) for n in ctc.nodes],
        "community": [int(n) for n in explanation.community],
        "satisfaction": dataclasses.asdict(explanation.satisfaction),
    }


def _replay():
    graphs = _graphs()
    modules = {name: MSModule(graph) for name, graph in graphs.items()}
    return [
        {"graph": name, "suggested": [int(s) for s in suggested],
         **_record(modules[name], suggested)}
        for name, suggested in _queries(graphs["chronic"])
    ]


@pytest.fixture(scope="module")
def replayed():
    return _replay()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_both_paths(recorded):
    assert len(recorded) == len(KS) * ROWS + 2
    ctc = [case["ctc_nodes"] for case in recorded]
    assert any(nodes is None for nodes in ctc)
    assert sum(nodes is not None for nodes in ctc) > len(KS) * ROWS // 2


def test_replay_equals_recording(replayed, recorded):
    assert len(replayed) == len(recorded)
    for now, then in zip(replayed, recorded):
        assert now["graph"] == then["graph"]
        assert now["suggested"] == then["suggested"]
        assert now["ctc_nodes"] == then["ctc_nodes"], now["suggested"]
        assert now["community"] == then["community"], now["suggested"]
        # Dict equality compares the floats with ==.
        assert now["satisfaction"] == then["satisfaction"], now["suggested"]


def test_satisfaction_at_k_runs_algorithm1_once_per_distinct_set():
    """SS@k over the fixture's score rows, each row twice: the module's
    cache runs Algorithm 1 once per distinct suggested set, and the value
    is the mean of per-row explanations computed afresh."""
    chronic = _graphs()["chronic"]
    scores = np.random.default_rng(SCORE_SEED).random((ROWS, chronic.num_nodes))
    scores = np.vstack([scores, scores[::-1]])
    module, fresh = MSModule(chronic), MSModule(chronic)
    for k in KS:
        top = top_k_indices(scores, k)
        distinct = {canonical_suggestion(row) for row in top}
        module.clear_cache()
        value = module.satisfaction_at_k(scores, k)
        assert module.cache.misses == len(distinct) < len(top)
        assert module.cache.hits == len(top) - len(distinct)
        per_row = []
        for row in top:
            fresh.clear_cache()
            per_row.append(fresh.explain(row).satisfaction.value)
        assert value == float(np.mean(per_row))


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(case) for case in _replay())
    FIXTURE.write_text("[\n" + lines + "\n]\n")
    print(f"wrote {FIXTURE}")
