"""Ensure the in-tree sources are importable even without an editable install.

The offline environment lacks the ``wheel`` package, so ``pip install -e .``
cannot complete; ``python setup.py develop`` works, but this shim makes the
test-suite robust either way.  Also holds the fixtures that ``tests/`` and
``benchmarks/`` share: the density-rule switch and one tiny fitted system
(120 patients, hidden 16, short epochs; well under a second to fit).
"""

import contextlib
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(scope="session")
def representation():
    """``representation("dense" | "sparse")``: a context manager under which
    the density rule of :mod:`repro.nn.sparse` picks that representation for
    every matrix built inside it.

    It patches the rule's two constants (size floor and density threshold),
    so equivalence tests can build the same adjacency both ways without any
    switch in the library.  Session-scoped so module- and class-scoped
    fixtures can use it too.
    """
    from repro.nn import sparse

    constants = {"dense": (sys.maxsize, 0.0), "sparse": (0, 1.0)}

    @contextlib.contextmanager
    def force(kind):
        if kind not in constants:
            raise ValueError(f"representation must be one of {sorted(constants)}")
        min_size, threshold = constants[kind]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sparse, "MIN_SIZE", min_size)
            patch.setattr(sparse, "DENSITY_THRESHOLD", threshold)
            yield

    return force


@pytest.fixture(scope="session")
def fitted_system():
    """(fitted DSSDDI, standardized held-out features) at toy scale."""
    from repro.core import DSSDDI, DSSDDIConfig, DDIGCNConfig, MDGCNConfig
    from repro.data import generate_chronic_cohort, split_patients, standardize_features

    cohort = generate_chronic_cohort(num_patients=120, seed=5)
    x = standardize_features(cohort.features)
    split = split_patients(120, seed=1)
    config = DSSDDIConfig(
        ddi=DDIGCNConfig(epochs=10, hidden_dim=16),
        md=MDGCNConfig(epochs=30, hidden_dim=16),
    )
    system = DSSDDI(config)
    system.fit(x[split.train], cohort.medications[split.train], cohort.ddi)
    return system, x[split.test]


@pytest.fixture(scope="session")
def model_root(fitted_system, tmp_path_factory):
    """An artifact root with one published version of the tiny system."""
    from repro.server import publish_artifact

    system, _pool = fitted_system
    root = tmp_path_factory.mktemp("registry") / "models"
    publish_artifact(system, root)
    return root
