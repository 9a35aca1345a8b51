"""Ensure the in-tree sources are importable even without an editable install.

The offline environment lacks the ``wheel`` package, so ``pip install -e .``
cannot complete; ``python setup.py develop`` works, but this shim makes the
test-suite robust either way.  Also holds the fixtures that ``tests/`` and
``benchmarks/`` share.
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
