"""Pipeline cache smoke: a second run of an experiment is served from cache.

Runs ``python -m repro.pipeline run fig2 --scale small`` twice against one
fresh cache directory, then renders the run manifests with ``report
--no-outputs``, and checks that:

* the first run is cold (no stage is a cache hit);
* every cacheable stage of the second run is a cache hit;
* the cached ``fig2.result`` is faster and has the same digest as the cold
  one;
* the report command exits 0.

The speed check is a wall-clock comparison, so the test carries the
``timing`` marker, which the default run deselects::

    PYTHONPATH=src python -m pytest benchmarks/test_pipeline_smoke.py -m timing -s
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline import load_manifests

REPO_ROOT = Path(__file__).resolve().parents[1]


def _pipeline(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro.pipeline", *args],
        cwd=str(REPO_ROOT), env=env, check=True,
    )


@pytest.mark.timing
def test_second_run_is_served_from_cache(tmp_path):
    cache = str(tmp_path / "cache")
    _pipeline("run", "fig2", "--scale", "small", "--cache-dir", cache)
    _pipeline("run", "fig2", "--scale", "small", "--cache-dir", cache)

    runs = [m for m in load_manifests(tmp_path / "cache" / "runs") if m.experiment == "fig2"]
    assert len(runs) == 2, f"expected two fig2 runs, got {len(runs)}"
    first, second = runs
    assert not any(s.cache_hit for s in first.stages), "first run must be cold"
    misses = [s.stage for s in second.stages if s.cacheable and not s.cache_hit]
    assert not misses, f"second run not served from cache: {misses}"
    hit = {s.stage: s for s in second.stages}["fig2.result"]
    cold = {s.stage: s for s in first.stages}["fig2.result"]
    assert hit.seconds < cold.seconds, "cached stage should be faster"
    assert hit.digest == cold.digest, "cached artifact must be identical"

    _pipeline("report", "--cache-dir", cache, "--no-outputs")
