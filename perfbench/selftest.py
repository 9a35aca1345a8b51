"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

Each workload is run at minimal length, untraced and traced; the runs
take about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from layers import Recorder, _patch, _timer  # noqa: E402
from loadgen import closed_loop, usable_cpus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_RUNS = {}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    """Run the benchmark command once for one second; cache per key."""
    key = (workload, trace, str(cwd))
    if key not in _RUNS:
        _RUNS[key] = subprocess.run(
            SPEC["command"] + ["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=180,
        )
    return _RUNS[key]


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_gate(workload):
    result = result_of(run_bench(workload, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_cover_the_total(workload):
    proc = run_bench(workload, 1)
    result = result_of(proc)
    diagnostics = json.loads(proc.stdout.splitlines()[-2])
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert diagnostics["missing_layers"] == []
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["md.epoch_ms"]["value"] > 0
    if workload == "suggest_single":
        assert metrics["serving.useful_row_ratio"]["value"] == pytest.approx(1 / 8)
    if workload == "suggest_panel":
        assert metrics["serving.useful_row_ratio"]["value"] == pytest.approx(1.0)
    if workload != "offline_fit_score":
        assert metrics["batcher.mean_batch_rows"]["value"] > 0


def test_loadgen_refuses_more_connections_than_cpus():
    with pytest.raises(ValueError, match="usable CPUs"):
        closed_loop("127.0.0.1", 9, [(b"", b"", 1)], usable_cpus() + 1, 0.1)


def test_renamed_layer_is_reported_missing():
    rec = Recorder()
    assert not _patch(rec, "batcher.submit", "repro.server.batcher:Renamed",
                      "submit", _timer(rec, "batcher.submit"))
    assert not _patch(rec, "serving.topk", "repro.serving.service:SuggestionService",
                      "renamed_topk", _timer(rec, "serving.topk"))
    assert rec.missing == ["batcher.submit", "serving.topk"]


def git_status() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout


def test_run_leaves_git_status_clean():
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    before = git_status()
    _RUNS.clear()  # a fresh run, after the snapshot
    result_of(run_bench(WORKLOADS[-1], 1))
    assert git_status() == before


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
