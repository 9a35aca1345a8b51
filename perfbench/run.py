"""DSSDDI benchmark: offline fit-and-score, single-patient and panel suggest.

Run from the repository root::

    python3 perfbench/run.py --workload suggest_single --seed 1 --seconds 15 --trace 0

Workloads (closed loops: every caller waits for its reply):

* ``offline_fit_score`` -- the researcher path; no server code.  Builds the
  paper-size chronic cohort (4157 patients, 71 features, 86 drugs, 5:3:2
  split), fits DSSDDI (hidden size 64, counterfactual links on) for fixed
  epoch counts, then scores the test split in 256-row batches through
  ``DSSDDI.predict_scores`` for ``--seconds``.
* ``suggest_single`` -- a doctor's one-patient query: one keep-alive
  connection sends ``POST /v1/suggest`` with one patient row and ``k=3`` to
  ``python -m repro.server`` in its single-process default configuration.
  The edge and the micro-batcher's max-wait timer dominate.
* ``suggest_panel`` -- a clinic panel: two connections, 32 patient rows
  per request.  32 is the default ``max_batch_size``, so every request
  flushes on arrival and the timer is bypassed.

Both serving workloads fit the same model as ``offline_fit_score`` on the
seed's cohort and serve it from an artifact published into a scratch
directory.

Every run checks correctness: served scores and top-k for fixed probe
rows must be bitwise equal to ``SuggestionService.load(artifact)``
in-process, every timed response must equal, byte for byte, the one the
gate verified, and offline scores must repeat bitwise on every pass.
Mismatches, non-200 responses and transport errors count as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice for ``--seconds / 2`` each, first untraced and then with
the timing wrappers of ``layers.py`` installed (the gateway then runs
through ``launcher.py``), and prints the per-layer metrics, the share of
the end-to-end total the layers cover (``trace.coverage``) and the
traced-over-untraced cost (``trace.overhead``).  A layer that is not on a
workload's path (for example HTTP on the offline workload) or whose
public function no longer exists reads 0; the missing ones are named on
the diagnostics line.

The last stdout line is the result object; the line before it holds the
provenance (git sha, source digest, CPUs, library versions, BLAS threads,
seed) and diagnostics.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench"

WORKLOADS = ("offline_fit_score", "suggest_single", "suggest_panel")

NUM_PATIENTS = 4157  # the paper's cohort size
DDI_EPOCHS = 50
MD_EPOCHS = 20
FIT_REPEATS = 3
SCORE_BATCH = 256
K = 3
PANEL_ROWS = 32  # equals ServerConfig().max_batch_size
SINGLE_POOL = 64  # distinct one-patient request bodies
PROBE_ROWS = 8
SETUP_REPEATS = 5
CONNECTIONS = {"suggest_single": 1, "suggest_panel": 2}
SERVER_START_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "patients_per_s": "1/s",
    "suggest_p50_ms": "ms",
    "ndcg_3": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "http.handler_ms": "ms",
    "http.json_decode_ms": "ms",
    "http.self_ms": "ms",
    "http.outside_handler_ms": "ms",
    "app.suggest_ms": "ms",
    "app.self_ms": "ms",
    "batcher.submit_ms": "ms",
    "batcher.wait_ms": "ms",
    "batcher.flushes": "count",
    "batcher.mean_batch_rows": "rows",
    "serving.predict_ms": "ms",
    "serving.topk_ms": "ms",
    "serving.useful_row_ratio": "ratio",
    "ddi.fit_s": "s",
    "ml.kmeans_ms": "ms",
    "causal.treatment_ms": "ms",
    "causal.gammas_ms": "ms",
    "causal.cf_links_ms": "ms",
    "md.epoch_ms": "ms",
    "train.sampler_ms": "ms",
    "gnn.propagation_fwd_ms": "ms",
    "nn.pair_decode_fwd_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optimizer_ms": "ms",
    "md.predict_ms": "ms",
    "md.treatment_for_ms": "ms",
    "nn.pair_decode_score_ms": "ms",
    "md.decoder_rows": "rows",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> bool:
        """Count one operation; ``ok`` False counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


# ----------------------------------------------------------------------
# Inputs and the fitted model.
# ----------------------------------------------------------------------

def make_cohort():
    """The paper-size cohort: standardized features, medications, DDI, split.

    The cohort and the 5:3:2 split use the generators' default seeds, so
    every run fits the same model and ``ndcg_3`` changes only when the
    program's behaviour does; the workload seed orders the test patients.
    """
    from repro import generate_chronic_cohort, split_patients
    from repro.data import standardize_features

    cohort = generate_chronic_cohort(NUM_PATIENTS)
    features = standardize_features(cohort.features)
    split = split_patients(cohort.num_patients)
    return features, cohort.medications, cohort.ddi, split


def timed_setup(repeats: int):
    """Build the cohort ``repeats`` times; (median seconds, last cohort)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        data = make_cohort()
        times.append(time.perf_counter() - started)
    return statistics.median(times), data


def ordered_test_split(data, seed: int):
    """The test split's features and medications in the seed's order."""
    features, medications, _, split = data
    order = np.random.default_rng(seed).permutation(split.test)
    return features[order], medications[order]


def fit_system(features, medications, ddi, split):
    """Fit DSSDDI at the paper's hidden size for the fixed epoch counts.

    Fits ``FIT_REPEATS`` times (the fits are identical: every seed is
    fixed) and returns the last system, the median fit time (the first
    fit in a process also pays allocator and BLAS warm-up) and the total.
    """
    from repro import DSSDDI, DSSDDIConfig
    from repro.core.config import ServerConfig

    config = DSSDDIConfig()
    config.ddi.epochs = DDI_EPOCHS
    config.md.epochs = MD_EPOCHS
    # Score in the gateway's fixed blocks, so the in-process reference
    # service and the gateway run the same arithmetic.
    config.serving.score_block = ServerConfig().score_block
    times = []
    for _ in range(FIT_REPEATS):
        system = DSSDDI(config)
        started = time.perf_counter()
        system.fit(features[split.train], medications[split.train], ddi)
        times.append(time.perf_counter() - started)
    return system, statistics.median(times), sum(times)


def ndcg_of_topk(topk, labels) -> float:
    """NDCG@k of ranked drug lists through ``repro.metrics.ndcg_at_k``."""
    from repro.metrics import ndcg_at_k

    topk = np.asarray(topk)
    scores = np.zeros(labels.shape)
    rows = np.arange(len(topk))
    for rank in range(topk.shape[1]):
        scores[rows, topk[:, rank]] = topk.shape[1] - rank
    return ndcg_at_k(scores, labels, topk.shape[1])


def median_rate(loop) -> float:
    """Median patients per second over about one-second slices of the loop.

    The correct responses are cut, in completion order, into as many
    equal-count slices as the loop ran whole seconds; each slice's rate
    is its rows over the time since the previous slice ended.
    """
    done = sorted(loop.completions)
    slices = max(min(int(loop.wall_s), len(done) // 2), 1)
    size = len(done) // slices
    rates = []
    previous = 0.0
    for index in range(slices):
        chunk = done[index * size:(index + 1) * size]
        rates.append(sum(rows for _, rows in chunk) / (chunk[-1][0] - previous))
        previous = chunk[-1][0]
    return statistics.median(rates)


def percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``latencies_s`` in milliseconds."""
    return float(np.percentile(np.asarray(latencies_s), q)) * 1000.0


def tail_latency(latencies_s: Sequence[float]) -> Dict[str, object]:
    """p99 latency, reported only when ten samples or more lie beyond it.

    On a shared host the p99 of a 20-second run spreads by more than any
    usable regression bound, so it is a diagnostic, not a metric.
    """
    beyond = len(latencies_s) // 100
    return {
        "latency_samples": len(latencies_s),
        "suggest_p99_ms": percentile_ms(latencies_s, 99) if beyond >= 10 else None,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of ``pid`` (default: this process)."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
    return int(match.group(1)) / 1024.0


# ----------------------------------------------------------------------
# offline_fit_score
# ----------------------------------------------------------------------

def score_loop(system, x_test, seconds: float, tally: Tally):
    """Score the test split in 256-row batches for ``seconds``.

    Returns (first-pass scores, per-batch latencies, per-pass patients
    per second, wall).  Every later pass must reproduce the first bitwise.
    """
    batches = [x_test[i:i + SCORE_BATCH] for i in range(0, len(x_test), SCORE_BATCH)]
    first: List = []
    latencies: List[float] = []
    rates: List[float] = []
    started = time.perf_counter()
    deadline = started + seconds
    while not first or time.perf_counter() < deadline:
        pass_started = time.perf_counter()
        for index, batch in enumerate(batches):
            sent = time.perf_counter()
            scores = system.predict_scores(batch)
            latencies.append(time.perf_counter() - sent)
            if len(first) < len(batches):
                first.append(scores)
                tally.check(True)
            else:
                tally.check(np.array_equal(scores, first[index]))
        rates.append(len(x_test) / (time.perf_counter() - pass_started))
    wall = time.perf_counter() - started
    return np.concatenate(first), latencies, rates, wall


def offline_gate(system, scores, x_test, run_dir: Path, tally: Tally) -> None:
    """The saved artifact must serve the fitted system's probe scores."""
    from repro import SuggestionService
    from repro.metrics import top_k_indices

    artifact = Path(tempfile.mkdtemp(prefix="artifact-", dir=run_dir))
    system.save(artifact)
    service = SuggestionService.load(artifact)
    probe = x_test[:PROBE_ROWS]
    served = service.predict_scores(probe)
    tally.check(np.array_equal(served, system.predict_scores(probe)))
    tally.check(np.array_equal(served, scores[:PROBE_ROWS]))
    tally.check(np.array_equal(
        service.topk_from_scores(served, K), top_k_indices(scores[:PROBE_ROWS], K)
    ))


def offline_pass(data, seed: int, seconds: float, tally: Tally, run_dir: Path) -> Dict:
    """Fit, score for ``seconds`` and gate; the raw figures of one pass."""
    system, fit_s, fit_total_s = fit_system(*data)
    x_test, y_test = ordered_test_split(data, seed)
    scores, latencies, rates, wall = score_loop(system, x_test, seconds, tally)
    offline_gate(system, scores, x_test, run_dir, tally)
    from repro.metrics import ndcg_at_k

    return {
        "fit_s": fit_s,
        "fit_total_s": fit_total_s,
        "latencies": latencies,
        "patients_per_s": statistics.median(rates),
        "wall": wall,
        "ndcg_3": ndcg_at_k(scores, y_test, K),
        "test_rows": len(x_test),
    }


def run_offline(seed: int, seconds: float, trace: bool, run_dir: Path, diag: Dict):
    tally = Tally()
    if not trace:
        setup_s, data = timed_setup(SETUP_REPEATS)
        result = offline_pass(data, seed, seconds, tally, run_dir)
        metrics = {
            "setup_s": setup_s,
            "fit_s": result["fit_s"],
            "patients_per_s": result["patients_per_s"],
            "suggest_p50_ms": percentile_ms(result["latencies"], 50),
            "ndcg_3": result["ndcg_3"],
            "peak_rss_mb": peak_rss_mb(),
        }
        diag.update(tail_latency(result["latencies"]))
        return tally, metrics

    from layers import Recorder, install_fit_layers

    data = make_cohort()
    plain = offline_pass(data, seed, seconds / 2, tally, run_dir)
    rec = Recorder()
    install_fit_layers(rec)
    traced = offline_pass(data, seed, seconds / 2, tally, run_dir)
    diag["missing_layers"] = rec.missing

    def unit_cost(result):  # one fit plus one scoring pass over the test split
        return result["fit_s"] + result["test_rows"] / result["patients_per_s"]

    covered = sum(
        rec.seconds(name)
        for name in ("ddi.fit", "ml.kmeans", "causal.treatment", "causal.gammas",
                     "causal.cf_links", "md.epoch", "md.predict")
    )
    metrics = fit_layer_metrics(rec)
    metrics.update(offline_score_metrics(rec))
    metrics["trace.coverage"] = covered / (traced["fit_total_s"] + traced["wall"])
    metrics["trace.overhead"] = unit_cost(traced) / unit_cost(plain) - 1.0
    return tally, metrics


def per_call_ms(rec, name: str) -> float:
    calls = rec.calls(name)
    return rec.seconds(name) / calls * 1000.0 if calls else 0.0


def fit_layer_metrics(rec) -> Dict[str, float]:
    """Per-fit and per-MD-epoch figures of the training layers."""
    per_fit_ms = lambda name: rec.seconds(name) / FIT_REPEATS * 1000.0  # noqa: E731
    per_epoch_ms = lambda name: (  # noqa: E731
        rec.seconds(name) / (FIT_REPEATS * MD_EPOCHS) * 1000.0
    )
    return {
        "ddi.fit_s": rec.seconds("ddi.fit") / FIT_REPEATS,
        "ml.kmeans_ms": per_fit_ms("ml.kmeans"),
        "causal.treatment_ms": per_fit_ms("causal.treatment"),
        "causal.gammas_ms": per_fit_ms("causal.gammas"),
        "causal.cf_links_ms": per_fit_ms("causal.cf_links"),
        "md.epoch_ms": per_epoch_ms("md.epoch"),
        "train.sampler_ms": per_epoch_ms("train.sampler"),
        "gnn.propagation_fwd_ms": per_epoch_ms("gnn.propagation_fwd"),
        "nn.pair_decode_fwd_ms": per_epoch_ms("nn.pair_decode_fwd"),
        "nn.backward_ms": per_epoch_ms("nn.backward"),
        "nn.optimizer_ms": per_epoch_ms("nn.optimizer"),
    }


def offline_score_metrics(rec) -> Dict[str, float]:
    """Per-call figures of ``MDModule.predict_scores`` and its parts."""
    calls = rec.calls("nn.pair_decode_score")
    return {
        "md.predict_ms": per_call_ms(rec, "md.predict"),
        "md.treatment_for_ms": per_call_ms(rec, "md.treatment_for"),
        "nn.pair_decode_score_ms": per_call_ms(rec, "nn.pair_decode_score"),
        "md.decoder_rows": rec.items("nn.pair_decode_score") / calls if calls else 0.0,
    }


# ----------------------------------------------------------------------
# The gateway process.
# ----------------------------------------------------------------------

class Gateway:
    """One gateway process, started and awaited until ``/healthz`` is 200."""

    def __init__(self, command: List[str], log_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), str(BENCH_DIR), env.get("PYTHONPATH")])
        )
        started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        try:
            self.port = self._read_port(started + SERVER_START_TIMEOUT_S)
            self._await_health(started + SERVER_START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"gateway exited with {self.proc.wait()}")
            match = re.search(r"on http://[\d.]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError("gateway did not report its port in time")

    def _await_health(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass  # not accepting yet
            time.sleep(0.01)
        raise RuntimeError("gateway never answered /healthz with 200")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def batcher_counters(self) -> Tuple[float, float]:
        """(flushes, mean rows per flush) read from ``GET /metrics``."""
        _, text = self.get("/metrics")
        values = {}
        for line in text.decode().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in (
                "repro_server_flushes_total",
                "repro_server_batch_size_count",
                "repro_server_batch_size_sum",
            ):
                values[parts[0]] = float(parts[1])
        count = values.get("repro_server_batch_size_count", 0.0)
        mean = values.get("repro_server_batch_size_sum", 0.0) / count if count else 0.0
        return values.get("repro_server_flushes_total", 0.0), mean

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill as a fallback."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def cli_command(model_root: Path) -> List[str]:
    return [sys.executable, "-u", "-m", "repro.server", str(model_root),
            "--host", "127.0.0.1", "--port", "0"]


def launcher_command(model_root: Path, totals: Path) -> List[str]:
    return [sys.executable, "-u", str(BENCH_DIR / "launcher.py"), str(totals),
            str(model_root), "--host", "127.0.0.1", "--port", "0"]


# ----------------------------------------------------------------------
# suggest_single / suggest_panel
# ----------------------------------------------------------------------

def suggest_body(rows, return_scores: bool = False) -> bytes:
    payload = {"features": rows.tolist(), "k": K}
    if return_scores:
        payload["return_scores"] = True
    return json.dumps(payload).encode()


def serving_gate(gateway: Gateway, workload: str, x_test, y_test, reference,
                 tally: Tally):
    """Check served outputs against the in-process reference service.

    Returns (timed request pool, NDCG@3 of the served suggestions).
    The pool pairs each encoded request with the response body the gate
    verified, which every timed response must then equal.
    """
    from loadgen import Connection, encode_post

    ref_scores = reference.predict_scores(x_test)
    ref_topk = reference.topk_from_scores(ref_scores, K)
    conn = Connection("127.0.0.1", gateway.port)
    try:
        def ask(rows, return_scores=False):
            status, body = conn.request(
                encode_post("/v1/suggest", suggest_body(rows, return_scores))
            )
            return status, body, (json.loads(body) if status == 200 else {})

        for i in range(PROBE_ROWS):
            status, _, reply = ask(x_test[i:i + 1], return_scores=True)
            tally.check(
                status == 200
                and np.array_equal(np.asarray(reply["scores"]), ref_scores[i:i + 1])
                and reply["suggestions"] == ref_topk[i:i + 1].tolist()
            )
        status, _, reply = ask(x_test[:PROBE_ROWS], return_scores=True)
        tally.check(
            status == 200
            and np.array_equal(np.asarray(reply["scores"]), ref_scores[:PROBE_ROWS])
            and reply["suggestions"] == ref_topk[:PROBE_ROWS].tolist()
        )

        panels = []
        served = []
        for start in range(0, len(x_test) - PANEL_ROWS + 1, PANEL_ROWS):
            rows = x_test[start:start + PANEL_ROWS]
            status, body, reply = ask(rows)
            expected = ref_topk[start:start + PANEL_ROWS].tolist()
            ok = tally.check(status == 200 and reply["suggestions"] == expected)
            served.extend(reply["suggestions"] if ok else expected)
            panels.append((encode_post("/v1/suggest", suggest_body(rows)), body, PANEL_ROWS))
        ndcg = ndcg_of_topk(np.asarray(served), y_test[:len(served)])
        if workload == "suggest_panel":
            return panels, ndcg

        singles = []
        for i in range(SINGLE_POOL):
            rows = x_test[i:i + 1]
            status, body, reply = ask(rows)
            tally.check(status == 200 and reply["suggestions"] == ref_topk[i:i + 1].tolist())
            singles.append((encode_post("/v1/suggest", suggest_body(rows)), body, 1))
        return singles, ndcg
    finally:
        conn.close()


def run_serving(workload: str, seed: int, seconds: float, trace: bool,
                run_dir: Path, diag: Dict):
    from loadgen import closed_loop
    from repro import SuggestionService
    from repro.server import publish_artifact

    tally = Tally()
    rec = None
    if trace:
        from layers import Recorder, install_fit_layers

        rec = Recorder()
        install_fit_layers(rec)
    data = make_cohort()
    system, fit_s, _ = fit_system(*data)
    model_root = run_dir / "models"
    version = publish_artifact(system, model_root)
    reference = SuggestionService.load(version.path)
    x_test, y_test = ordered_test_split(data, seed)
    connections = CONNECTIONS[workload]
    log_path = run_dir / "gateway.log"

    spawns = []
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if spawns:
                spawns[-1].stop()
            spawns.append(Gateway(cli_command(model_root), log_path))
        gateway = spawns[-1]
        pool, ndcg = serving_gate(gateway, workload, x_test, y_test, reference, tally)
        loop = closed_loop("127.0.0.1", gateway.port, pool, connections,
                           seconds / 2 if trace else seconds)
        flushes, mean_rows = gateway.batcher_counters()
        rss = gateway.peak_rss_mb()
    finally:
        for spawn in spawns:
            spawn.stop()
    tally.attempted += loop.attempted
    tally.failed += loop.failed
    diag.update(tail_latency(loop.latencies_s))
    diag["http_batcher"] = {"flushes": flushes, "mean_batch_rows": mean_rows}

    if not trace:
        return tally, {
            "setup_s": statistics.median(g.setup_s for g in spawns),
            "fit_s": fit_s,
            "patients_per_s": median_rate(loop),
            "suggest_p50_ms": percentile_ms(loop.latencies_s, 50),
            "ndcg_3": ndcg,
            "peak_rss_mb": rss,
        }

    totals_path = run_dir / "layer-totals.json"
    traced_gateway = Gateway(launcher_command(model_root, totals_path), log_path)
    try:
        traced = closed_loop("127.0.0.1", traced_gateway.port, pool, connections,
                             seconds / 2)
        flushes, mean_rows = traced_gateway.batcher_counters()
    finally:
        traced_gateway.stop()
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    server = Recorder.from_snapshot(json.loads(totals_path.read_text()))
    diag["missing_layers"] = rec.missing + server.missing
    metrics = fit_layer_metrics(rec)
    metrics.update(server_layer_metrics(server, traced, flushes, mean_rows))
    metrics["trace.overhead"] = (
        statistics.fmean(traced.latencies_s) / statistics.fmean(loop.latencies_s) - 1.0
    )
    return tally, metrics


def server_layer_metrics(rec, loop, flushes: float, mean_rows: float):
    """Per-request nested self times of the gateway, plus batcher counters.

    Each request's client latency L splits into: outside the handler
    (L - handler), the handler's own work (handler - decode - suggest),
    JSON decode, the app's own work (suggest - submit), batcher wait
    (submit - the flush's scoring and top-k), scoring and top-k.  A
    layer whose wrapper is missing leaves its share, and its parent's
    self time, uncovered.
    """
    requests = max(len(loop.latencies_s), 1)

    def per_request(name):
        return rec.seconds(name) / requests * 1000.0 if name in rec.totals else None

    def per_flush(name):  # a request waits for its whole flush
        return per_call_ms(rec, name) if name in rec.totals else None

    latency = statistics.fmean(loop.latencies_s) * 1000.0
    handler = per_request("http.handler")
    decode = per_request("http.json_decode")
    suggest = per_request("app.suggest")
    submit = per_request("batcher.submit")
    predict = per_flush("serving.predict")
    topk = per_flush("serving.topk")

    def diff(total, *parts):
        if total is None or any(p is None for p in parts):
            return None
        return total - sum(parts)

    leaves = {
        "http.outside_handler_ms": diff(latency, handler),
        "http.self_ms": diff(handler, decode, suggest),
        "http.json_decode_ms": decode,
        "app.self_ms": diff(suggest, submit),
        "batcher.wait_ms": diff(submit, predict, topk),
        "serving.predict_ms": predict,
        "serving.topk_ms": topk,
    }
    covered = sum(max(v, 0.0) for v in leaves.values() if v is not None)
    scored = rec.items("serving.scored_rows")
    metrics = {name: value or 0.0 for name, value in leaves.items()}
    metrics.update({
        "http.handler_ms": handler or 0.0,
        "app.suggest_ms": suggest or 0.0,
        "batcher.submit_ms": submit or 0.0,
        "batcher.flushes": flushes,
        "batcher.mean_batch_rows": mean_rows,
        "serving.useful_row_ratio": (
            rec.items("serving.predict") / scored if scored else 0.0
        ),
        "trace.coverage": covered / latency,
    })
    return metrics


# ----------------------------------------------------------------------
# Provenance and the entry point.
# ----------------------------------------------------------------------

def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and ".so" in line
    })
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def git_state() -> Dict[str, object]:
    """HEAD sha and dirty flag, when the benchmark runs inside a git checkout."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return {"git_sha": None, "git_dirty": None}
        return {
            "git_sha": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def provenance(seed: int) -> Dict[str, object]:
    import scipy
    from loadgen import usable_cpus

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        **git_state(),
        "source_sha256": digest.hexdigest(),
        "nproc": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated benchmark still stops the gateways it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    SCRATCH.mkdir(exist_ok=True)
    run_dir = SCRATCH / f"run-{os.getpid()}"
    run_dir.mkdir()
    diag: Dict[str, object] = {"workload": args.workload, "trace": args.trace}
    try:
        if args.workload == "offline_fit_score":
            tally, metrics = run_offline(args.seed, args.seconds, bool(args.trace),
                                         run_dir, diag)
        else:
            tally, metrics = run_serving(args.workload, args.seed, args.seconds,
                                         bool(args.trace), run_dir, diag)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    diag["provenance"] = provenance(args.seed)
    diag["error_rate"] = tally.failed / max(tally.attempted, 1)
    print(json.dumps(diag, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
