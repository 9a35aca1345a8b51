"""Per-layer timing wrappers, installed from outside the program.

The benchmark never edits ``repro``: a traced run replaces a few public
functions and methods with thin timing wrappers before the workload
starts.  Every wrapper adds its elapsed ``perf_counter`` time and call
count to one shared :class:`Recorder`.

A public name that a later change renames or deletes is reported as a
missing layer (``Recorder.missing``); installing the remaining wrappers
and the workload itself carry on regardless.

Two wrapper sets exist:

* :func:`install_fit_layers` (benchmark process) covers the researcher
  path: DDI module, K-means, treatment, counterfactual links, the MD
  training loop per epoch, and ``MDModule.predict_scores`` scoring.
* :func:`install_server_layers` (the traced gateway launcher) covers the
  serving path: HTTP handler, JSON decode, ``GatewayApp.suggest``, the
  micro-batcher, and ``SuggestionService`` scoring and top-k.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """Thread-safe totals: layer name -> [seconds, calls, items]."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.totals: Dict[str, List[float]] = {}
        self.missing: List[str] = []
        #: Set while ``MDModule.fit`` runs, so the shared autograd and
        #: optimizer wrappers count MD training only (not the DDI module).
        self.in_md_fit = False

    def add(self, name: str, seconds: float, items: int = 0) -> None:
        """Add one call of ``name`` lasting ``seconds`` over ``items``."""
        with self._lock:
            entry = self.totals.setdefault(name, [0.0, 0, 0])
            entry[0] += seconds
            entry[1] += 1
            entry[2] += items

    def seconds(self, name: str) -> float:
        """Total seconds recorded for ``name`` (0.0 if never called)."""
        return self.totals.get(name, [0.0, 0, 0])[0]

    def calls(self, name: str) -> int:
        """Number of calls recorded for ``name``."""
        return int(self.totals.get(name, [0.0, 0, 0])[1])

    def items(self, name: str) -> int:
        """Items (rows) recorded for ``name``."""
        return int(self.totals.get(name, [0.0, 0, 0])[2])

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe copy of the totals and the missing-layer list."""
        with self._lock:
            return {
                "totals": {k: list(v) for k, v in self.totals.items()},
                "missing": list(self.missing),
            }

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Any]) -> "Recorder":
        """Rebuild the recorder another process wrote with :meth:`snapshot`."""
        rec = cls()
        rec.totals = snapshot["totals"]
        rec.missing = snapshot["missing"]
        return rec


def _resolve(path: str) -> Any:
    """``"pkg.mod:Class"`` or ``"pkg.mod"`` -> the object."""
    module_name, _, attr = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, attr.split(".")):
        obj = getattr(obj, part)
    return obj


def _patch(rec: Recorder, layer: str, owner_path: str, attr: str,
           make: Callable[[Callable], Callable]) -> bool:
    """Replace ``owner.attr`` by ``make(original)``; record misses.

    When the owner is a module, every loaded ``repro`` module that
    imported the same function by name is patched too, because callers
    look the name up in their own namespace.
    """
    try:
        owner = _resolve(owner_path)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        rec.missing.append(layer)
        return False
    wrapped = make(original)
    functools.update_wrapper(wrapped, original)
    setattr(owner, attr, wrapped)
    if inspect.ismodule(owner):
        for name, module in list(sys.modules.items()):
            if (
                name.startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is original
            ):
                setattr(module, attr, wrapped)
    return True


def _timer(rec: Recorder, name: str, md_only: bool = False,
           items: Optional[Callable[..., int]] = None):
    """Wrapper factory adding each call's duration to ``name``."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if md_only and not rec.in_md_fit:
                return original(*args, **kwargs)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                rec.add(
                    name,
                    time.perf_counter() - started,
                    items(*args, **kwargs) if items is not None else 0,
                )

        return wrapper

    return make


def _rows(position: int) -> Callable[..., int]:
    """Row count of the array argument at ``position`` (self included)."""

    def count(*args, **_kwargs) -> int:
        try:
            return int(len(args[position]))
        except (IndexError, TypeError):
            return 0

    return count


# ----------------------------------------------------------------------
# The researcher path (benchmark process).
# ----------------------------------------------------------------------

def install_fit_layers(rec: Recorder) -> None:
    """Wrap the DDI/MD fit and offline scoring layers."""
    import repro.core  # noqa: F401  (load every module the patches touch)

    _patch(rec, "ddi.fit", "repro.core.ddi_module:DDIModule", "fit",
           _timer(rec, "ddi.fit"))
    _patch(rec, "ml.kmeans", "repro.ml.kmeans", "kmeans",
           _timer(rec, "ml.kmeans"))
    _patch(rec, "causal.treatment", "repro.causal.treatment",
           "build_treatment", _timer(rec, "causal.treatment"))
    _patch(rec, "causal.gammas", "repro.causal.counterfactual",
           "suggest_gammas", _timer(rec, "causal.gammas"))
    _patch(rec, "causal.cf_links", "repro.causal.counterfactual",
           "build_counterfactual_links", _timer(rec, "causal.cf_links"))
    _patch(rec, "md.treatment_for", "repro.core.md_module:MDModule",
           "treatment_for", _timer(rec, "md.treatment_for"))
    _patch(rec, "md.predict", "repro.core.md_module:MDModule",
           "predict_scores", _timer(rec, "md.predict"))
    _patch(rec, "gnn.propagation_fwd", "repro.gnn.lightgcn:LightGCNPropagation",
           "forward", _timer(rec, "gnn.propagation_fwd", md_only=True))
    _patch(rec, "nn.backward", "repro.nn.tensor:Tensor", "backward",
           _timer(rec, "nn.backward", md_only=True))
    _patch(rec, "nn.optimizer", "repro.nn.optim:Adam", "step",
           _timer(rec, "nn.optimizer", md_only=True))
    _patch(rec, "nn.pair_decode", "repro.nn.fused", "pair_interaction_logits",
           _pair_decode(rec))
    _patch(rec, "train.sampler", "repro.train.batcher:PairNegativeSampler",
           "batches", _sampler(rec))
    _patch(rec, "md.epoch", "repro.core.md_module:MDModule", "fit",
           _md_fit(rec))


def _pair_decode(rec: Recorder):
    """Split the fused pair op into its training and scoring calls."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            needs_grad = kwargs.get("needs_grad", args[6] if len(args) > 6 else True)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                if not needs_grad:
                    rows = len(args[2]) if len(args) > 2 else 0
                    rec.add("nn.pair_decode_score", elapsed, rows)
                elif rec.in_md_fit:
                    rec.add("nn.pair_decode_fwd", elapsed)

        return wrapper

    return make


def _sampler(rec: Recorder):
    """Time each ``next()`` on the negative sampler's batch generator."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                started = time.perf_counter()
                try:
                    batch = next(iterator)
                except StopIteration:
                    return
                finally:
                    if rec.in_md_fit:
                        rec.add("train.sampler", time.perf_counter() - started)
                yield batch

        return wrapper

    return make


def _md_fit(rec: Recorder):
    """Scope MD training and time its epochs through a Trainer callback."""
    try:
        from repro.train import Callback
    except ImportError:
        Callback = None

    def make(original: Callable) -> Callable:
        try:
            takes_callbacks = "callbacks" in inspect.signature(original).parameters
        except (TypeError, ValueError):
            takes_callbacks = False
        if Callback is None or not takes_callbacks:
            rec.missing.append("md.epoch")
            epoch_timer = None
        else:
            class EpochTimer(Callback):
                """Adds each MD epoch's wall time to ``md.epoch``."""

                started = 0.0

                def on_epoch_start(self, state) -> None:
                    self.started = time.perf_counter()

                def on_epoch_end(self, state) -> None:
                    rec.add("md.epoch", time.perf_counter() - self.started)

            epoch_timer = EpochTimer

        def wrapper(self, *args, **kwargs):
            if epoch_timer is not None:
                kwargs["callbacks"] = list(kwargs.get("callbacks", ())) + [epoch_timer()]
            rec.in_md_fit = True
            try:
                return original(self, *args, **kwargs)
            finally:
                rec.in_md_fit = False

        return wrapper

    return make


# ----------------------------------------------------------------------
# The serving path (traced gateway process).
# ----------------------------------------------------------------------

def install_server_layers(rec: Recorder) -> None:
    """Wrap the gateway's HTTP, app, batcher and scoring layers."""
    import repro.server  # noqa: F401

    _patch(rec, "http.handler", "repro.server.http:GatewayRequestHandler",
           "do_POST", _timer(rec, "http.handler"))
    _patch(rec, "http.json_decode", "repro.server.app", "parse_json_body",
           _timer(rec, "http.json_decode"))
    _patch(rec, "app.suggest", "repro.server.app:GatewayApp", "suggest",
           _timer(rec, "app.suggest"))
    _patch(rec, "batcher.submit", "repro.server.batcher:MicroBatcher",
           "submit", _timer(rec, "batcher.submit"))
    _patch(rec, "serving.predict", "repro.serving.service:SuggestionService",
           "predict_scores", _timer(rec, "serving.predict", items=_rows(1)))
    _patch(rec, "serving.topk", "repro.serving.service:SuggestionService",
           "topk_from_scores", _timer(rec, "serving.topk"))
    # Rows actually scored, after fixed-block padding.
    _patch(rec, "serving.scored_rows", "repro.serving.scorer:BatchScorer",
           "scores", _timer(rec, "serving.scored_rows", items=_rows(1)))
