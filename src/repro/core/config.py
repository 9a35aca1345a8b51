"""Configuration for DSSDDI with the paper's hyperparameters as defaults.

Section V-A3: Adam, lr 0.01 (MDGCN) / 0.001 (DDIGCN), 1000 / 400 epochs,
hidden size 64, LeakyReLU after the FC layers, 2 MDGCN propagation layers,
3 DDIGCN layers with batch norm + ReLU, beta_t = 1/(t+2), delta = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Optional

BACKBONES = ("gin", "sgcn", "sigat", "snea")
DRUG_EMBEDDING_MODES = ("ddigcn", "onehot", "kg", "none")


class _SerializableConfig:
    """JSON round-trip mixin shared by the flat config dataclasses.

    Used by the serving artifact format: every config must survive
    ``from_dict(to_dict())`` exactly so a reloaded system validates and
    scores identically to the one that was saved.
    """

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (field name -> value)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "_SerializableConfig":
        """Rebuild from :meth:`to_dict` output; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class DDIGCNConfig(_SerializableConfig):
    """DDI-module hyperparameters (Sec. IV-A / V-A3)."""

    backbone: str = "sgcn"
    hidden_dim: int = 64
    num_layers: int = 3
    learning_rate: float = 0.001
    epochs: int = 400
    zero_edge_ratio: float = 1.0  # sampled "no interaction" edges per real edge
    seed: int = 41

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range hyperparameters."""
        if self.backbone not in BACKBONES:
            raise ValueError(f"backbone must be one of {BACKBONES}, got {self.backbone!r}")
        if self.hidden_dim < 2 or self.hidden_dim % 2 != 0:
            raise ValueError("hidden_dim must be an even integer >= 2")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.zero_edge_ratio < 0:
            raise ValueError("zero_edge_ratio must be >= 0")


@dataclass
class MDGCNConfig(_SerializableConfig):
    """MD-module hyperparameters (Sec. IV-B / V-A3)."""

    hidden_dim: int = 64
    num_layers: int = 2
    learning_rate: float = 0.01
    epochs: int = 1000
    delta: float = 1.0  # counterfactual loss weight (Eq. 18)
    drug_embedding_mode: str = "ddigcn"  # Table II ablation switch
    gamma_quantile: float = 0.25  # drives gamma_p / gamma_d defaults
    gamma_p: Optional[float] = None  # explicit override
    gamma_d: Optional[float] = None
    num_clusters: Optional[int] = None  # default: number of chronic diseases
    use_counterfactual: bool = True
    seed: int = 43

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range hyperparameters."""
        if self.drug_embedding_mode not in DRUG_EMBEDDING_MODES:
            raise ValueError(
                f"drug_embedding_mode must be one of {DRUG_EMBEDDING_MODES}, "
                f"got {self.drug_embedding_mode!r}"
            )
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if not 0.0 < self.gamma_quantile < 1.0:
            raise ValueError("gamma_quantile must be in (0, 1)")


@dataclass
class MSConfig(_SerializableConfig):
    """MS-module hyperparameters (Sec. IV-C)."""

    alpha: float = 0.5  # SS balance (Eq. 19)
    size_budget: int = 60  # bulk-growth cap in Algorithm 1

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range hyperparameters."""
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.size_budget < 1:
            raise ValueError("size_budget must be >= 1")


@dataclass
class ServingConfig(_SerializableConfig):
    """Serving-time knobs for :class:`repro.serving.SuggestionService`.

    Attributes:
        default_k: suggestion size used when a request omits ``k``.
        rerank: route suggestions through the DDI-aware greedy re-ranker
            (:func:`repro.core.rerank_topk`) instead of plain score top-k.
        synergy_bonus / antagonism_penalty / hard_exclude: the re-ranker
            knobs, mirroring :class:`repro.core.RerankConfig`.
    """

    default_k: int = 3
    rerank: bool = False
    synergy_bonus: float = 0.05
    antagonism_penalty: float = 0.2
    hard_exclude: bool = False

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range serving knobs."""
        if self.default_k < 1:
            raise ValueError("default_k must be >= 1")
        if self.synergy_bonus < 0 or self.antagonism_penalty < 0:
            raise ValueError("bonus and penalty must be non-negative")


@dataclass
class ServerConfig(_SerializableConfig):
    """Deployment knobs for the online gateway (:mod:`repro.server`).

    Unlike :class:`ServingConfig` (which travels inside the model
    artifact — it describes *how to score*), this config describes one
    *deployment*: where to listen, how aggressively to micro-batch, which
    artifact version to pin, and how much telemetry to keep.  It is
    therefore not part of :class:`DSSDDIConfig` and never enters the
    artifact manifest; ``repro-serve`` builds it from command-line flags.

    Attributes:
        host / port: HTTP listen address of the gateway.
        max_batch_size: most patient rows one micro-batch flush takes
            from the queue (1 disables coalescing: every request is
            scored on its own).  The flusher never waits for a batch to
            fill: it flushes whenever it is free and a request is queued.
        max_request_rows: per-request cap on patient rows (request
            validation; protects the batcher from one giant request).
        submit_timeout_s: how long a request waits for its batch result
            before the gateway answers 503.
        pinned_version: serve exactly this registry version instead of
            the latest one (hot-swap via reload still honors the pin).
        watch_interval_s: poll the artifact root for new versions this
            often and hot-swap automatically (0 disables the watcher;
            POST /-/reload always works).
        workers: pre-fork worker process count (:mod:`repro.server.pool`).
            Each worker serves the shared listening socket with its own
            batcher/registry; 1 keeps the single-process gateway.
        mmap_artifacts: ``None`` = auto (memory-map artifacts exactly
            when running as a pool worker); ``True``/``False`` force it.
        drain_timeout_s: on SIGTERM, how long a worker waits for
            in-flight requests to finish before exiting anyway.
        stats_interval_s: how often each pool worker publishes its
            counter snapshot to the shared stats board (``/metrics``
            aggregation across workers).
        deadline_ms: per-request time budget covering queue wait plus
            scoring.  A request whose budget runs out is answered 503
            with a ``Retry-After`` hint instead of holding a connection
            open for work whose caller has given up (0 disables; a
            request body may lower — never raise — its own budget).
        queue_limit: admission control — when this many patient rows
            are already queued in the micro-batcher, new requests are
            shed with 503 instead of growing the queue without bound
            (0 = unbounded, the pre-deadline behavior).
        breaker_threshold: consecutive scoring failures that trip the
            circuit breaker into degraded mode (0 disables the
            breaker).
        breaker_cooldown_s: seconds the tripped breaker rejects
            requests before letting one probe through.
        trace_sample: fraction of requests traced by :mod:`repro.obs`
            (0.0 disables unsolicited tracing — requests carrying an
            ``X-Repro-Trace`` header are always traced; 1.0 traces
            everything).
        trace_ring: finished spans kept in the in-memory ring served by
            ``GET /v1/trace`` (per process).
        trace_log: optional JSONL file every finished span is appended
            to (size-rotated; see :class:`repro.obs.JsonlSink`).
    """

    host: str = "127.0.0.1"
    port: int = 8035
    max_batch_size: int = 32
    # Not a field, a flag or serialized: scoring has one shape rule and
    # no block option.  ``perfbench/run.py`` still reads this value and
    # assigns it to its ``ServingConfig``, where it changes nothing.
    score_block: ClassVar[int] = 8
    max_request_rows: int = 256
    submit_timeout_s: float = 30.0
    pinned_version: Optional[str] = None
    watch_interval_s: float = 0.0
    workers: int = 1
    mmap_artifacts: Optional[bool] = None
    drain_timeout_s: float = 10.0
    stats_interval_s: float = 1.0
    deadline_ms: float = 0.0
    queue_limit: int = 0
    breaker_threshold: int = 0
    breaker_cooldown_s: float = 2.0
    trace_sample: float = 0.0
    trace_ring: int = 512
    trace_log: Optional[str] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range gateway knobs."""
        if not 0 <= self.port < 65536:
            raise ValueError("port must be in [0, 65536) (0 = ephemeral)")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_request_rows < 1:
            raise ValueError("max_request_rows must be >= 1")
        if self.submit_timeout_s <= 0:
            raise ValueError("submit_timeout_s must be > 0")
        if self.watch_interval_s < 0:
            raise ValueError("watch_interval_s must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be > 0")
        if self.stats_interval_s <= 0:
            raise ValueError("stats_interval_s must be > 0")
        if self.deadline_ms < 0:
            raise ValueError("deadline_ms must be >= 0 (0 = no deadline)")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0 (0 = unbounded)")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0 (0 = off)")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be > 0")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        if self.trace_ring < 1:
            raise ValueError("trace_ring must be >= 1")


def _drop_retired(section: str, data: Dict[str, Any]) -> Dict[str, Any]:
    """``data`` without the keys that configs saved by older builds carry.

    ``propagation_backend`` (``ddi`` and ``md``) once forced a dense or
    CSR representation; the density rule of :mod:`repro.nn.sparse` now
    decides alone, so only ``"auto"`` loads.  Any other value is refused,
    because loading it under the density rule could change the bits of
    the fit it describes.  ``score_chunk_rows`` (``md``) never changed
    a score and is dropped whatever its value, and so is ``score_block``
    (``serving``): every patient now scores bitwise the same in any
    batch, which is what its fixed-shape blocks bought.  Neither does
    ``explanation_cache_size`` (``serving``): the MS module owns the one
    explanation cache, at a fixed capacity.
    """
    if section == "serving":
        retired = ("score_block", "explanation_cache_size")
        return {k: v for k, v in data.items() if k not in retired}
    if section not in ("ddi", "md"):
        return data
    data = dict(data)
    backend = data.pop("propagation_backend", "auto")
    if backend != "auto":
        raise ValueError(
            f"{section}.propagation_backend={backend!r} is no longer supported: "
            f"the density rule of repro.nn.sparse picks every representation"
        )
    data.pop("score_chunk_rows", None)
    return data


@dataclass
class DSSDDIConfig:
    """Top-level configuration bundling the three modules plus serving.

    Serializes to/from plain JSON via :meth:`to_dict` / :meth:`from_dict`;
    the serving artifact stores this dict verbatim so a loaded system runs
    under the exact configuration it was trained with.
    """

    ddi: DDIGCNConfig = field(default_factory=DDIGCNConfig)
    md: MDGCNConfig = field(default_factory=MDGCNConfig)
    ms: MSConfig = field(default_factory=MSConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)

    def validate(self) -> None:
        """Validate all four sections."""
        self.ddi.validate()
        self.md.validate()
        self.ms.validate()
        self.serving.validate()

    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-JSON representation of all four sections."""
        return {
            "ddi": self.ddi.to_dict(),
            "md": self.md.to_dict(),
            "ms": self.ms.to_dict(),
            "serving": self.serving.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DSSDDIConfig":
        """Rebuild from :meth:`to_dict` output.

        The ``serving`` section is optional so artifacts written before it
        existed keep loading with default serving knobs.  Retired keys of
        older configs are handled by :func:`_drop_retired`.
        """
        known = {"ddi", "md", "ms", "serving"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown DSSDDIConfig sections: {sorted(unknown)}")
        return cls(
            ddi=DDIGCNConfig.from_dict(_drop_retired("ddi", data.get("ddi", {}))),
            md=MDGCNConfig.from_dict(_drop_retired("md", data.get("md", {}))),
            ms=MSConfig.from_dict(data.get("ms", {})),
            serving=ServingConfig.from_dict(
                _drop_retired("serving", data.get("serving", {}))
            ),
        )

    @classmethod
    def fast(cls, backbone: str = "sgcn") -> "DSSDDIConfig":
        """Small epoch counts for tests and quick experiments."""
        return cls(
            ddi=DDIGCNConfig(backbone=backbone, epochs=60, hidden_dim=32),
            md=MDGCNConfig(epochs=120, hidden_dim=32),
        )
