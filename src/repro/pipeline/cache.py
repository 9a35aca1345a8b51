"""Disk artifact cache for pipeline stages.

Layout (everything under one root, default ``.repro_cache``)::

    <root>/stages/<key>/meta.json     # stage name, serializer, digest, ...
    <root>/stages/<key>/<payload>     # serializer-specific files
    <root>/runs/<run_id>.json         # run manifests (see manifest.py)

``<key>`` is the content hash produced by :func:`stage_key`: sha256 over
the canonical JSON of the stage name, its version, its resolved parameter
values and the keys of its inputs.  Because input keys recurse, a key is
a Merkle root — changing the scale changes the cohort stage's key, which
changes every downstream fit/score/metric key, while stages that declare
``params=()`` (e.g. the scale-independent Fig. 3 catalog count) keep one
shared entry.

Serializers (chosen per stage in :class:`repro.pipeline.StageSpec`):

* ``dssddi`` — a fitted :class:`repro.core.DSSDDI`, stored through the
  serving artifact format of PR 1 (:mod:`repro.serving.artifact`), so a
  cached fit reloads with bitwise-identical ``predict_scores``.
* ``npz`` — a ``dict[str, np.ndarray]`` (method name -> score matrix);
  arbitrary dict keys are preserved through a ``keys.json`` sidecar
  because npz entry names cannot contain ``/``.
* ``json`` — any plain-JSON value.
* ``pickle`` — the fallback for result dataclasses.

Writes are atomic and durable (temp directory + per-file fsync +
``os.replace`` — the :mod:`repro.atomicio` idiom, instrumented with
``cache.store.*`` :mod:`repro.chaos` failpoints), so concurrent workers
racing on the same key at worst do duplicate work, never leave a
half-written entry, and a process killed mid-store leaves only a
dot-prefixed orphan that the next store sweeps away.  Deletion
(``clear``/``prune``) renames entries to a dot-prefixed trash name
before removing them, so a concurrent reader sees every entry either
complete or absent — never half-deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import atomicio, chaos
from .registry import StageSpec

PathLike = Union[str, Path]

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default cache root (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

META_NAME = "meta.json"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``./.repro_cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def stage_key(
    spec: StageSpec, params: Mapping[str, Any], input_keys: Sequence[str]
) -> str:
    """Content-hashed cache key for one stage invocation.

    ``params`` maps each declared parameter name to its resolved value
    (e.g. the full ``Scale`` field dict, not just the preset name, so
    editing a preset invalidates dependents); ``input_keys`` are the keys
    of the stage's inputs in declared order.
    """
    payload = canonical_json(
        {
            "stage": spec.name,
            "version": spec.version,
            "params": {name: params[name] for name in spec.params},
            "inputs": list(input_keys),
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


# ----------------------------------------------------------------------
# Serializers
# ----------------------------------------------------------------------
_NPZ_NAME = "data.npz"
_NPZ_KEYS_NAME = "keys.json"
_JSON_NAME = "data.json"
_PICKLE_NAME = "data.pkl"
_DSSDDI_NAME = "artifact"


def _save_dssddi(value: Any, directory: Path) -> None:
    from ..serving.artifact import save_artifact

    save_artifact(value, directory / _DSSDDI_NAME)


def _load_dssddi(directory: Path) -> Any:
    from ..serving.artifact import load_system

    return load_system(directory / _DSSDDI_NAME)


def _save_npz(value: Any, directory: Path) -> None:
    if not isinstance(value, Mapping):
        raise TypeError(f"npz serializer needs a dict of arrays, got {type(value)!r}")
    keys = list(value)  # insertion order is display order downstream
    safe = {f"a{i}": np.asarray(value[k]) for i, k in enumerate(keys)}
    np.savez(directory / _NPZ_NAME, **safe)  # lint: staged-write
    with open(directory / _NPZ_KEYS_NAME, "w", encoding="utf-8") as fh:  # lint: staged-write
        json.dump(keys, fh)


def _load_npz(directory: Path) -> Dict[str, np.ndarray]:
    with open(directory / _NPZ_KEYS_NAME, "r", encoding="utf-8") as fh:
        keys = json.load(fh)
    with np.load(directory / _NPZ_NAME) as loaded:
        return {k: loaded[f"a{i}"] for i, k in enumerate(keys)}


def _save_json(value: Any, directory: Path) -> None:
    with open(directory / _JSON_NAME, "w", encoding="utf-8") as fh:  # lint: staged-write
        json.dump(value, fh, indent=2, sort_keys=True)


def _load_json(directory: Path) -> Any:
    with open(directory / _JSON_NAME, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _save_pickle(value: Any, directory: Path) -> None:
    with open(directory / _PICKLE_NAME, "wb") as fh:  # lint: staged-write
        pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _load_pickle(directory: Path) -> Any:
    with open(directory / _PICKLE_NAME, "rb") as fh:
        return pickle.load(fh)


_SERIALIZERS = {
    "dssddi": (_save_dssddi, _load_dssddi),
    "npz": (_save_npz, _load_npz),
    "json": (_save_json, _load_json),
    "pickle": (_save_pickle, _load_pickle),
}


def _digest_dir(directory: Path) -> str:
    """sha256 over every payload file (sorted relative path + bytes)."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name != META_NAME:
            h.update(str(path.relative_to(directory)).encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()


class CacheIntegrityError(RuntimeError):
    """A cache entry's payload no longer matches its recorded digest."""


@dataclass
class CacheEntry:
    """Metadata of one materialized cache entry (from ``meta.json``)."""

    key: str
    stage: str
    serializer: str
    digest: str
    created_at: float
    size_bytes: int


class StageCache:
    """Content-addressed store of stage outputs under one root directory."""

    def __init__(self, root: Optional[PathLike] = None) -> None:
        """``root`` defaults to :func:`default_cache_dir`."""
        self.root = Path(root) if root is not None else default_cache_dir()

    @property
    def stages_dir(self) -> Path:
        """Directory holding one subdirectory per cached stage output."""
        return self.root / "stages"

    def _entry_dir(self, key: str) -> Path:
        return self.stages_dir / key

    def contains(self, key: str) -> bool:
        """Whether a complete entry for ``key`` is on disk."""
        return (self._entry_dir(key) / META_NAME).is_file()

    def load(self, key: str, verify: bool = False) -> Tuple[Any, CacheEntry]:
        """Deserialize the entry for ``key`` (raises ``KeyError`` if absent).

        ``verify=True`` re-hashes the payload files and compares against
        the digest recorded at store time, raising
        :class:`CacheIntegrityError` on mismatch — the defense against a
        torn or bit-rotted entry written by a pre-atomic-write version
        (or a failing disk).  An entry that vanishes mid-load (a
        concurrent ``prune``/``clear`` renamed it away) raises
        ``KeyError``, the same as never having existed — callers already
        handle a miss by recomputing.
        """
        entry_dir = self._entry_dir(key)
        meta_path = entry_dir / META_NAME
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except FileNotFoundError:
            raise KeyError(f"no cache entry for key {key!r}") from None
        if verify:
            try:
                actual = _digest_dir(entry_dir)
            except FileNotFoundError:
                # A listed payload file vanished before it could be read:
                # the entry was renamed away (prune/clear) mid-digest.
                raise KeyError(f"cache entry {key!r} removed mid-load") from None
            if actual != meta["digest"]:
                if not meta_path.is_file():
                    # The entry was renamed away (prune/clear) between
                    # the meta read and the digest pass: that is a clean
                    # miss, not corruption.
                    raise KeyError(f"cache entry {key!r} removed mid-load")
                raise CacheIntegrityError(
                    f"cache entry {key!r} is corrupt: digest {actual[:12]} != "
                    f"recorded {meta['digest'][:12]}"
                )
        _, load = _SERIALIZERS[meta["serializer"]]
        try:
            value = load(entry_dir)
        except FileNotFoundError:
            raise KeyError(f"cache entry {key!r} removed mid-load") from None
        return value, CacheEntry(
            key=key,
            stage=meta["stage"],
            serializer=meta["serializer"],
            digest=meta["digest"],
            created_at=meta["created_at"],
            size_bytes=meta["size_bytes"],
        )

    def store(self, key: str, stage_name: str, serializer: str, value: Any) -> CacheEntry:
        """Serialize ``value`` under ``key`` atomically; returns its metadata.

        A concurrent writer that lands first wins; the loser's temp
        directory replaces nothing and is discarded.
        """
        if serializer not in _SERIALIZERS:
            raise ValueError(f"unknown serializer {serializer!r}")
        save, _ = _SERIALIZERS[serializer]
        self.stages_dir.mkdir(parents=True, exist_ok=True)
        # Reclaim temp/trash orphans a killed predecessor left behind —
        # the startup-sweep half of the atomic-write idiom.  The pid tag
        # keeps a concurrent writer's (``repro run --jobs``) in-flight
        # temp out of the sweep.  Store runs only on cache misses, so
        # the extra globs are off the hot path.
        atomicio.sweep_orphans(self.stages_dir)
        tmp = Path(
            tempfile.mkdtemp(
                prefix=f".tmp-{key[:8]}-{atomicio.pid_tag()}-", dir=self.stages_dir
            )
        )
        try:
            chaos.failpoint("cache.store.setup")
            save(value, tmp)
            chaos.failpoint("cache.store.payload")
            digest = _digest_dir(tmp)
            size = sum(p.stat().st_size for p in tmp.rglob("*") if p.is_file())
            meta = {
                "stage": stage_name,
                "serializer": serializer,
                "digest": digest,
                "created_at": time.time(),
                "size_bytes": size,
            }
            with open(tmp / META_NAME, "w", encoding="utf-8") as fh:  # lint: staged-write
                json.dump(meta, fh, indent=2)
            # Durability before visibility: the rename must never
            # publish bytes still sitting only in the page cache.
            if chaos.fsync_enabled("cache.store.fsync"):
                atomicio.fsync_tree(tmp)
            final = self._entry_dir(key)
            chaos.failpoint("cache.store.rename")
            try:
                os.replace(tmp, final)
            except OSError:
                if not (final / META_NAME).is_file():
                    # Not an existing entry: a real write failure (parent
                    # removed, stray file, permissions) — surface it rather
                    # than reporting a store that is not on disk.
                    shutil.rmtree(tmp, ignore_errors=True)
                    raise
                # A complete entry already exists — a racing writer's
                # equivalent payload, or a stale entry being refreshed
                # under --force.  Replace it (rename-to-trash first, so a
                # concurrent reader never sees a half-deleted entry) and
                # return metadata describing what is actually on disk.
                atomicio.remove_dir(final)
                try:
                    os.replace(tmp, final)
                except OSError:
                    shutil.rmtree(tmp, ignore_errors=True)
                    raise
            chaos.failpoint("cache.store.after")
            atomicio.fsync_dir(self.stages_dir)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return CacheEntry(
            key=key,
            stage=stage_name,
            serializer=serializer,
            digest=digest,
            created_at=meta["created_at"],
            size_bytes=size,
        )

    def entries(self) -> List[CacheEntry]:
        """Metadata of every complete entry, newest first."""
        result: List[CacheEntry] = []
        if not self.stages_dir.is_dir():
            return result
        for entry_dir in sorted(self.stages_dir.iterdir()):
            # Dot-prefixed siblings are in-flight temps or trash staged
            # for deletion — they may hold a complete-looking payload
            # (including a meta.json) but are not committed entries.
            if entry_dir.name.startswith("."):
                continue
            meta_path = entry_dir / META_NAME
            try:
                with open(meta_path, "r", encoding="utf-8") as fh:
                    meta = json.load(fh)
            except (FileNotFoundError, ValueError):
                continue  # incomplete or vanishing entry: not listable
            result.append(
                CacheEntry(
                    key=entry_dir.name,
                    stage=meta["stage"],
                    serializer=meta["serializer"],
                    digest=meta["digest"],
                    created_at=meta["created_at"],
                    size_bytes=meta["size_bytes"],
                )
            )
        result.sort(key=lambda e: -e.created_at)
        return result

    @property
    def checkpoints_dir(self) -> Path:
        """Training-checkpoint root (one subdirectory per stage key).

        Written by checkpointed training stages (``repro run ...
        --checkpoint-every N``); cleared together with the stage outputs.
        """
        return self.root / "checkpoints"

    def clear(self) -> int:
        """Delete every cached stage output (and training checkpoint);
        returns the count of stage entries removed.

        Deletion is rename-to-trash then remove
        (:func:`repro.atomicio.remove_dir`): a reader racing this call
        sees each entry either complete or absent — never a directory
        whose ``meta.json`` still exists but whose payload is already
        gone, which a later ``contains``/``load`` would treat as a hit
        and then crash on.
        """
        count = 0
        if self.stages_dir.is_dir():
            for entry_dir in self.stages_dir.iterdir():
                if entry_dir.is_dir() and not entry_dir.name.startswith("."):
                    if atomicio.remove_dir(entry_dir):
                        count += 1
            atomicio.sweep_orphans(self.stages_dir)
        shutil.rmtree(self.checkpoints_dir, ignore_errors=True)
        return count

    def prune(self, keep_last: int) -> List[CacheEntry]:
        """Keep the ``keep_last`` newest entries per stage; drop the rest.

        "Per stage" because entries of the *same* stage are superseded
        versions (older scales/code revisions) while different stages
        are unrelated artifacts — pruning globally would let one noisy
        stage evict every other stage's only entry.  A removed entry's
        training checkpoints (``checkpoints/<key>``, same content key)
        go with it; checkpoints of keys with *no* cache entry are kept —
        they belong to interrupted fits that have not completed yet and
        are exactly what resume needs.  Returns the removed entries'
        metadata (newest first, like :meth:`entries`).
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        kept_per_stage: Dict[str, int] = {}
        removed: List[CacheEntry] = []
        for entry in self.entries():  # newest first
            kept = kept_per_stage.get(entry.stage, 0)
            if kept < keep_last:
                kept_per_stage[entry.stage] = kept + 1
                continue
            # Rename-to-trash first (see clear): a concurrent reader of
            # this entry gets a clean miss, never a half-deleted hit.
            atomicio.remove_dir(self._entry_dir(entry.key))
            shutil.rmtree(self.checkpoints_dir / entry.key, ignore_errors=True)
            removed.append(entry)
        if removed:
            atomicio.sweep_orphans(self.stages_dir)
        return removed
