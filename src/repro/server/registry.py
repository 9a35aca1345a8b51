"""Versioned model registry: publish, scan, pin, hot-swap, prune.

An *artifact root* is a directory whose immediate subdirectories are
PR-1-format model artifacts (``manifest.json`` + ``arrays.npz``), one per
published version::

    models/
      v0001-1f0f2a9c/     # publish_artifact names: v<seq>-<digest8>
      v0002-8e77b012/
      current -> ...      # (no symlinks: the registry picks by name)

:func:`publish_artifact` writes a fitted system (or copies an existing
artifact directory) into the root atomically — serialize into a temp
directory, then one ``os.replace`` — so a gateway watching the root never
observes a half-written version.  Publishing content that is
byte-identical to an existing version is a no-op returning the existing
version, which makes re-running a pipeline publish stage idempotent.

:class:`ModelRegistry` serves the *latest* version (max by name, i.e.
publication order) or a pinned one, as a :class:`ServingHandle` bundling
the loaded :class:`repro.serving.SuggestionService` with its version
metadata.  Hot-swap is an atomic reference swap: in-flight requests keep
the handle they resolved, new requests see the new one, nothing is ever
torn down under a request — zero dropped requests by construction.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .. import atomicio, chaos
from ..serving.artifact import ARRAYS_NAME, MANIFEST_NAME, save_artifact
from ..serving.service import SuggestionService

PathLike = Union[str, Path]


class NoModelError(RuntimeError):
    """Raised when the registry has no loadable version to serve."""


@dataclass(frozen=True)
class ModelVersion:
    """One published version found in the artifact root.

    Attributes:
        name: directory name, ``v<seq>-<digest8>`` for published
            versions (sorting by name sorts by publication order).
        path: artifact directory.
        digest: sha256 over the artifact payload files.
        created_at: directory mtime (seconds since epoch).
    """

    name: str
    path: Path
    digest: str
    created_at: float


@dataclass(frozen=True)
class ServingHandle:
    """An immutable (version, loaded service) pair handed to requests.

    Requests resolve a handle once and use it for their whole lifetime;
    the registry swaps its *reference* on reload, never the handle's
    contents, which is what makes hot-swap drop-free.
    """

    version: ModelVersion
    service: SuggestionService


#: Memoized digests keyed by (path, per-file mtime_ns + size).  Version
#: directories are immutable (atomic rename, never edited in place), so
#: a stat-stable artifact need not be re-read — /healthz and the file
#: watcher call scan_versions frequently, and hashing every version's
#: arrays.npz on each poll would be O(registry size) I/O per probe.
_DIGEST_CACHE: dict = {}
_DIGEST_CACHE_MAX = 256


def artifact_digest(path: PathLike) -> str:
    """sha256 over the artifact's payload files (manifest + arrays).

    Memoized on the files' (mtime_ns, size): artifact directories are
    write-once, so a matching stat means the cached digest is current.
    """
    path = Path(path)
    stats = []
    for name in (MANIFEST_NAME, ARRAYS_NAME):
        stat = (path / name).stat()
        stats.append((name, stat.st_mtime_ns, stat.st_size))
    key = (str(path), tuple(stats))
    cached = _DIGEST_CACHE.get(key)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for name in (MANIFEST_NAME, ARRAYS_NAME):
        h.update(name.encode("utf-8"))
        h.update((path / name).read_bytes())
    digest = h.hexdigest()
    if len(_DIGEST_CACHE) >= _DIGEST_CACHE_MAX:
        _DIGEST_CACHE.clear()  # tiny entries; wholesale reset is fine
    _DIGEST_CACHE[key] = digest
    return digest


def is_artifact_dir(path: PathLike) -> bool:
    """Whether ``path`` holds a complete PR-1-format artifact."""
    path = Path(path)
    return (path / MANIFEST_NAME).is_file() and (path / ARRAYS_NAME).is_file()


def _version_entry(path: Path) -> ModelVersion:
    return ModelVersion(
        name=path.name,
        path=path,
        digest=artifact_digest(path),
        created_at=path.stat().st_mtime,
    )


def scan_versions(root: PathLike) -> List[ModelVersion]:
    """Complete versions under ``root``, sorted by name (oldest first).

    A root that is itself a single artifact directory is reported as one
    pseudo-version named after the directory, so ``repro-serve
    path/to/model`` works without a publish step.
    """
    root = Path(root)
    if is_artifact_dir(root):
        try:
            return [_version_entry(root)]
        except OSError:
            return []
    if not root.is_dir():
        return []
    versions: List[ModelVersion] = []
    for child in root.iterdir():
        # Dot-prefixed directories are in-flight publishes (the temp
        # dir before its atomic rename) — never versions.
        if not child.is_dir() or child.name.startswith("."):
            continue
        if not is_artifact_dir(child):
            continue
        try:
            versions.append(_version_entry(child))
        except OSError:
            # The directory raced us: a non-atomic publisher still
            # filling it in, or a pruner removing it between our
            # existence check and the stat/read inside _version_entry.
            # Skip it this scan — the next poll sees the settled state.
            continue
    versions.sort(key=lambda v: v.name)
    return versions


def _resolve_artifact_source(source: Path) -> Path:
    """Map a publish source path to the artifact directory inside it.

    Accepts, in order of specificity:

    * an artifact directory itself (``manifest.json`` + ``arrays.npz``);
    * a single :class:`repro.train.TrainState` checkpoint whose atomic
      write embedded a servable snapshot (``<ckpt>/artifact``);
    * a checkpoint *root* written by the :class:`repro.train.Checkpoint`
      callback (``epoch-*/`` subdirectories) — resolves to the newest
      checkpoint's snapshot, i.e. the best-so-far model of a running
      (or killed) fit.
    """
    if is_artifact_dir(source):
        return source
    if is_artifact_dir(source / "artifact"):
        return source / "artifact"
    from ..train import latest_checkpoint

    newest = latest_checkpoint(source)
    if newest is not None and is_artifact_dir(newest / "artifact"):
        return newest / "artifact"
    return source


def publish_artifact(
    system_or_path,
    root: PathLike,
    reuse_identical: bool = True,
) -> ModelVersion:
    """Publish a fitted system (or copy an artifact dir) into ``root``.

    ``system_or_path`` may be a fitted :class:`repro.core.DSSDDI`, an
    artifact directory, or a training checkpoint (a single
    ``TrainState`` checkpoint directory, or the checkpoint root of a
    still-running/killed fit — see :func:`_resolve_artifact_source`), in
    which case the newest embedded servable snapshot is published: the
    registry serves the best-so-far model without waiting for the fit to
    finish.

    Serializes into a temp directory inside ``root`` and promotes it with
    one atomic ``os.replace`` under ``v<seq>-<digest8>``.  When
    ``reuse_identical`` is set (default) and some existing version already
    has the same payload digest, that version is returned unchanged —
    publishing is idempotent.  Pass ``reuse_identical=False`` to force a
    new version directory even for identical content (used by the
    hot-swap tests to swap between byte-identical artifacts).

    Concurrent publishers are safe: the sequence number counts every
    ``v<seq>-…`` directory name (complete or not), and a lost
    ``os.replace`` race re-scans and claims the next slot instead of
    failing — at worst two same-instant publishers of different content
    get adjacent (or digest-tiebroken same-seq) names, never a crash or
    a half-written version.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".publish-", dir=root))
    try:
        chaos.failpoint("registry.publish.setup")
        if isinstance(system_or_path, (str, Path)):
            source = _resolve_artifact_source(Path(system_or_path))
            if not is_artifact_dir(source):
                raise FileNotFoundError(
                    f"no artifact (or servable checkpoint) at {system_or_path}"
                )
            for name in (MANIFEST_NAME, ARRAYS_NAME):
                shutil.copy2(source / name, tmp / name)
        else:
            save_artifact(system_or_path, tmp)
        chaos.failpoint("registry.publish.payload")
        # A version must be durable before it is visible: a gateway that
        # hot-swaps onto it assumes the bytes survive a power cut.
        if chaos.fsync_enabled("registry.publish.fsync"):
            atomicio.fsync_tree(tmp)
        digest = artifact_digest(tmp)
        for _attempt in range(100):
            if reuse_identical:
                for version in scan_versions(root):
                    if version.digest == digest:
                        shutil.rmtree(tmp, ignore_errors=True)
                        return version
            # Claim the next free sequence number.  Counting *names*
            # (not just complete artifacts) means a conflicting or
            # junk-filled v<seq> directory is stepped over, not fought.
            seq = 1 + max(
                (
                    int(child.name[1:5])
                    for child in root.iterdir()
                    if child.is_dir() and _is_published_name(child.name)
                ),
                default=0,
            )
            final = root / f"v{seq:04d}-{digest[:8]}"
            chaos.failpoint("registry.publish.rename")
            try:
                os.replace(tmp, final)
            except OSError:
                # Lost the race: someone promoted into `final` between
                # our scan and our rename.  If their content matches
                # ours the publish already happened; otherwise rescan
                # and claim the next slot.
                if is_artifact_dir(final) and artifact_digest(final) == digest:
                    shutil.rmtree(tmp, ignore_errors=True)
                    return _version_entry(final)
                continue
            chaos.failpoint("registry.publish.after")
            atomicio.fsync_dir(root)
            return _version_entry(final)
        raise RuntimeError(
            f"could not claim a version slot under {root} after 100 attempts"
        )
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _is_published_name(name: str) -> bool:
    return (
        len(name) >= 5
        and name.startswith("v")
        and name[1:5].isdigit()
    )


def prune_versions(root: PathLike, keep_last: int) -> List[str]:
    """Delete all but the newest ``keep_last`` published versions.

    Only ``v<seq>-...`` directories participate; a pseudo-version root
    (a bare artifact dir) is never pruned.  Returns the removed names.
    """
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    versions = [
        v for v in scan_versions(root) if _is_published_name(v.name)
    ]
    removed: List[str] = []
    for version in versions[: max(0, len(versions) - keep_last)]:
        # Rename-to-trash first: a registry mid-load on this version
        # sees it fully there or fully gone, never half-deleted.
        atomicio.remove_dir(version.path)
        removed.append(version.name)
    return removed


class ModelRegistry:
    """Serve a pinned-or-latest artifact version with atomic hot-swap.

    Args:
        root: artifact root (or a single artifact directory).
        pinned_version: serve exactly this version name; ``None`` serves
            the latest.
        mmap_mode: ``"r"`` memory-maps artifact arrays on load instead
            of copying them (``None`` = copy).  The pre-fork worker pool
            sets ``"r"`` so N workers share one physical copy of the
            weights through the page cache.

    Usage::

        registry = ModelRegistry("models/")
        registry.reload()                    # load pinned-or-latest
        handle = registry.active()           # per-request resolution
        handle.service.suggest(features)
        registry.reload()                    # hot-swap if a new version landed
    """

    def __init__(
        self,
        root: PathLike,
        pinned_version: Optional[str] = None,
        mmap_mode: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.pinned_version = pinned_version
        self.mmap_mode = mmap_mode
        self._swap_lock = threading.Lock()
        self._active: Optional[ServingHandle] = None
        self.swaps = 0
        self.reload_errors = 0
        #: ``"name@digest8" -> reason`` for versions that failed to load
        #: (corrupt arrays, integrity mismatch, unreadable manifest).
        #: Quarantined versions are never retried — keying on content
        #: digest means a *republished* (fixed) version under the same
        #: name gets a fresh chance, while the broken bytes stay dead.
        #: Entries whose content vanishes from disk are pruned on the
        #: next :meth:`reload`, so the dict stays bounded.
        self.quarantined: Dict[str, str] = {}
        #: Optional observer called as ``trace_events(name, fields)``
        #: on swap and quarantine.  The gateway wires this to its
        #: tracer so registry lifecycle shows up as instant spans;
        #: observer errors are swallowed — telemetry must never block
        #: a hot-swap.
        self.trace_events: Optional[Callable[[str, Dict[str, Any]], None]] = None

    def _emit_event(self, name: str, fields: Dict[str, Any]) -> None:
        observer = self.trace_events
        if observer is None:
            return
        try:
            observer(name, fields)
        except Exception:
            pass

    # ------------------------------------------------------------------
    def versions(self) -> List[ModelVersion]:
        """Scan the artifact root (oldest first)."""
        return scan_versions(self.root)

    def active(self) -> ServingHandle:
        """The currently served handle (raises :class:`NoModelError`)."""
        handle = self._active
        if handle is None:
            raise NoModelError("registry has not loaded a model yet")
        return handle

    @property
    def has_model(self) -> bool:
        """Whether a version is currently loaded and servable."""
        return self._active is not None

    @staticmethod
    def _quarantine_key(version: ModelVersion) -> str:
        return f"{version.name}@{version.digest[:8]}"

    def _candidate_versions(self, versions: List[ModelVersion]) -> List[ModelVersion]:
        """Versions to try serving, best first (raises NoModelError)."""
        if not versions:
            raise NoModelError(f"no model versions under {self.root}")
        if self.pinned_version is not None:
            for version in versions:
                if version.name == self.pinned_version:
                    # Pinning means exactly this version: no fallback.
                    return [version]
            raise NoModelError(
                f"pinned version {self.pinned_version!r} not found under "
                f"{self.root} (have: {[v.name for v in versions]})"
            )
        return list(reversed(versions))  # newest first

    def reload(self) -> Tuple[bool, ModelVersion]:
        """Load the best servable version if it differs from the active one.

        Returns ``(swapped, version)`` where ``version`` is what is being
        served after the call.  The expensive load happens outside any
        request path; the swap itself is a single reference assignment,
        so concurrent requests either keep the old handle or get the new
        one — never a broken in-between.

        A version that fails to load — corrupt ``arrays.npz``, an
        :class:`~repro.serving.artifact.ArtifactIntegrityError` digest
        mismatch, an unreadable manifest — is **quarantined** (recorded
        in :attr:`quarantined`, never retried for the same content) and
        the registry falls back to the next-newest loadable version.
        When nothing newer loads, the active handle keeps serving
        (last-known-good); :class:`NoModelError` is raised only when
        there is no active handle *and* no loadable version.  Every
        failed load attempt counts in ``reload_errors``.
        """
        with self._swap_lock:
            current = self._active
            try:
                versions = self.versions()
                candidates = self._candidate_versions(versions)
            except BaseException:
                self.reload_errors += 1
                raise
            # Quarantine tracks *present* broken versions only: entries
            # whose (name, digest) no longer exist on disk — pruned
            # versions, or torn snapshots of a non-atomic publisher that
            # has since finished writing — are dropped, so the dict (and
            # the /healthz report) stays bounded by the registry size.
            live = {self._quarantine_key(v) for v in versions}
            for key in [k for k in self.quarantined if k not in live]:
                del self.quarantined[key]
            for target in candidates:
                key = self._quarantine_key(target)
                if key in self.quarantined:
                    continue
                if (
                    current is not None
                    and current.version.name == target.name
                    and current.version.digest == target.digest
                ):
                    return False, current.version
                try:
                    service = SuggestionService.load(
                        target.path, mmap_mode=self.mmap_mode
                    )
                except Exception as exc:
                    self.reload_errors += 1
                    self.quarantined[key] = f"{type(exc).__name__}: {exc}"
                    self._emit_event(
                        "registry.quarantine",
                        {"version": key, "reason": self.quarantined[key]},
                    )
                    continue
                self._active = ServingHandle(version=target, service=service)
                self.swaps += 1
                self._emit_event(
                    "registry.swap",
                    {
                        "version": target.name,
                        "digest": target.digest[:8],
                        "previous": (
                            current.version.name if current is not None else None
                        ),
                    },
                )
                return True, target
            if current is not None:
                # Everything newer is quarantined: keep last-known-good.
                return False, current.version
            self.reload_errors += 1
            raise NoModelError(
                f"no loadable model versions under {self.root} "
                f"({len(self.quarantined)} quarantined: "
                f"{sorted(self.quarantined)})"
            )

    def maybe_reload(self) -> bool:
        """Best-effort :meth:`reload` for the file watcher (no raise).

        Failures are already counted by :meth:`reload` itself.
        """
        try:
            swapped, _ = self.reload()
            return swapped
        except Exception:
            return False

    def prune(self, keep_last: int) -> List[str]:
        """Prune old published versions, never the active one.

        Keeps the newest ``keep_last`` versions plus whatever is
        currently active (relevant when serving a pinned old version);
        returns the removed names.
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        active = self._active.version.name if self._active else None
        versions = [
            v for v in self.versions() if _is_published_name(v.name)
        ]
        removed: List[str] = []
        for version in versions[: max(0, len(versions) - keep_last)]:
            if version.name == active:
                continue
            atomicio.remove_dir(version.path)
            removed.append(version.name)
        return removed

    def __repr__(self) -> str:
        active = self._active.version.name if self._active else None
        return (
            f"ModelRegistry(root={str(self.root)!r}, active={active!r}, "
            f"pinned={self.pinned_version!r}, swaps={self.swaps})"
        )


def watch(
    registry: ModelRegistry,
    interval_s: float,
    stop: threading.Event,
    on_swap=None,
) -> None:
    """Poll the artifact root and hot-swap when a new version lands.

    Runs until ``stop`` is set (the gateway gives it a daemon thread).
    ``on_swap`` is called with the new active version after each swap.
    """
    while not stop.wait(interval_s):
        if registry.maybe_reload() and on_swap is not None:
            try:
                on_swap(registry.active().version)
            except Exception:
                pass  # observer bugs must not kill the watcher
