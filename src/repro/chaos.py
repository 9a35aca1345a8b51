"""Deterministic seeded fault injection: failpoints for the write paths.

Production failures that matter here are not exceptions in happy-path
code — they are *torn writes* (power loss mid-``write``), *lost
durability* (data in the page cache that never reached the platter),
*full disks* (ENOSPC halfway through a checkpoint), and *stalls*
(a scoring call that takes a second instead of a millisecond).  None of
those occur naturally under pytest, so this module makes them injectable
on demand, deterministically, at named **failpoints** compiled into the
write paths (:mod:`repro.atomicio`) and the gateway scoring path.

A failpoint is just a named call site::

    from repro import chaos
    chaos.failpoint("cache.store.rename")     # no-op unless armed

Arming happens two ways, which compose:

* **Environment** — ``REPRO_CHAOS="cache.store.rename=kill"`` arms the
  rule in any process that inherits the variable.  This is how the chaos
  suite kills *subprocesses* at exact write offsets and how the CI smoke
  injects scoring latency into a real ``--workers 2`` pool.
* **Context manager** — ``with chaos.chaos("gateway.score=sleep:50"):``
  arms rules for the current process only (tests, notebooks).

Rule grammar (comma-separated list of rules)::

    <point>=<action>[:<arg>][@<prob>][#<limit>]

    gateway.score=sleep:200            # every hit sleeps 200 ms
    cache.store.payload=kill           # SIGKILL self at the failpoint
    ckpt.save.fsync=enospc#2           # first two hits raise ENOSPC
    stats.publish.rename=err@0.5       # half the hits raise EIO (seeded)
    ckpt.save.fsync=skip-fsync         # fsync silently does nothing
    cache.store.payload=partial:0.5    # write half the bytes, then die

``<point>`` may end with ``*`` to match a prefix (``cache.store.*``).
Probabilistic rules draw from one :class:`random.Random` seeded by
``REPRO_CHAOS_SEED`` (default 0), so a given spec + seed replays the
exact same fault schedule — chaos runs are reproducible by construction.

Actions:

========== ==========================================================
``kill``     ``SIGKILL`` the current process — the crash-consistency
             probe (nothing gets to run after it, not even ``finally``).
``enospc``   raise ``OSError(ENOSPC)`` — disk full.
``err``      raise ``OSError(EIO)`` — generic I/O failure.
``sleep``    block for ``arg`` milliseconds — slow disk / slow model.
``skip-fsync`` make :func:`fsync_enabled` answer False — simulates an
             fsync that reported success but durably did nothing.
``partial``  for payload failpoints: write only ``arg`` (fraction) of
             the bytes, then SIGKILL — the canonical torn write.
========== ==========================================================

When ``REPRO_CHAOS_LOG`` names a file, every armed hit appends
``<point> <action>`` before acting, so a parent process can assert the
kill really happened *at* the failpoint and not somewhere else.
"""

from __future__ import annotations

import errno
import os
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

#: Environment variable holding the armed rule spec.
ENV_VAR = "REPRO_CHAOS"
#: Environment variable seeding probabilistic rules (int, default 0).
SEED_ENV = "REPRO_CHAOS_SEED"
#: Environment variable naming the hit-log file (optional).
LOG_ENV = "REPRO_CHAOS_LOG"

#: Actions a rule may carry (see module docstring).
ACTIONS = ("kill", "enospc", "err", "sleep", "skip-fsync", "partial")

#: The sub-points :mod:`repro.atomicio` emits for every write site
#: ``<site>``: ``<site>.setup`` (tmp created, nothing written),
#: ``<site>.payload`` (payload partially on disk), ``<site>.fsync``
#: (durability point), ``<site>.rename`` (about to promote),
#: ``<site>.after`` (promoted, cleanup pending).  Chaos suites iterate
#: this tuple to kill a writer at *every* stage of a write.
WRITE_SUBPOINTS: Tuple[str, ...] = ("setup", "payload", "fsync", "rename", "after")

#: Write sites instrumented across the repo (site -> owning module).
#: Kept as data so the kill-at-every-failpoint suites and the docs stay
#: in sync with the code; registering here is by convention, not magic.
KNOWN_SITES: Dict[str, str] = {
    "cache.store": "repro.pipeline.cache",
    "ckpt.save": "repro.train.state",
    "stats.publish": "repro.server.stats",
    "stats.pool": "repro.server.stats",
    "manifest.write": "repro.pipeline.manifest",
    "artifact.save": "repro.serving.artifact",
    "registry.publish": "repro.server.registry",
    "trace.export": "repro.obs.cli",
}

#: Non-write failpoints (no setup/payload/... sub-structure).
KNOWN_POINTS: Dict[str, str] = {
    "gateway.score": "repro.server.app (inside the micro-batch flush)",
}

#: Optional observer called as ``annotation_hook(point, action)`` right
#: before an armed rule acts.  :mod:`repro.obs.trace` registers one at
#: import so failpoint hits land as events on the active span; chaos
#: itself imports nothing from obs (no cycle).  Hook errors are
#: swallowed — telemetry must never change fault behavior.
annotation_hook = None


def _annotate(point: str, action: str) -> None:
    hook = annotation_hook
    if hook is None:
        return
    try:
        hook(point, action)
    except Exception:
        pass


class ChaosSpecError(ValueError):
    """Raised for an unparseable ``REPRO_CHAOS`` rule spec."""


@dataclass
class Rule:
    """One armed fault rule (see the module-level grammar)."""

    point: str
    action: str
    arg: float = 0.0
    prob: float = 1.0
    limit: Optional[int] = None
    fires: int = field(default=0, compare=False)

    def matches(self, point: str) -> bool:
        """Whether this rule covers ``point`` (exact or ``*`` prefix)."""
        if self.point.endswith("*"):
            return point.startswith(self.point[:-1])
        return point == self.point

    def exhausted(self) -> bool:
        """Whether the ``#limit`` fire budget has been spent."""
        return self.limit is not None and self.fires >= self.limit


def parse_spec(spec: str) -> List[Rule]:
    """Parse a comma-separated rule spec into :class:`Rule` objects."""
    rules: List[Rule] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        point, sep, rhs = chunk.partition("=")
        if not sep or not point or not rhs:
            raise ChaosSpecError(f"bad chaos rule {chunk!r} (want point=action)")
        limit: Optional[int] = None
        if "#" in rhs:
            rhs, _, limit_text = rhs.rpartition("#")
            try:
                limit = int(limit_text)
            except ValueError:
                raise ChaosSpecError(f"bad #limit in {chunk!r}") from None
        prob = 1.0
        if "@" in rhs:
            rhs, _, prob_text = rhs.rpartition("@")
            try:
                prob = float(prob_text)
            except ValueError:
                raise ChaosSpecError(f"bad @prob in {chunk!r}") from None
            if not 0.0 <= prob <= 1.0:
                raise ChaosSpecError(f"@prob must be in [0, 1] in {chunk!r}")
        action, _, arg_text = rhs.partition(":")
        action = action.strip()
        if action not in ACTIONS:
            raise ChaosSpecError(
                f"unknown chaos action {action!r} in {chunk!r} "
                f"(known: {', '.join(ACTIONS)})"
            )
        arg = 0.0
        if arg_text:
            try:
                arg = float(arg_text)
            except ValueError:
                raise ChaosSpecError(f"bad :arg in {chunk!r}") from None
        if action == "partial" and not 0.0 <= arg < 1.0:
            raise ChaosSpecError("partial:<fraction> must be in [0, 1)")
        rules.append(
            Rule(point=point.strip(), action=action, arg=arg, prob=prob, limit=limit)
        )
    return rules


class ChaosConfig:
    """A set of armed rules plus the seeded RNG that drives ``@prob``.

    Thread-safe: the gateway hits failpoints from many request threads,
    and fire counting / probability draws must not race.
    """

    def __init__(self, rules: List[Rule], seed: int = 0, log_path: Optional[str] = None) -> None:
        self.rules = rules
        self.rng = random.Random(seed)
        self.log_path = log_path
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls, environ=os.environ) -> Optional["ChaosConfig"]:
        """Build from ``REPRO_CHAOS``/``REPRO_CHAOS_SEED``; None if unset."""
        spec = environ.get(ENV_VAR)
        if not spec:
            return None
        seed = int(environ.get(SEED_ENV, "0") or "0")
        return cls(parse_spec(spec), seed=seed, log_path=environ.get(LOG_ENV))

    def pick(self, point: str) -> Optional[Rule]:
        """The rule firing at ``point`` right now, if any (counts the hit)."""
        with self._lock:
            for rule in self.rules:
                if not rule.matches(point) or rule.exhausted():
                    continue
                if rule.prob < 1.0 and self.rng.random() >= rule.prob:
                    continue
                rule.fires += 1
                return rule
        return None

    def log_hit(self, point: str, rule: Rule) -> None:
        """Append the hit to the chaos log (best-effort, pre-action)."""
        if self.log_path is None:
            return
        try:
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.write(f"{point} {rule.action}\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            pass


# ----------------------------------------------------------------------
# Active-config management
# ----------------------------------------------------------------------
_lock = threading.Lock()
_active: Optional[ChaosConfig] = None
_env_loaded = False


def _current() -> Optional[ChaosConfig]:
    """The active config: context-manager override, else the env spec."""
    global _env_loaded, _active
    if _active is not None:
        return _active
    if not _env_loaded:
        with _lock:
            if not _env_loaded:
                _active = ChaosConfig.from_env()
                _env_loaded = True
    return _active


def reset() -> None:
    """Drop the cached config (tests that mutate ``REPRO_CHAOS``)."""
    global _active, _env_loaded
    with _lock:
        _active = None
        _env_loaded = False


@contextmanager
def chaos(spec: str, seed: int = 0, log_path: Optional[str] = None) -> Iterator[ChaosConfig]:
    """Arm ``spec`` for the current process for the ``with`` body only."""
    global _active, _env_loaded
    config = ChaosConfig(parse_spec(spec), seed=seed, log_path=log_path)
    with _lock:
        previous, previous_loaded = _active, _env_loaded
        _active, _env_loaded = config, True
    try:
        yield config
    finally:
        with _lock:
            _active, _env_loaded = previous, previous_loaded


def active() -> bool:
    """Whether any chaos rules are currently armed."""
    return _current() is not None


# ----------------------------------------------------------------------
# The failpoint primitives the instrumented code calls
# ----------------------------------------------------------------------
def _act(point: str, rule: Rule, config: ChaosConfig) -> None:
    config.log_hit(point, rule)
    _annotate(point, rule.action)
    if rule.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        # Unreachable in practice; belt and braces if SIGKILL is masked
        # by an exotic environment:
        time.sleep(60.0)
        raise OSError(errno.EIO, f"chaos kill at {point} did not terminate")
    if rule.action == "enospc":
        raise OSError(errno.ENOSPC, f"chaos: no space left on device at {point}")
    if rule.action == "err":
        raise OSError(errno.EIO, f"chaos: injected I/O error at {point}")
    if rule.action == "sleep":
        time.sleep(rule.arg / 1000.0)


def failpoint(point: str) -> None:
    """Fire ``point``: no-op unless an armed rule matches it.

    ``skip-fsync`` and ``partial`` rules do nothing here — they are
    consulted by :func:`fsync_enabled` and :func:`partial_fraction` at
    the spots where suppressing an fsync / tearing a payload makes
    sense.  Everything else acts immediately (kill / raise / sleep).
    """
    config = _current()
    if config is None:
        return
    rule = config.pick(point)
    if rule is None or rule.action in ("skip-fsync", "partial"):
        return
    _act(point, rule, config)


def fsync_enabled(point: str) -> bool:
    """False when a ``skip-fsync`` rule covers this durability point."""
    config = _current()
    if config is None:
        return True
    rule = config.pick(point)
    if rule is None:
        return True
    if rule.action == "skip-fsync":
        config.log_hit(point, rule)
        _annotate(point, rule.action)
        return False
    _act(point, rule, config)
    return True


def partial_fraction(point: str) -> Optional[float]:
    """The armed ``partial:<fraction>`` for this payload point, if any.

    The *caller* (an atomic writer) is responsible for writing only the
    fraction and then calling :func:`tear` — the torn bytes must actually
    be on disk before the process dies for the test to mean anything.
    """
    config = _current()
    if config is None:
        return None
    rule = config.pick(point)
    if rule is None:
        return None
    if rule.action == "partial":
        config.log_hit(point, rule)
        _annotate(point, rule.action)
        return rule.arg
    _act(point, rule, config)
    return None


def tear(point: str) -> None:
    """Terminate after a partial payload write (SIGKILL, like ``kill``)."""
    config = _current()
    if config is not None:
        config.log_hit(point, Rule(point=point, action="kill"))
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60.0)
    raise OSError(errno.EIO, f"chaos tear at {point} did not terminate")
