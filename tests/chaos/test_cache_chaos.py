"""Stage cache under crashes: kills mid-store, corruption, racing deletes.

A cache whose entries can be half-written is worse than no cache: a
pipeline run would silently build on torn intermediate results.  These
tests kill a storing process at every ``cache.store.*`` failpoint and
assert the reader-side contract — ``contains``/``load`` report either a
complete entry or a clean miss, never a hybrid — plus the ``verify=True``
digest check and the rename-to-trash deletion that keeps concurrent
readers safe during ``prune``/``clear``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import atomicio, chaos
from repro.pipeline import StageCache
from repro.pipeline.cache import CacheIntegrityError, META_NAME

REPO_ROOT = Path(__file__).resolve().parents[2]

STORE_CHILD = """
import numpy as np
from repro.pipeline import StageCache

cache = StageCache({root!r})
value = {{"m": np.arange(64, dtype=np.float64).reshape(8, 8)}}
cache.store("k-chaos", "chaos.stage", "npz", value)
"""


def run_store_child(root, chaos_spec, log_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env[chaos.ENV_VAR] = chaos_spec
    env[chaos.LOG_ENV] = str(log_path)
    return subprocess.run(
        [sys.executable, "-c", STORE_CHILD.format(root=str(root))],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestKillDuringStore:
    @pytest.mark.parametrize("subpoint", chaos.WRITE_SUBPOINTS)
    def test_kill_leaves_complete_entry_or_clean_miss(self, tmp_path, subpoint):
        cache = StageCache(tmp_path)
        log = tmp_path / "chaos.log"
        result = run_store_child(
            tmp_path, f"cache.store.{subpoint}=kill", log
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        assert log.read_text().startswith(f"cache.store.{subpoint} ")

        survivor = StageCache(tmp_path)
        if survivor.contains("k-chaos"):
            # Visible means complete: the value loads and verifies.
            value, entry = survivor.load("k-chaos", verify=True)
            np.testing.assert_array_equal(
                value["m"], np.arange(64, dtype=np.float64).reshape(8, 8)
            )
            assert entry.stage == "chaos.stage"
        else:
            with pytest.raises(KeyError):
                survivor.load("k-chaos")
        # Recovery converges: a re-store (which sweeps orphans first)
        # produces a loadable entry and no junk siblings.
        survivor.store(
            "k-chaos", "chaos.stage", "npz",
            {"m": np.arange(64, dtype=np.float64).reshape(8, 8)},
        )
        value, _entry = survivor.load("k-chaos", verify=True)
        np.testing.assert_array_equal(value["m"].ravel(), np.arange(64.0))
        stray = [
            p.name
            for p in survivor.stages_dir.iterdir()
            if p.name.startswith(".")
        ]
        assert stray == [], f"orphans survived recovery: {stray}"


class TestConcurrentWriterTemps:
    """``repro run --jobs`` stores from several processes into one cache.

    Each store sweeps orphans first; a temp tagged with a live writer's
    pid must survive that sweep, and a temp whose writer is gone must not.
    """

    def test_live_writers_temp_survives_and_reaped_writers_is_swept(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("first", "s", "json", 1)
        # A second writer that stays alive until its stdin closes.
        writer = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.stdin.read()"],
            stdin=subprocess.PIPE,
        )
        try:
            in_flight = cache.stages_dir / f".tmp-deadbeef-pid{writer.pid}-x1y2z3"
            in_flight.mkdir()
            (in_flight / "data.json").write_text("1")
            manifest_tmp = cache.stages_dir / f".doc.json.tmp-pid{writer.pid}"
            manifest_tmp.write_text("{}")
            cache.store("other-key", "s", "json", 2)
            assert in_flight.is_dir() and manifest_tmp.is_file()
        finally:
            writer.stdin.close()
            writer.wait(timeout=60)
        # The writer is reaped: its temps are orphans now.
        cache.store("third-key", "s", "json", 3)
        assert not in_flight.exists() and not manifest_tmp.exists()
        assert sorted(e.key for e in cache.entries()) == ["first", "other-key", "third-key"]

    def test_store_temps_carry_the_writers_pid(self, tmp_path, monkeypatch):
        cache = StageCache(tmp_path)
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(Path(src).name)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        cache.store("k", "s", "json", 1)
        assert seen and seen[0].startswith(f".tmp-k-{atomicio.pid_tag()}-")


class TestIntegrityVerification:
    def test_verify_catches_flipped_bits(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", "s", "json", {"x": 1})
        payload = cache.stages_dir / "k" / "data.json"
        payload.write_text(json.dumps({"x": 2}))  # bit rot
        loaded, _ = cache.load("k")  # unverified load can't tell
        assert loaded == {"x": 2}
        with pytest.raises(CacheIntegrityError):
            cache.load("k", verify=True)

    def test_verify_passes_on_intact_entry(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", "s", "json", [1, 2, 3])
        loaded, _ = cache.load("k", verify=True)
        assert loaded == [1, 2, 3]


class TestRenameToTrashDeletion:
    def test_trash_dirs_never_listed_as_entries(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("keep", "s", "json", 1)
        cache.store("gone", "s", "json", 2)
        # A crashed deleter's trash dir still holds a complete payload.
        gone = cache.stages_dir / "gone"
        os.replace(gone, cache.stages_dir / ".trash-gone-999")
        assert [e.key for e in cache.entries()] == ["keep"]
        assert not cache.contains("gone")
        with pytest.raises(KeyError):
            cache.load("gone")
        assert atomicio.sweep_orphans(cache.stages_dir) == 1

    def test_clear_never_exposes_half_deleted_entries(self, tmp_path):
        """Concurrent readers during clear() see full entries or misses.

        Before rename-to-trash, ``shutil.rmtree`` could delete an
        entry's payload before its meta.json — ``contains`` said hit,
        ``load`` blew up with an unexpected error.  Here a reader
        hammers the cache while another thread clears it; every load is
        either a complete verified value or a clean ``KeyError``.
        """
        cache = StageCache(tmp_path)
        keys = [f"k{i}" for i in range(20)]
        for key in keys:
            cache.store(key, "s", "npz", {"m": np.full((32, 32), 7.0)})

        failures = []
        stop = threading.Event()

        def reader():
            reader_cache = StageCache(tmp_path)
            while not stop.is_set():
                for key in keys:
                    try:
                        value, _ = reader_cache.load(key, verify=True)
                        if value["m"][0, 0] != 7.0:
                            failures.append((key, "bad value"))
                    except KeyError:
                        pass  # clean miss: entry fully deleted
                    except Exception as exc:  # half-visible entry
                        failures.append((key, repr(exc)))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            assert cache.clear() == len(keys)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert failures == [], failures[:5]
        assert cache.entries() == []

    def test_prune_uses_trash_deletion(self, tmp_path):
        cache = StageCache(tmp_path)
        for i in range(4):
            cache.store(f"k{i}", "same.stage", "json", i)
            # Distinct created_at ordering without sleeping: bump mtimes.
            meta_path = cache.stages_dir / f"k{i}" / META_NAME
            meta = json.loads(meta_path.read_text())
            meta["created_at"] = 1000.0 + i
            meta_path.write_text(json.dumps(meta))
        removed = cache.prune(keep_last=2)
        assert sorted(e.key for e in removed) == ["k0", "k1"]
        assert sorted(e.key for e in cache.entries()) == ["k2", "k3"]
        stray = [
            p.name for p in cache.stages_dir.iterdir() if p.name.startswith(".")
        ]
        assert stray == []
