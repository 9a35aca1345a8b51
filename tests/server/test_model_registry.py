"""Tests for the versioned model registry: publish, scan, swap, prune."""

import numpy as np
import pytest

from repro.serving import SuggestionService
from repro.server import (
    ModelRegistry,
    NoModelError,
    prune_versions,
    publish_artifact,
    scan_versions,
)


class TestPublish:
    def test_publish_creates_sequential_versions(self, fitted_system, tmp_path):
        system, _ = fitted_system
        root = tmp_path / "models"
        v1 = publish_artifact(system, root)
        v2 = publish_artifact(system, root, reuse_identical=False)
        assert v1.name.startswith("v0001-")
        assert v2.name.startswith("v0002-")
        assert v1.digest == v2.digest  # same weights, distinct versions
        assert (v1.path / "manifest.json").is_file()
        assert (v2.path / "arrays.npz").is_file()

    def test_publish_is_idempotent_for_identical_content(
        self, fitted_system, tmp_path
    ):
        system, _ = fitted_system
        root = tmp_path / "models"
        v1 = publish_artifact(system, root)
        again = publish_artifact(system, root)
        assert again.name == v1.name
        assert len(scan_versions(root)) == 1

    def test_publish_copies_existing_artifact_dir(self, fitted_system, tmp_path):
        system, pool = fitted_system
        saved = tmp_path / "plain_artifact"
        system.save(saved)
        root = tmp_path / "models"
        version = publish_artifact(saved, root)
        service = SuggestionService.load(version.path)
        assert np.array_equal(
            service.predict_scores(pool), system.predict_scores(pool)
        )

    def test_publish_missing_source_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            publish_artifact(tmp_path / "nope", tmp_path / "models")

    def test_publish_steps_over_conflicting_seq_dir(self, fitted_system, tmp_path):
        system, _ = fitted_system
        root = tmp_path / "models"
        publish_artifact(system, root)
        # A junk directory squatting on the next sequence number (e.g. a
        # racing publisher's different-content version) must be stepped
        # over, not fought or looped on.
        (root / "v0002-deadbeef").mkdir()
        version = publish_artifact(system, root, reuse_identical=False)
        assert version.name.startswith("v0003-")


class TestScan:
    def test_scan_ignores_incomplete_and_hidden_dirs(self, fitted_system, tmp_path):
        system, _ = fitted_system
        root = tmp_path / "models"
        publish_artifact(system, root)
        (root / "half-written").mkdir()
        (root / "half-written" / "manifest.json").write_text("{}")
        (root / ".publish-inflight").mkdir()
        assert [v.name.startswith("v0001-") for v in scan_versions(root)] == [True]

    def test_single_artifact_dir_is_a_pseudo_version(self, fitted_system, tmp_path):
        system, _ = fitted_system
        saved = tmp_path / "model_dir"
        system.save(saved)
        versions = scan_versions(saved)
        assert len(versions) == 1
        assert versions[0].name == "model_dir"

    def test_scan_missing_root_is_empty(self, tmp_path):
        assert scan_versions(tmp_path / "missing") == []


class TestRegistry:
    def test_reload_serves_latest_and_is_stable(self, model_root, fitted_system):
        _system, pool = fitted_system
        registry = ModelRegistry(model_root)
        swapped, version = registry.reload()
        assert swapped and version.name.startswith("v0001-")
        # A second reload with nothing new is a no-op.
        swapped, _ = registry.reload()
        assert not swapped
        assert registry.swaps == 1
        suggestions = registry.active().service.suggest(pool[:3], k=3)
        assert suggestions.shape == (3, 3)

    def test_hot_swap_on_new_version(self, fitted_system, tmp_path):
        system, _ = fitted_system
        root = tmp_path / "models"
        publish_artifact(system, root)
        registry = ModelRegistry(root)
        registry.reload()
        old_handle = registry.active()
        publish_artifact(system, root, reuse_identical=False)
        swapped, version = registry.reload()
        assert swapped and version.name.startswith("v0002-")
        # Old handle object still fully functional for in-flight requests.
        assert old_handle.version.name.startswith("v0001-")
        assert old_handle.service.num_drugs == registry.active().service.num_drugs

    def test_pinned_version_wins_over_latest(self, fitted_system, tmp_path):
        system, _ = fitted_system
        root = tmp_path / "models"
        v1 = publish_artifact(system, root)
        publish_artifact(system, root, reuse_identical=False)
        registry = ModelRegistry(root, pinned_version=v1.name)
        registry.reload()
        assert registry.active().version.name == v1.name
        with pytest.raises(NoModelError, match="pinned"):
            ModelRegistry(root, pinned_version="v9999-zzzzzzzz").reload()

    def test_active_before_reload_raises(self, model_root):
        registry = ModelRegistry(model_root)
        with pytest.raises(NoModelError):
            registry.active()
        assert not registry.has_model

    def test_empty_root_raises_no_model(self, tmp_path):
        with pytest.raises(NoModelError):
            ModelRegistry(tmp_path / "empty").reload()



class TestPrune:
    def test_prune_keeps_newest(self, fitted_system, tmp_path):
        system, _ = fitted_system
        root = tmp_path / "models"
        names = [
            publish_artifact(system, root, reuse_identical=False).name
            for _ in range(4)
        ]
        removed = prune_versions(root, keep_last=2)
        assert removed == names[:2]
        assert [v.name for v in scan_versions(root)] == names[2:]

    def test_registry_prune_never_removes_active(self, fitted_system, tmp_path):
        system, _ = fitted_system
        root = tmp_path / "models"
        v1 = publish_artifact(system, root)
        for _ in range(3):
            publish_artifact(system, root, reuse_identical=False)
        registry = ModelRegistry(root, pinned_version=v1.name)
        registry.reload()
        removed = registry.prune(keep_last=1)
        remaining = [v.name for v in scan_versions(root)]
        assert v1.name in remaining  # active-but-old survives
        assert len(remaining) == 2  # newest + active
        assert v1.name not in removed

    def test_prune_validates_keep_last(self, tmp_path):
        with pytest.raises(ValueError):
            prune_versions(tmp_path, keep_last=0)
