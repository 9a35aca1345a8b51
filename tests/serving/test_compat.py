"""Artifact schema-version compatibility.

The artifact manifest carries ``format_version`` (the schema version):
v1 was the PR-1 layout (no ``propagation_backend`` / ``score_chunk_rows``
/ ``score_block`` config fields), v2 added the sparse-backend fields, v3
added the serving ``score_block``, v4 added per-array SHA-256 integrity
digests (verified on load; absent in older artifacts, which therefore
load unverified).  The v2 and v3 fields are retired: the density rule
picks every matrix representation, scoring always uses one block size,
and every patient scores bitwise the same in any batch.  The loader
therefore drops ``propagation_backend="auto"``, any ``score_chunk_rows``
and any ``score_block``, and refuses a forced representation.  Three
guarantees are pinned here:

* saving with the **current** schema and loading it back round-trips
  ``predict_scores`` bitwise (the PR-1 invariant, re-asserted against
  the current version number), and
* loading a fixture in the **PR-1 (v1) layout** still works and is
  bitwise-identical too — old artifacts on disk survive library
  upgrades, with config defaults filling in the newer fields, and
* a v4 manifest written before the v2 and v3 fields were retired loads
  and round-trips bitwise, unless it forces a representation.
"""

import json

import numpy as np
import pytest

from repro.core import DSSDDI, DSSDDIConfig
from repro.data import generate_chronic_cohort, split_patients, standardize_features
from repro.serving import FORMAT_VERSION, load_system, verify_artifact


@pytest.fixture(scope="module")
def fitted():
    cohort = generate_chronic_cohort(num_patients=120, seed=6)
    x = standardize_features(cohort.features)
    split = split_patients(120, seed=2)
    config = DSSDDIConfig.fast()
    config.ddi.epochs = 10
    config.md.epochs = 30
    system = DSSDDI(config)
    system.fit(x[split.train], cohort.medications[split.train], cohort.ddi)
    return system, x[split.test]


#: The retired v2 and v3 fields as a v4 manifest written before their
#: removal carries them (their defaults).  Every field they added is
#: retired, so the current config has no field the v1 layout lacks.
RETIRED_FIELDS = {
    "ddi": {"propagation_backend": "auto"},
    "md": {"propagation_backend": "auto", "score_chunk_rows": 262144},
    "serving": {"score_block": 0},
}


def add_retired_fields(path, score_block=0, **overrides):
    """Write the retired fields (``section=value`` overrides the
    section's ``propagation_backend``) into the saved manifest at ``path``."""
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for section, fields in RETIRED_FIELDS.items():
        manifest["config"][section].update(fields)
        if section in overrides:
            manifest["config"][section]["propagation_backend"] = overrides[section]
    manifest["config"]["serving"]["score_block"] = score_block
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return path


def make_v1_fixture(system, path):
    """Save with the current writer, then rewrite as the PR-1 layout."""
    system.save(path)
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 1
    manifest.pop("array_digests")  # integrity digests arrived in v4
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return path


class TestCurrentSchema:
    def test_manifest_records_current_schema_version(self, fitted, tmp_path):
        system, _ = fitted
        system.save(tmp_path / "model")
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION == 4

    def test_current_round_trip_is_bitwise(self, fitted, tmp_path):
        system, x_test = fitted
        system.save(tmp_path / "model")
        loaded = DSSDDI.load(tmp_path / "model")
        assert np.array_equal(
            loaded.predict_scores(x_test), system.predict_scores(x_test)
        )

    @pytest.mark.parametrize(
        "read", [load_system, verify_artifact], ids=lambda f: f.__name__
    )
    def test_future_schema_is_rejected_cleanly(self, fitted, tmp_path, read):
        system, _ = fitted
        system.save(tmp_path / "model")
        manifest_path = tmp_path / "model" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported artifact format"):
            read(tmp_path / "model")


class TestV1Backcompat:
    def test_v1_fixture_loads_with_defaults(self, fitted, tmp_path):
        system, _ = fitted
        path = make_v1_fixture(system, tmp_path / "v1_model")
        loaded = load_system(path)
        # The v1 layout lacks only fields that are retired since.
        assert "score_block" not in loaded.config.serving.to_dict()
        assert loaded.config.to_dict() == system.config.to_dict()

    def test_v1_round_trip_is_bitwise(self, fitted, tmp_path):
        system, x_test = fitted
        path = make_v1_fixture(system, tmp_path / "v1_model")
        loaded = load_system(path)
        assert np.array_equal(
            loaded.predict_scores(x_test), system.predict_scores(x_test)
        )
        assert loaded.suggest(x_test[:4], k=3) == system.suggest(x_test[:4], k=3)


class TestRetiredFields:
    def test_v4_manifest_with_retired_defaults_round_trips_bitwise(
        self, fitted, tmp_path
    ):
        system, x_test = fitted
        system.save(tmp_path / "old")
        add_retired_fields(tmp_path / "old")
        loaded = load_system(tmp_path / "old")
        assert loaded.config.to_dict() == system.config.to_dict()
        assert np.array_equal(
            loaded.predict_scores(x_test), system.predict_scores(x_test)
        )
        loaded.save(tmp_path / "resaved")
        manifest = json.loads((tmp_path / "resaved" / "manifest.json").read_text())
        assert "propagation_backend" not in manifest["config"]["md"]
        assert "score_chunk_rows" not in manifest["config"]["md"]
        assert "score_block" not in manifest["config"]["serving"]
        assert np.array_equal(
            load_system(tmp_path / "resaved").predict_scores(x_test),
            system.predict_scores(x_test),
        )

    @pytest.mark.parametrize("score_block", [0, 8])
    def test_v4_manifest_with_score_block_resaves_bitwise(
        self, fitted, tmp_path, score_block
    ):
        system, x_test = fitted
        system.save(tmp_path / "old")
        saved = (tmp_path / "old" / "manifest.json").read_bytes()
        add_retired_fields(tmp_path / "old", score_block=score_block)
        loaded = load_system(tmp_path / "old")
        assert np.array_equal(
            loaded.predict_scores(x_test), system.predict_scores(x_test)
        )
        loaded.save(tmp_path / "resaved")
        assert (tmp_path / "resaved" / "manifest.json").read_bytes() == saved
        assert np.array_equal(
            load_system(tmp_path / "resaved").predict_scores(x_test),
            system.predict_scores(x_test),
        )

    @pytest.mark.parametrize("section", ["ddi", "md"])
    def test_forced_representation_is_rejected(self, fitted, tmp_path, section):
        system, _ = fitted
        system.save(tmp_path / "old")
        add_retired_fields(tmp_path / "old", **{section: "dense"})
        with pytest.raises(ValueError, match=f"{section}.propagation_backend"):
            load_system(tmp_path / "old")
