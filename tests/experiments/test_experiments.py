"""Smoke tests for the experiment harness (tiny scale, seconds per test)."""

import numpy as np
import pytest

from repro.experiments import (
    Scale,
    TABLE1_METHODS,
    format_table,
    load_chronic,
    run_fig2,
    run_fig3,
    run_fig7,
    run_fig8,
    run_fig9,
    run_methods,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)


@pytest.fixture(scope="module")
def tiny_scale():
    return Scale.tiny()


@pytest.fixture(scope="module")
def tiny_data(tiny_scale):
    return load_chronic(tiny_scale)


class TestScale:
    def test_presets(self):
        assert Scale.by_name("small").name == "small"
        assert Scale.by_name("medium").num_patients == 800
        assert Scale.by_name("full").num_patients == 4157

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            Scale.by_name("galactic")


class TestHarness:
    def test_load_chronic_split_sizes(self, tiny_data, tiny_scale):
        total = sum(tiny_data.split.sizes)
        assert total == tiny_scale.num_patients

    def test_run_methods_unknown_rejected(self, tiny_data, tiny_scale):
        with pytest.raises(ValueError):
            run_methods(tiny_data, tiny_scale, methods=["NotAMethod"])

    def test_run_methods_subset(self, tiny_data, tiny_scale):
        scores = run_methods(tiny_data, tiny_scale, methods=["UserSim", "LightGCN"])
        assert set(scores) == {"UserSim", "LightGCN"}
        for matrix in scores.values():
            assert matrix.shape == (len(tiny_data.split.test), 86)

    def test_format_table_alignment(self):
        text = format_table(["A", "Blong"], [["x", 1.23456], ["yy", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.2346" in text

    def test_table1_method_order_constant(self):
        assert len(TABLE1_METHODS) == 12


class TestExperimentsRun:
    def test_table1_subset(self, tiny_data, tiny_scale):
        result = run_table1(
            scale=tiny_scale, methods=("UserSim", "DSSDDI(SGCN)"), data=tiny_data
        )
        assert set(result.metrics) == {"UserSim", "DSSDDI(SGCN)"}
        assert result.render()
        assert result.best_method_at("recall", 6) in result.metrics

    def test_table2(self, tiny_data, tiny_scale):
        result = run_table2(scale=tiny_scale, data=tiny_data, ks=(1, 6))
        assert set(result.metrics) == {"w/o DDI", "One-hot", "KG", "DDIGCN"}
        assert result.render()

    def test_table3(self, tiny_data, tiny_scale):
        result = run_table3(
            scale=tiny_scale,
            methods=("UserSim", "DSSDDI(SGCN)"),
            data=tiny_data,
            ks=(2, 4),
            max_patients=10,
        )
        assert set(result.satisfaction) == {"UserSim", "DSSDDI(SGCN)"}
        for by_k in result.satisfaction.values():
            assert set(by_k) == {2, 4}
        assert result.render()

    def test_table3_reuses_scores(self, tiny_data, tiny_scale):
        rng = np.random.default_rng(0)
        fake = {"X": rng.random((len(tiny_data.split.test), 86))}
        result = run_table3(
            scale=tiny_scale, data=tiny_data, scores=fake, ks=(2,), max_patients=5
        )
        assert set(result.satisfaction) == {"X"}

    def test_table4_subset(self, tiny_scale):
        result = run_table4(
            scale=tiny_scale,
            methods=("UserSim", "DSSDDI(GIN)"),
            num_patients=150,
            ks=(4,),
        )
        assert set(result.metrics) == {"UserSim", "DSSDDI(GIN)"}
        assert result.render()

    def test_table4_unknown_method(self, tiny_scale):
        with pytest.raises(ValueError):
            run_table4(scale=tiny_scale, methods=("Nope",), num_patients=150)

    def test_fig2(self):
        result = run_fig2(num_patients=500, seed=3)
        assert abs(sum(result.shares.values()) - 1.0) < 1e-9
        assert result.render()

    def test_fig3(self):
        result = run_fig3()
        assert sum(result.counts.values()) == 86
        assert result.render()

    def test_fig7(self, tiny_data, tiny_scale):
        result = run_fig7(scale=tiny_scale, data=tiny_data, sample_patients=20)
        assert set(result.patient_smoothing) == {"DSSDDI", "LightGCN"}
        assert result.patient_similarity["DSSDDI"].shape[0] <= 20
        assert result.render()

    def test_fig8(self, tiny_data, tiny_scale):
        result = run_fig8(scale=tiny_scale, data=tiny_data, k=2)
        assert "DSSDDI" in result.explanations
        assert result.render()

    def test_fig9(self, tiny_data, tiny_scale):
        result = run_fig9(scale=tiny_scale, data=tiny_data)
        # cases depend on which patients exist in the tiny test split
        for case in result.cases:
            assert set(case.ranks_with) == set(case.tracked_drugs)
            assert case.render()


class TestCLI:
    def test_main_fig3(self, capsys, tmp_path):
        from repro.pipeline.cli import main

        assert main(["run", "fig3", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
