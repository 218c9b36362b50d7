"""Tests for result aggregation and table formatting (repro.analysis)."""

import numpy as np
import pytest

from repro.analysis import (
    MethodSummary,
    aggregate_results,
    format_ablation_table,
    format_comparison_table,
    normalize_runtimes,
    straggler_idle_fraction,
)
from repro.analysis.metrics import sample_efficiency_gain
from repro.core.result import OptimizationResult


def make_result(success=True, iterations=10, sims=100, runtime=30.0):
    return OptimizationResult(
        success=success,
        iterations=iterations,
        simulations={
            "initial_sampling": sims // 4,
            "optimization": sims // 4,
            "verification": sims // 2,
            "total": sims,
        },
        runtime=runtime,
        method="C",
        circuit="strongarm_latch",
    )


class TestAggregation:
    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            aggregate_results("glova", "C", [])

    def test_success_rate(self):
        results = [make_result(True), make_result(False), make_result(True)]
        summary = aggregate_results("glova", "C", results)
        assert summary.success_rate == pytest.approx(2 / 3)
        assert summary.runs == 3
        assert summary.successes == 2

    def test_averages_use_successful_runs_only(self):
        results = [
            make_result(True, iterations=10, sims=100),
            make_result(False, iterations=500, sims=9000),
        ]
        summary = aggregate_results("glova", "C", results)
        assert summary.mean_iterations == pytest.approx(10)
        assert summary.mean_simulations == pytest.approx(100)

    def test_all_failed_falls_back_to_every_run(self):
        results = [make_result(False, iterations=50), make_result(False, iterations=70)]
        summary = aggregate_results("glova", "C", results)
        assert summary.mean_iterations == pytest.approx(60)
        assert summary.success_rate == 0.0

    def test_normalize_runtimes_reference_is_one(self):
        summaries = [
            aggregate_results("glova", "C", [make_result(runtime=10.0)]),
            aggregate_results("pvtsizing", "C", [make_result(runtime=35.0)]),
        ]
        normalized = normalize_runtimes(summaries, reference_method="glova")
        by_method = {s.method: s for s in normalized}
        assert by_method["glova"].normalized_runtime == pytest.approx(1.0)
        assert by_method["pvtsizing"].normalized_runtime == pytest.approx(3.5)

    def test_sample_efficiency_gain(self):
        summaries = [
            aggregate_results("glova", "C", [make_result(sims=100)]),
            aggregate_results("pvtsizing", "C", [make_result(sims=800)]),
        ]
        gains = sample_efficiency_gain(summaries, reference_method="glova")
        assert gains["pvtsizing"] == pytest.approx(8.0)

    def test_as_row_keys(self):
        summary = aggregate_results("glova", "C", [make_result()])
        row = summary.as_row()
        assert set(row) == {
            "method",
            "rl_iterations",
            "simulations",
            "normalized_runtime",
            "success_rate",
        }


class TestTableFormatting:
    def _summaries(self):
        summaries = [
            aggregate_results("glova", "C", [make_result(runtime=10.0)]),
            aggregate_results("pvtsizing", "C", [make_result(runtime=30.0)]),
        ]
        return {"C": normalize_runtimes(summaries)}

    def test_comparison_table_contains_all_rows(self):
        text = format_comparison_table(self._summaries(), title="Table II (SAL)")
        assert "Table II (SAL)" in text
        assert "RL Iteration" in text
        assert "# Simulation" in text
        assert "Norm. Runtime" in text
        assert "Success Rate" in text
        assert "glova" in text
        assert "pvtsizing" in text

    def test_missing_scenario_rendered_as_dash(self):
        summaries = self._summaries()
        summaries["C-MCL"] = [
            aggregate_results("glova", "C-MCL", [make_result(runtime=10.0)])
        ]
        text = format_comparison_table(summaries)
        assert "-" in text

    def test_ablation_table_uses_same_layout(self):
        text = format_ablation_table(self._summaries(), title="Table III")
        assert "Table III" in text


class TestStragglerIdleFraction:
    """Its input is :attr:`ShardHandle.row_seconds`, NaN for rows that
    never ran."""

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="workers"):
            straggler_idle_fraction([1.0], workers=workers, wall_seconds=1.0)

    @pytest.mark.parametrize("wall", [0.0, -1.0])
    def test_no_wall_clock_gives_nan(self, wall):
        assert np.isnan(
            straggler_idle_fraction([1.0], workers=2, wall_seconds=wall)
        )

    def test_non_finite_rows_are_ignored(self):
        # 1 busy second of 2 worker-seconds; the NaN row never ran.
        assert straggler_idle_fraction(
            [1.0, np.nan], workers=2, wall_seconds=1.0
        ) == pytest.approx(0.5)
