"""Integration tests of the delay-validation, speed and Figure 5 experiments."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.experiments.delay_validation import run_delay_validation
from repro.experiments.dse_speed import DseSpeedResult, run_dse_speed
from repro.experiments.fig5_pareto import run_fig5


@pytest.fixture(scope="module")
def delay_result():
    return run_delay_validation(n_configurations=20, duration_s=30.0, seed=5)


@pytest.fixture(scope="module")
def fig5_result():
    return run_fig5(
        population_size=24, generations=12, annealing_iterations=400, seed=1
    )


class TestDelayValidation:
    def test_requested_number_of_configurations(self, delay_result):
        assert len(delay_result.records) == 20

    def test_bound_is_never_violated(self, delay_result):
        """Paper: equation (9) is a worst-case bound of the packet delay."""
        assert delay_result.violations == 0
        for record in delay_result.records:
            assert record.bound_holds

    def test_average_overestimation_is_moderate(self, delay_result):
        """Paper: the average overestimation stays below ~100 ms."""
        assert 0.0 < delay_result.average_overestimation_s < 0.150

    def test_simulated_delays_are_positive(self, delay_result):
        assert all(r.simulated_mean_delay_s > 0 for r in delay_result.records)


class TestDseSpeed:
    def test_model_is_orders_of_magnitude_faster(self):
        result = run_dse_speed(model_evaluations=300, simulated_seconds=120.0)
        """Paper: ~4800 model evaluations/s vs minutes per simulation."""
        assert result.model_evaluations_per_second > 1000
        assert result.speedup > 100
        assert result.speedup_orders_of_magnitude > 2.0

    @pytest.mark.parametrize("option", ["sharded_evaluations", "sharded_max_workers"])
    def test_no_process_pool_measurement(self, option):
        """Every engine path is measured in-process; there is no pool to time."""
        with pytest.raises(TypeError, match=option):
            run_dse_speed(**{option: 1})
        assert not [
            field.name
            for field in fields(DseSpeedResult)
            if field.name.startswith("sharded")
        ]


class TestFig5:
    def test_full_model_front_is_rich(self, fig5_result):
        assert len(fig5_result.full_model_front) >= 15

    def test_baseline_recovers_only_a_small_fraction(self, fig5_result):
        """Paper: the energy/delay baseline contains only ~7 % of the trade-offs."""
        assert fig5_result.baseline_coverage < 0.25

    def test_projections_have_the_three_planes(self, fig5_result):
        projections = fig5_result.projections
        assert set(projections) == {"energy-delay", "energy-prd", "prd-delay"}
        assert all(len(points) == len(fig5_result.full_model_front) for points in projections.values())

    def test_search_algorithms_agree_reasonably(self, fig5_result):
        """Paper: no relevant difference between GA and simulated annealing."""
        assert fig5_result.algorithm_hypervolume_gap < 0.5

    def test_run_takes_no_backend(self):
        """Both explorations compute in-process: there is no backend to pick."""
        with pytest.raises(TypeError, match="backend"):
            run_fig5(backend="serial")

    def test_objectives_are_finite_and_positive(self, fig5_result):
        for point in fig5_result.full_model_front:
            assert all(value > 0 for value in point)
