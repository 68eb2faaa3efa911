"""Tests for the figure drivers (tiny configs — code-path coverage; the
paper-shape assertions live in tests/integration/test_shapes.py)."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.figures import (
    ablation_congestion_models,
    ablation_gap_solvers,
    ablation_selection_strategies,
    fig2_network_size,
    fig3_selfish_fraction,
    fig5_testbed,
    fig6_testbed_parameters,
    fig7_max_demands,
    poa_study,
)
from repro.experiments.settings import ExperimentConfig
from repro.core.optimal import optimal_caching
from repro.game.engine import market_game
from repro.game.poa import worst_equilibrium_cost
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

TINY = ExperimentConfig(
    network_sizes=(40, 60),
    default_size=50,
    n_providers=12,
    xi_sweep=(0.0, 0.5, 1.0),
    repetitions=1,
    provider_sweep=(6, 12),
    data_volume_sweep=(1.0, 5.0),
    demand_scale_sweep=(1.0, 2.0),
    bandwidth_scale_sweep=(1.0, 3.0),
)

ALGOS = {"LCF", "JoOffloadCache", "OffloadCache"}


class TestSimulationFigures:
    def test_fig2(self):
        result = fig2_network_size(TINY)
        assert result.x_values == [40, 60]
        assert set(result.algorithms) == ALGOS
        for point in result.points:
            for metrics in point.values():
                assert metrics.social_cost > 0

    def test_fig3(self):
        result = fig3_selfish_fraction(TINY)
        assert result.x_values == [0.0, 0.5, 1.0]
        # at 1 - xi = 0 nobody is selfish; at 1 everyone is.
        lcf0 = result.points[0]["LCF"]
        lcf1 = result.points[-1]["LCF"]
        assert lcf0.selfish_cost == pytest.approx(0.0)
        assert lcf1.coordinated_cost == pytest.approx(0.0)


class TestTestbedFigures:
    def test_fig5(self):
        result = fig5_testbed(TINY)
        assert result.x_values == [6, 12]
        assert set(result.algorithms) == ALGOS
        flows = result.extra["flow_metrics"]
        assert len(flows) == 2
        assert flows[0]["LCF"]["total_gb"] > 0

    def test_fig6(self):
        results = fig6_testbed_parameters(TINY)
        assert set(results) == {"a", "c", "d"}
        assert results["a"].x_values == [0.0, 0.5, 1.0]
        assert results["d"].x_values == [1.0, 5.0]

    def test_fig6d_update_volume_increases_cost(self):
        results = fig6_testbed_parameters(TINY)
        series = results["d"].series("LCF")
        assert series[-1] > series[0]

    def test_fig7(self):
        results = fig7_max_demands(TINY)
        assert set(results) == {"a", "b"}
        assert results["a"].x_values == [1.0, 2.0]
        assert results["b"].x_values == [1.0, 3.0]


class TestAblations:
    def test_selection(self):
        result = ablation_selection_strategies(TINY)
        assert set(result.algorithms) == {
            "LCF(largest)", "LCF(smallest)", "LCF(random)",
        }

    def test_congestion_models(self):
        result = ablation_congestion_models(TINY)
        assert result.x_values == ["linear", "quadratic", "mm1"]
        assert set(result.algorithms) == ALGOS

    def test_gap_solvers(self):
        result = ablation_gap_solvers(TINY)
        assert set(result.algorithms) == {
            "Appro(shmoys_tardos)", "Appro(greedy)",
        }


class TestPoAStudy:
    def test_bounds_hold(self):
        out = poa_study(n_providers=6, n_nodes=25, repetitions=2, seed=3)
        assert 1.0 <= out["empirical_appro_ratio"] <= out["lemma2_bound"]
        assert 1.0 - 1e-9 <= out["empirical_poa"] <= out["theorem1_bound"]
        assert 0 < out["optimal_v"] < 1
        assert out["appro_infeasible_reps"] == 0

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_no_repetition_is_rejected_before_any_market_is_built(
        self, monkeypatch, repetitions
    ):
        # No repetition would report every ratio and bound as 0.0, a PoA
        # that reads as "within Theorem 1".
        import repro.experiments.figures as figures

        def no_network(*args, **kwargs):
            raise AssertionError("a network was built before the check")

        monkeypatch.setattr(figures, "random_mec_network", no_network)
        with pytest.raises(ConfigurationError, match="repetitions must be >= 1, got"):
            poa_study(repetitions=repetitions)

    def test_markets_with_too_few_slots_leave_the_appro_ratios(self):
        # Rep 1's Eq. 7 split has fewer virtual slots than the 60 providers,
        # so Appro (no remote fallback) has no placement there; rep 0's does.
        out = poa_study(n_providers=60, n_nodes=50, repetitions=2, seed=11)
        assert out["appro_infeasible_reps"] == 1
        assert 1.0 <= out["empirical_appro_ratio"] <= out["lemma2_bound"]
        assert out["appro_marginal_certified_gap"] >= 1.0 - 1e-9
        assert 1.0 - 1e-9 <= out["empirical_poa"] <= out["theorem1_bound"]

    def test_small_markets_report_the_enumerated_worst_equilibrium(self):
        # 8 providers on a 30-node network: few enough profiles to
        # enumerate, so the PoA row is the exact worst equilibrium, not the
        # worst of 10 sampled runs.
        out = poa_study(repetitions=1)
        assert out["poa_exact"] is True
        market = generate_market(random_mec_network(30, rng=11), 8, rng=111)
        game = market_game(market)
        assert len(game.resources) ** len(game.players) <= 2_000_000
        worst, _ = worst_equilibrium_cost(game, exact=True)
        assert out["empirical_poa"] == worst / optimal_caching(market).social_cost
        # 60 providers are far past the enumeration limit: sampled.
        sampled = poa_study(n_providers=60, n_nodes=50, repetitions=1, seed=12)
        assert sampled["poa_exact"] is False

    def test_no_appro_placement_leaves_the_appro_ratios_nan(self):
        # The only repetition's split has fewer virtual slots than the 60
        # providers: there is no Appro ratio to report, and 0.0 would read
        # as a placement cheaper than the optimum.
        out = poa_study(n_providers=60, n_nodes=50, repetitions=1, seed=12)
        assert out["appro_infeasible_reps"] == 1
        assert math.isnan(out["empirical_appro_ratio"])
        assert math.isnan(out["appro_marginal_certified_gap"])
        assert 1.0 - 1e-9 <= out["empirical_poa"] <= out["theorem1_bound"]
