"""Tests for the congestion-toll extension."""

from unittest import mock

import pytest

import repro.core.tolls
from repro.core.appro import appro
from repro.core.tolls import (
    anticipatory_tolls,
    optimize_toll_level,
    tolled_selfish_market,
)
from repro.exceptions import ConfigurationError
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network


@pytest.fixture(scope="module")
def market():
    network = random_mec_network(120, rng=1)
    return generate_market(network, 50, rng=2)


class TestAnticipatoryTolls:
    def test_zero_level_means_zero_tolls(self, market):
        tolls = anticipatory_tolls(market, 0.0)
        assert all(t == 0.0 for t in tolls.values())

    def test_tolls_scale_linearly(self, market):
        one = anticipatory_tolls(market, 1.0)
        two = anticipatory_tolls(market, 2.0)
        for node in one:
            assert two[node] == pytest.approx(2 * one[node])

    def test_every_cloudlet_priced(self, market):
        tolls = anticipatory_tolls(market, 1.0)
        assert set(tolls) == {cl.node_id for cl in market.network.cloudlets}

    def test_negative_level_rejected(self, market):
        with pytest.raises(ConfigurationError):
            anticipatory_tolls(market, -0.5)


class TestTolledMarket:
    def test_covers_all_providers(self, market):
        assignment = tolled_selfish_market(market)
        covered = len(assignment.placement) + len(assignment.rejected)
        assert covered == market.num_providers
        assignment.check_capacities()

    def test_unknown_cloudlet_in_tolls_rejected(self, market):
        with pytest.raises(ConfigurationError):
            tolled_selfish_market(market, {999_999: 1.0})

    def test_huge_tolls_push_providers_remote(self, market):
        tolls = {cl.node_id: 1e6 for cl in market.network.cloudlets}
        assignment = tolled_selfish_market(market, tolls)
        assert len(assignment.rejected) == market.num_providers

    def test_toll_revenue_accounted(self, market):
        tolls = anticipatory_tolls(market, 1.0)
        assignment = tolled_selfish_market(market, tolls)
        expected = sum(tolls[n] for n in assignment.placement.values())
        assert assignment.info["toll_revenue"] == pytest.approx(expected)

    def test_social_cost_excludes_tolls(self, market):
        """Tolls are transfers: same placement must cost the same with or
        without tolls being levied."""
        tolls = anticipatory_tolls(market, 1.0)
        tolled = tolled_selfish_market(market, tolls)
        from repro.core.assignment import CachingAssignment

        untolled_view = CachingAssignment(
            market=market,
            placement=dict(tolled.placement),
            rejected=tolled.rejected,
        )
        assert tolled.social_cost == pytest.approx(untolled_view.social_cost)


class TestOptimizeTolls:
    def test_improves_on_anarchy(self, market):
        anarchy = tolled_selfish_market(market).social_cost
        optimum = optimize_toll_level(market)
        assert optimum.social_cost <= anarchy + 1e-9
        assert optimum.sweep[0.0] == pytest.approx(anarchy)

    def test_never_beats_coordinated_optimum_much(self, market):
        optimum = optimize_toll_level(market)
        coordinated = appro(market, allow_remote=True).social_cost
        # tolls steer but cannot see provider-specific placements; they
        # should land between anarchy and the coordinated optimum.
        assert optimum.social_cost >= coordinated * 0.95

    def test_picks_the_sweep_minimum(self, market):
        optimum = optimize_toll_level(market, levels=(0.0, 0.5, 1.0))
        assert optimum.social_cost == pytest.approx(min(optimum.sweep.values()))
        assert optimum.level in (0.0, 0.5, 1.0)

    def test_empty_levels_rejected(self, market):
        with pytest.raises(ConfigurationError):
            optimize_toll_level(market, levels=())

    def test_reference_appro_runs_once_per_search(self, market):
        """The Appro reference does not depend on the level: one run
        serves the whole grid, and every level's tolls equal
        :func:`anticipatory_tolls` at that level."""
        levels = (0.0, 0.5, 1.0, 3.0)
        with mock.patch.object(repro.core.tolls, "appro", wraps=appro) as spy:
            optimum = optimize_toll_level(market, levels=levels)
        assert spy.call_count == 1
        for level in levels:
            tolled = tolled_selfish_market(market, anticipatory_tolls(market, level))
            assert optimum.sweep[level] == tolled.social_cost

    def test_negative_level_rejected(self, market):
        with pytest.raises(ConfigurationError):
            optimize_toll_level(market, levels=(0.5, -1.0))
