"""Tests for CachingAssignment."""

import pytest

from repro.core.appro import appro
from repro.core.assignment import CachingAssignment, Stopwatch
from repro.core.lcf import lcf
from repro.exceptions import CapacityError, ConfigurationError
from repro.experiments.settings import PAPER
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from tests.conftest import build_line_network, build_provider


@pytest.fixture
def market():
    net = build_line_network()
    providers = [build_provider(i) for i in range(3)]
    return ServiceMarket(net, providers, pricing=Pricing())


class TestValidation:
    def test_all_providers_must_be_covered(self, market):
        with pytest.raises(ConfigurationError):
            CachingAssignment(market, placement={0: 2, 1: 2})

    def test_rejected_counts_as_covered(self, market):
        a = CachingAssignment(market, placement={0: 2, 1: 2}, rejected=frozenset({2}))
        assert a.rejection_rate == pytest.approx(1 / 3)

    def test_placed_and_rejected_disjoint(self, market):
        with pytest.raises(ConfigurationError):
            CachingAssignment(
                market, placement={0: 2, 1: 2, 2: 2}, rejected=frozenset({2})
            )

    def test_unknown_provider_rejected(self, market):
        with pytest.raises(ConfigurationError):
            CachingAssignment(market, placement={0: 2, 1: 2, 2: 2, 9: 2})

    def test_placement_on_non_cloudlet_rejected(self, market):
        with pytest.raises(ConfigurationError):
            CachingAssignment(market, placement={0: 1, 1: 2, 2: 2})


class TestCosts:
    def test_social_cost_matches_model(self, market):
        a = CachingAssignment(market, placement={0: 2, 1: 2, 2: 4})
        expected = market.cost_model.social_cost(
            market.providers_by_id(), a.placement
        )
        assert a.social_cost == pytest.approx(expected)

    def test_rejected_charged_remote_cost(self, market):
        a = CachingAssignment(market, placement={0: 2, 1: 4}, rejected=frozenset({2}))
        remote = market.cost_model.remote_cost(market.provider(2))
        assert a.provider_cost(2) == pytest.approx(remote)
        cached_only = market.cost_model.social_cost(
            market.providers_by_id(), a.placement
        )
        assert a.social_cost == pytest.approx(cached_only + remote)

    def test_cost_split_by_coordination(self, market):
        market.set_coordinated([0])
        a = CachingAssignment(market, placement={0: 2, 1: 2, 2: 4})
        assert a.coordinated_cost + a.selfish_cost == pytest.approx(a.social_cost)
        assert a.coordinated_cost == pytest.approx(a.provider_cost(0))

    def test_occupancy(self, market):
        a = CachingAssignment(market, placement={0: 2, 1: 2, 2: 4})
        assert a.occupancy() == {2: 2, 4: 1}


class TestProviderCosts:
    """``provider_costs`` against per-provider ``provider_cost``, with ``==``."""

    @pytest.mark.parametrize("allow_remote", [False, True])
    @pytest.mark.parametrize("size,seed", [(100, 1), (100, 2), (250, 1), (250, 2)])
    def test_paper_markets(self, size, seed, allow_remote):
        network = random_mec_network(size, rng=seed)
        market = generate_market(
            network, PAPER.n_providers, params=PAPER.workload, rng=seed + 1
        )
        result = lcf(market, 1 - PAPER.one_minus_xi, allow_remote=allow_remote)
        for a in (appro(market, allow_remote=allow_remote), result.assignment):
            assert bool(a.rejected) == allow_remote
            ids = [p.provider_id for p in market.providers]
            assert a.provider_costs() == {pid: a.provider_cost(pid) for pid in ids}
            for group in (market.coordinated, market.selfish):
                members = [p.provider_id for p in group]
                assert a.cost_of(members) == sum(a.provider_cost(pid) for pid in members)


class TestCapacities:
    def test_feasible_assignment_checks_out(self, market):
        a = CachingAssignment(market, placement={0: 2, 1: 2, 2: 4})
        a.check_capacities()
        assert a.is_feasible()

    def test_overload_detected(self):
        net = build_line_network(compute=1.5)  # each provider needs 1.0
        providers = [build_provider(i) for i in range(2)]
        market = ServiceMarket(net, providers)
        a = CachingAssignment(market, placement={0: 2, 1: 2})
        with pytest.raises(CapacityError):
            a.check_capacities()
        assert not a.is_feasible()

    def test_bandwidth_overload_detected(self):
        net = build_line_network(bandwidth=15.0)  # each provider needs 10
        providers = [build_provider(i) for i in range(2)]
        market = ServiceMarket(net, providers)
        a = CachingAssignment(market, placement={0: 2, 1: 2})
        with pytest.raises(CapacityError):
            a.check_capacities()


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as watch:
            sum(range(1000))
        assert watch.elapsed >= 0.0
