"""Cross-algorithm invariants on random markets (hypothesis)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import appro, jo_offload_cache, lcf, offload_cache
from repro.core.optimal import optimal_caching
from repro.exceptions import InfeasibleError
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

COMMON = dict(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def markets(draw):
    seed = draw(st.integers(0, 5_000))
    n_nodes = draw(st.integers(30, 80))
    n_providers = draw(st.integers(4, 20))
    network = random_mec_network(n_nodes, rng=seed)
    return generate_market(network, n_providers, rng=seed + 1)


class TestAlgorithmInvariants:
    @given(market=markets())
    @settings(**COMMON)
    def test_every_algorithm_is_feasible_and_complete(self, market):
        runners = [
            lambda m: lcf(m, xi=0.7, allow_remote=True).assignment,
            lambda m: appro(m, allow_remote=True),
            jo_offload_cache,
            offload_cache,
        ]
        for runner in runners:
            assignment = runner(market)
            assignment.check_capacities()
            covered = len(assignment.placement) + len(assignment.rejected)
            assert covered == market.num_providers
            assert assignment.social_cost > 0

    @given(market=markets())
    @settings(**COMMON)
    def test_lcf_full_coordination_equals_appro(self, market):
        result = lcf(market, xi=1.0, allow_remote=True)
        assert result.assignment.placement == result.appro_assignment.placement
        assert result.assignment.social_cost == pytest.approx(
            result.appro_assignment.social_cost
        )

    @given(market=markets())
    @settings(**COMMON)
    def test_algorithms_are_idempotent_on_the_market(self, market):
        """Running any algorithm must not mutate shared state that changes
        another algorithm's subsequent answer."""
        first = jo_offload_cache(market).social_cost
        lcf(market, xi=0.5, allow_remote=True)
        appro(market, allow_remote=True)
        offload_cache(market)
        assert jo_offload_cache(market).social_cost == pytest.approx(first)

    @given(market=markets())
    @settings(**COMMON)
    def test_optimal_feasible_when_market_cacheable(self, market):
        try:
            result = optimal_caching(market)
        except InfeasibleError:
            return
        result.check_capacities()
        assert len(result.placement) == market.num_providers
        opt = result.social_cost
        for heuristic in (appro, jo_offload_cache, offload_cache):
            assert opt <= heuristic(market).social_cost * (1 + 1e-9)
