"""The aggregated LP lower bound against the slotted object-graph oracle.

:func:`repro.core.social_cost_lower_bound` reads the market's
:class:`~repro.market.compiled.CompiledMarket` and aggregates the slots of
each cloudlet into one balance row;
:func:`~tests.oracles.object_graph_reference.object_social_cost_lower_bound`
is the slotted LP with one column per (provider, cloudlet, slot), built
from the cost model. Both have the same optimum, so the two values must
agree to solver precision. The slotted form cannot price latency-budget
markets (their forbidden pairs cost ``+inf``), so those are checked
against the exact optimum and LCF instead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core import lcf
from repro.core.lower_bound import social_cost_lower_bound
from repro.core.optimal import optimal_caching
from repro.dynamics import PopulationProcess
from repro.exceptions import InfeasibleError
from repro.market.costs import QuadraticCongestion
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from tests.oracles.object_graph_reference import object_social_cost_lower_bound

SIZES = (50, 150, 250)
SEEDS = (1, 2, 3)
N_PROVIDERS = 40
RTOL = 1e-9

CASES = [f"paper-{n}-{s}" for n in SIZES for s in SEEDS] + ["quadratic", "delta"]


@lru_cache(maxsize=None)
def _market(case: str) -> ServiceMarket:
    if case == "quadratic":
        return generate_market(
            random_mec_network(60, rng=5), 30, rng=6,
            congestion=QuadraticCongestion(scale=2.0),
        )
    if case == "delta":
        # A live market patched by three population deltas: tombstoned and
        # recycled rows, a grown congestion table.
        network = random_mec_network(100, rng=7)
        population = PopulationProcess(
            network, arrival_rate=6.0, mean_lifetime=3.0, rng=8,
            initial_population=40,
        )
        market = ServiceMarket(network, population.present, pricing=Pricing.random(9))
        market.compile()
        for _ in range(3):
            event = population.step()
            by_id = {p.provider_id: p for p in population.present}
            market.apply(MarketDelta(
                arrivals=tuple(by_id[pid] for pid in sorted(event.arrived)),
                departures=event.departed,
            ))
        return market
    _, n, seed = case.split("-")
    return generate_market(
        random_mec_network(int(n), rng=int(seed)), N_PROVIDERS, rng=int(seed) + 1
    )


@lru_cache(maxsize=None)
def _budget_market(n_nodes: int, net_seed: int, n_providers: int, seed: int):
    return generate_market(
        random_mec_network(n_nodes, rng=net_seed), n_providers, rng=seed,
        latency_budget_ms=8.0,
    )


class TestAgainstSlottedOracle:
    @pytest.mark.parametrize("allow_remote", [False, True])
    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_slotted_lp(self, case, allow_remote):
        market = _market(case)
        bound = social_cost_lower_bound(market, allow_remote=allow_remote)
        oracle = object_social_cost_lower_bound(market, allow_remote=allow_remote)
        assert bound == pytest.approx(oracle, rel=RTOL)


class TestLatencyBudgets:
    def test_budget_market_is_bounded_below_its_optimum(self):
        market = _budget_market(25, 3, 6, 4)
        assert np.isinf(market.compile().fixed).any()
        # The slotted LP cannot price a forbidden pair at all.
        with pytest.raises(ValueError):
            object_social_cost_lower_bound(market)
        bound = social_cost_lower_bound(market)
        assert np.isfinite(bound)
        assert bound <= optimal_caching(market).social_cost + 1e-6

    def test_budget_market_with_remote_is_bounded_below_lcf(self):
        market = _budget_market(100, 1, 40, 2)
        bound = social_cost_lower_bound(market, allow_remote=True)
        assert np.isfinite(bound)
        assert bound <= lcf(market, allow_remote=True).assignment.social_cost + 1e-6

    def test_provider_with_no_finite_pair_is_infeasible_without_remote(self):
        market = _budget_market(100, 1, 40, 2)
        cm = market.compile()
        assert np.isinf(cm.fixed[cm.active_rows]).all(axis=1).any()
        with pytest.raises(InfeasibleError):
            social_cost_lower_bound(market)
