"""The congestion-toll extension on the compiled tables vs its object-graph
oracle.

``tolled_selfish_market`` is the posted-price entry
(:func:`repro.core.lcf.posted_price_entry`) with a toll vector added, and
``anticipatory_tolls`` reads ``coeff`` and the reference occupancy off the
compiled market. Both must agree with the per-pair ``CostModel`` loops in
:mod:`tests.oracles.object_graph_reference` exactly: the same placement in
the same dict order, the same rejected set, and bit-equal social cost and
toll revenue.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import CachingAssignment
from repro.core.tolls import anticipatory_tolls, tolled_selfish_market
from repro.dynamics.population import PopulationProcess
from repro.market.costs import QuadraticCongestion
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from tests.oracles.object_graph_reference import (
    object_anticipatory_tolls,
    object_tolled_selfish_market,
)

LEVELS = (0.0, 0.5, 1.0, 3.0)


def _paper_market(nodes, seed, **settings):
    return generate_market(
        random_mec_network(nodes, rng=seed), nodes // 3, rng=seed + 10, **settings
    )


def _patched_market():
    """A market moved by three population deltas: its compiled tables
    have tombstoned rows and arrivals in reused ones."""
    network = random_mec_network(80, rng=5)
    population = PopulationProcess(
        network, arrival_rate=6.0, mean_lifetime=3.0, rng=6, initial_population=30
    )
    market = ServiceMarket(network, population.present)
    market.compile()
    for _ in range(3):
        event = population.step()
        by_id = {p.provider_id: p for p in population.present}
        market.apply(
            MarketDelta(
                arrivals=tuple(by_id[pid] for pid in event.arrived),
                departures=event.departed,
            )
        )
    return market


MARKETS = {
    **{
        f"paper-{nodes}-s{seed}": (lambda nodes=nodes, seed=seed: _paper_market(nodes, seed))
        for nodes in (60, 150, 250)
        for seed in (1, 2, 3)
    },
    "quadratic": lambda: _paper_market(150, 4, congestion=QuadraticCongestion()),
    "budget-4ms": lambda: _paper_market(150, 5, latency_budget_ms=4.0),
    "population-deltas": _patched_market,
}


@pytest.fixture(scope="module", params=sorted(MARKETS))
def market(request):
    return MARKETS[request.param]()


def assert_same_outcome(got: CachingAssignment, want: CachingAssignment) -> None:
    assert list(got.placement.items()) == list(want.placement.items())
    assert got.rejected == want.rejected
    assert got.social_cost == want.social_cost
    assert got.info["toll_revenue"] == want.info["toll_revenue"]
    assert got.algorithm == want.algorithm


def test_patched_market_has_non_dense_rows():
    cm = _patched_market().compile()
    assert not np.array_equal(cm.active_rows, np.arange(cm.n_providers))


class TestAnticipatoryTolls:
    @pytest.mark.parametrize("level", LEVELS)
    def test_matches_object_oracle(self, market, level):
        got = anticipatory_tolls(market, level)
        want = object_anticipatory_tolls(market, level)
        assert list(got.items()) == list(want.items())
        assert all(type(t) is float for t in got.values())


class TestTolledSelfishMarket:
    def test_untolled_matches_object_oracle(self, market):
        assert_same_outcome(
            tolled_selfish_market(market), object_tolled_selfish_market(market)
        )

    @pytest.mark.parametrize("level", LEVELS)
    def test_anticipatory_tolls_match_object_oracle(self, market, level):
        tolls = object_anticipatory_tolls(market, level)
        assert_same_outcome(
            tolled_selfish_market(market, tolls),
            object_tolled_selfish_market(market, tolls),
        )

    def test_huge_tolls_send_everyone_remote(self, market):
        tolls = {node: 1e9 for node in market.compile().cloudlet_nodes}
        got = tolled_selfish_market(market, tolls)
        assert_same_outcome(got, object_tolled_selfish_market(market, tolls))
        assert len(got.rejected) == market.num_providers

    def test_partial_tolls_match_object_oracle(self, market):
        nodes = market.compile().cloudlet_nodes
        tolls = {node: 5.0 * (k % 3) for k, node in enumerate(nodes[::2])}
        assert_same_outcome(
            tolled_selfish_market(market, tolls),
            object_tolled_selfish_market(market, tolls),
        )


class TestOccupancy:
    def test_matches_cost_model_in_order(self, market):
        assignment = tolled_selfish_market(market)
        got = assignment.occupancy()
        want = market.cost_model.occupancy(assignment.placement)
        assert list(got.items()) == list(want.items())
