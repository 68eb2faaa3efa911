"""A reused runtime never ships a stale shard view.

The pooled settle publishes every shard's sub-view on the runtime's
blob store, and workers memoize what they fetch. Blobs are keyed by the
SHA-256 of their bytes, so a view published for one market (or for one
table state of a market) can never be served for another: a second
market settled on the same runtime, and the same market settled again
after a price delta, equal their serial settles and are certified.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import offload_cache
from repro.game.partitioned import partitioned_best_response
from repro.market.delta import MarketDelta
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.runtime import Runtime


def market_of(seed):
    network = random_mec_network(150, rng=seed)
    return generate_market(network, 80, rng=seed + 1, latency_budget_ms=3.0)


def settle(market, runtime=None):
    start = offload_cache(market).placement
    return partitioned_best_response(market, start, n_shards=4, runtime=runtime)


@pytest.fixture
def pool():
    with Runtime(workers=2) as runtime:
        yield runtime


def test_second_market_on_one_runtime_gets_its_own_views(pool):
    for seed in (3, 4):
        market = market_of(seed)
        pooled = settle(market, pool)
        assert pooled == settle(market)
        assert pooled.certified is True


def test_price_delta_republishes_every_view(pool):
    market = market_of(4)
    assert settle(market, pool) == settle(market)
    cm = market.compile()
    market.apply(
        MarketDelta(
            price_changes={
                node: (3 * float(cm.coeff[j]), 3 * float(cm.coeff[j]))
                for j, node in enumerate(cm.cloudlet_nodes)
            }
        )
    )
    pooled = settle(market, pool)
    assert pooled == settle(market)
    assert pooled.certified is True
