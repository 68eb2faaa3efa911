"""The batch kernel's bulk state builds equal the per-player loops.

Every ``_BatchState`` starts from a profile's occupancy and load tables.
``CompiledGame`` (its generic per-pair build and ``from_market``) and
``CompiledMarket`` build them in bulk — ``np.bincount`` for occupancy,
``np.add.at`` in profile order for loads — and must equal, with ``==``,
the one-player-at-a-time loops kept in ``tests/oracles/state_reference.py``.
The profiles cover non-id orders, many providers on the same cloudlet,
the empty profile, and the market game's broadcast ``demand`` table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.dynamics import PopulationProcess
from repro.game.engine import market_game
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.rng import as_rng
from tests.oracles.object_graph_reference import object_market_game
from tests.oracles.state_reference import (
    loop_loads,
    loop_market_loads,
    loop_market_occupancy,
    loop_occupancy,
)

SEEDS = (1, 2, 3)
PROFILES = ("reversed", "shuffled", "crowded", "empty")


@lru_cache(maxsize=None)
def market_of(case):
    if case == "delta":
        # Three population deltas: tombstoned and recycled table rows, so
        # physical rows are no longer in provider-id order.
        network = random_mec_network(80, rng=7)
        population = PopulationProcess(
            network, arrival_rate=6.0, mean_lifetime=3.0, rng=8,
            initial_population=40,
        )
        market = ServiceMarket(
            network, population.present, pricing=Pricing.random(9)
        )
        market.compile()
        for _ in range(3):
            event = population.step()
            by_id = {p.provider_id: p for p in population.present}
            market.apply(MarketDelta(
                arrivals=tuple(by_id[pid] for pid in sorted(event.arrived)),
                departures=event.departed,
            ))
        return market
    return generate_market(random_mec_network(60, rng=case), 40, rng=case + 1)


def make_profile(players, nodes, kind, seed):
    """A provider -> cloudlet profile; capacity is not respected (the
    builds only add, they never check)."""
    rng = as_rng(seed)
    if kind == "empty":
        return {}
    if kind == "reversed":
        order = sorted(players, reverse=True)
        cols = rng.integers(0, len(nodes), size=len(order))
    elif kind == "shuffled":
        order = list(rng.permutation(sorted(players)).tolist())
        cols = rng.integers(0, len(nodes), size=len(order))
    else:  # crowded: every provider on one of two cloudlets
        order = list(rng.permutation(sorted(players)).tolist())
        cols = rng.integers(0, 2, size=len(order))
    return {p: nodes[j] for p, j in zip(order, cols.tolist())}


def assert_same(bulk, loop):
    assert bulk.dtype == loop.dtype
    assert bulk.shape == loop.shape
    assert np.array_equal(bulk, loop)


CASES = list(SEEDS) + ["delta"]


@pytest.mark.parametrize("kind", PROFILES)
@pytest.mark.parametrize("case", CASES)
class TestBulkState:
    def test_compiled_market(self, case, kind):
        cm = market_of(case).compile()
        profile = make_profile(cm.provider_ids, cm.cloudlet_nodes, kind, 11)
        assert_same(cm.occupancy_vector(profile), loop_market_occupancy(cm, profile))
        assert_same(cm.load_matrix(profile), loop_market_loads(cm, profile))

    @pytest.mark.parametrize("build", ["from_market", "generic"])
    def test_compiled_game(self, case, kind, build):
        market = market_of(case)
        make_game = market_game if build == "from_market" else object_market_game
        # Players in non-id order, so table rows are not provider ids.
        players = sorted(market.compile().provider_ids, key=lambda p: (p * 7) % 13)
        c = make_game(market, players=players).compile()
        if build == "from_market":
            # The market game's demand is one row per player broadcast
            # over the resource axis, not a materialised table.
            assert c.demand.strides[1] == 0
        profile = make_profile(players, c.resources, kind, 12)
        assert_same(c.occupancy_vector(profile), loop_occupancy(c, profile))
        assert_same(c.load_matrix(profile), loop_loads(c, profile))


def test_loads_fold_in_profile_order():
    """The bulk loads add in profile order, not in some sorted order:
    reordering a crowded profile changes the float sums, and the bulk
    build follows the loop either way."""
    cm = market_of(1).compile()
    profile = make_profile(cm.provider_ids, cm.cloudlet_nodes, "crowded", 3)
    flipped = dict(reversed(list(profile.items())))
    a, b = cm.load_matrix(profile), cm.load_matrix(flipped)
    assert np.array_equal(a, loop_market_loads(cm, profile))
    assert np.array_equal(b, loop_market_loads(cm, flipped))
    assert np.allclose(a, b) and not np.array_equal(a, b)
