"""Tests for the market congestion game built by ``market_game``."""

import numpy as np
import pytest

from repro.core import market_game


class TestMarketGame:
    def test_players_and_resources(self, small_market):
        game = market_game(small_market)
        assert game.players == [p.provider_id for p in small_market.providers]
        assert game.resources == [c.node_id for c in small_market.network.cloudlets]

    def test_player_subset(self, small_market):
        game = market_game(small_market, players=[0, 2])
        assert game.players == [0, 2]

    def test_costs_match_cost_model(self, small_market):
        game = market_game(small_market)
        model = small_market.cost_model
        provider = small_market.providers[0]
        cloudlet = small_market.network.cloudlets[0]
        for occupancy in (1, 2, 5):
            assert game.cost(provider.provider_id, cloudlet.node_id, occupancy) == (
                pytest.approx(model.cost(provider, cloudlet, occupancy))
            )

    def test_demands_and_capacities(self, small_market):
        game = market_game(small_market)
        provider = small_market.providers[0]
        cloudlet = small_market.network.cloudlets[0]
        demand = game.demand_of(provider.provider_id, cloudlet.node_id)
        assert demand.tolist() == [provider.compute_demand, provider.bandwidth_demand]
        cap = game.capacity_of(cloudlet.node_id)
        assert cap.tolist() == [cloudlet.compute_capacity, cloudlet.bandwidth_capacity]

    def test_game_is_capacitated(self, small_market):
        assert market_game(small_market).capacitated
