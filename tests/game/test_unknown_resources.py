"""A profile that uses a resource the game does not have is a configuration
error, on both game kinds and at every entry that reads a profile.

The generic game checks it in ``validate_profile``; the compiled column
gathers (``CompiledGame._columns`` and ``CompiledMarket._columns``) turn a
lookup miss into the same :class:`ConfigurationError`, naming the resource,
so the market game's ``validate_profile`` and the certificate (which does
not validate) report it too.
"""

from __future__ import annotations

import pytest

from repro.core import market_game
from repro.exceptions import ConfigurationError
from repro.game import best_response_dynamics, certify_equilibrium
from repro.game.dynamics_variants import improvement_dynamics
from repro.market.market import ServiceMarket

from tests.game.test_congestion import linear_game

ENTRIES = {
    "validate_profile": lambda game, profile: game.validate_profile(profile),
    "certify_equilibrium": certify_equilibrium,
    "best_response_dynamics": best_response_dynamics,
    "improvement_dynamics": improvement_dynamics,
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("capacitated", [False, True])
def test_generic_game_rejects_unknown_resource(entry, capacitated):
    game = linear_game(n_players=2, capacitated=capacitated)
    with pytest.raises(ConfigurationError, match="'zz'"):
        ENTRIES[entry](game, {0: "zz", 1: "r0"})


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_market_game_rejects_non_cloudlet_node(entry, small_market: ServiceMarket):
    game = market_game(small_market)
    dc_node = small_market.network.data_centers[0].node_id
    profile = {p: game.resources[0] for p in game.players}
    profile[game.players[-1]] = dc_node
    with pytest.raises(ConfigurationError, match=rf"\b{dc_node}\b"):
        ENTRIES[entry](game, profile)


def test_compiled_gathers_name_the_resource(small_market: ServiceMarket):
    game = market_game(small_market)
    profile = {p: game.resources[0] for p in game.players}
    profile[game.players[0]] = 10**6
    cm = small_market.compile()
    with pytest.raises(ConfigurationError, match="1000000"):
        cm.load_matrix(profile)
    with pytest.raises(ConfigurationError, match="1000000"):
        cm.occupancy_vector(profile)
    c = game.compile()
    with pytest.raises(ConfigurationError, match="1000000"):
        c.occupancy_vector(profile)
    with pytest.raises(ConfigurationError, match="1000000"):
        c.load_matrix(profile)

