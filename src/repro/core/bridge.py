"""Bridge a :class:`ServiceMarket` to a :class:`SingletonCongestionGame`.

The congestion game of Section II.E instantiated on a concrete market:
players are provider ids, resources are cloudlet node ids, the shared cost
is ``(alpha_i + beta_i) * g(k)``, the fixed cost ``c_l^ins + c_i^bdw``, and
capacities are the two-dimensional (compute, bandwidth) cloudlet limits.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.game.congestion import SingletonCongestionGame
from repro.game.engine import CompiledGame
from repro.market.market import ServiceMarket


def _compiled_game_view(
    market: ServiceMarket, game: SingletonCongestionGame
) -> CompiledGame:
    """``compiled_factory`` hook: slice the market-wide compiled tables
    instead of re-evaluating the cost callables pair by pair."""
    return CompiledGame.from_market(market.compile(), game)


def market_game(
    market: ServiceMarket,
    players: Optional[Sequence[int]] = None,
) -> SingletonCongestionGame:
    """Construct the service-caching congestion game for a market.

    ``players`` restricts the game to a subset of provider ids (used when
    some providers were rejected and stay out of the market); default is the
    full population ``N``.

    The game's ``compiled_factory`` makes ``game.compile()`` slice the
    market's cached :class:`~repro.market.compiled.CompiledMarket` tables
    instead of evaluating the cost callables pair by pair.
    """
    model = market.cost_model
    net = market.network

    def shared(node: int, occupancy: int) -> float:
        return model.congestion_cost(net.cloudlet_at(node), occupancy)

    def fixed(provider_id: int, node: int) -> float:
        return model.fixed_cost(market.provider(provider_id), net.cloudlet_at(node))

    def demand(provider_id: int, node: int) -> np.ndarray:
        p = market.provider(provider_id)
        return np.array([p.compute_demand, p.bandwidth_demand])

    def capacity(node: int) -> np.ndarray:
        cl = net.cloudlet_at(node)
        return np.array([cl.compute_capacity, cl.bandwidth_capacity])

    if players is None:
        players = [p.provider_id for p in market.providers]
    game = SingletonCongestionGame(
        players=list(players),
        resources=[cl.node_id for cl in net.cloudlets],
        shared_cost=shared,
        fixed_cost=fixed,
        demand=demand,
        capacity=capacity,
    )
    game.compiled_factory = partial(_compiled_game_view, market)
    return game


__all__ = ["market_game"]
