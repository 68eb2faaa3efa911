"""Property-based tests for the congestion-game framework."""

import numpy as np

from repro.utils.rng import as_rng
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.game.best_response import best_response_dynamics, greedy_feasible_profile
from repro.game.congestion import SingletonCongestionGame
from tests.oracles.equilibrium_reference import is_nash_equilibrium

COMMON = dict(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def games_and_profiles(draw, max_players=6, max_resources=4):
    n_players = draw(st.integers(2, max_players))
    n_resources = draw(st.integers(2, max_resources))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = as_rng(seed)
    shared_coeff = rng.uniform(0.1, 2.0, size=n_resources)
    fixed = rng.uniform(0.0, 5.0, size=(n_players, n_resources))
    resources = list(range(n_resources))
    game = SingletonCongestionGame(
        list(range(n_players)),
        resources,
        lambda r, k: shared_coeff[r] * k,
        lambda p, r: float(fixed[p, r]),
    )
    profile = {p: int(rng.integers(0, n_resources)) for p in range(n_players)}
    return game, profile


class TestPotentialProperties:
    @given(data=games_and_profiles())
    @settings(**COMMON)
    def test_exact_potential_property(self, data):
        """For random unilateral moves, delta(potential) == delta(mover cost)."""
        game, profile = data
        player = game.players[0]
        for target in game.resources:
            if target == profile[player]:
                continue
            after = {**profile, player: target}
            d_phi = game.potential(after) - game.potential(profile)
            d_cost = game.cost(
                player, target, game.occupancy(after)[target]
            ) - game.cost(player, profile[player], game.occupancy(profile)[profile[player]])
            assert d_phi == pytest.approx(d_cost)

    @given(data=games_and_profiles())
    @settings(**COMMON)
    def test_best_response_converges_to_nash(self, data):
        game, profile = data
        result = best_response_dynamics(game, profile, max_rounds=500)
        assert result.converged
        assert is_nash_equilibrium(game, result.profile)

    @given(data=games_and_profiles())
    @settings(**COMMON)
    def test_potential_trace_monotone_nonincreasing(self, data):
        game, profile = data
        result = best_response_dynamics(game, profile, max_rounds=500)
        trace = result.potential_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    @given(data=games_and_profiles())
    @settings(**COMMON)
    def test_social_cost_is_sum_of_player_costs(self, data):
        game, profile = data
        total = sum(game.player_cost(p, profile) for p in game.players)
        assert game.social_cost(profile) == pytest.approx(total)


class TestGreedyProperties:
    @given(data=games_and_profiles())
    @settings(**COMMON)
    def test_greedy_profile_is_complete_and_valid(self, data):
        game, _ = data
        profile = greedy_feasible_profile(game)
        game.validate_profile(profile)
