"""Tests for better-response / random-order dynamics."""

import numpy as np

from repro.utils.rng import as_rng
import pytest

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.game.congestion import SingletonCongestionGame
from repro.game.dynamics_variants import improvement_dynamics
from tests.oracles.equilibrium_reference import is_nash_equilibrium


def make_game(n_players=6, n_resources=3, seed=1):
    rng = as_rng(seed)
    fixed = rng.uniform(0, 3, size=(n_players, n_resources))
    return SingletonCongestionGame(
        list(range(n_players)),
        list(range(n_resources)),
        lambda r, k: float(k),
        lambda p, r: float(fixed[p, r]),
    )


def herd_profile(game):
    return {p: game.resources[0] for p in game.players}


class TestBetterResponse:
    def test_reaches_nash(self):
        game = make_game()
        result = improvement_dynamics(game, herd_profile(game), variant="better")
        assert result.converged
        assert is_nash_equilibrium(game, result.profile)

    def test_potential_monotone(self):
        game = make_game(seed=3)
        result = improvement_dynamics(game, herd_profile(game), variant="better")
        trace = result.potential_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_may_take_more_moves_than_best_response(self):
        """Better response takes the first improvement, so it never takes
        fewer total improvement steps than the potential requires; both
        must converge regardless."""
        game = make_game(n_players=10, n_resources=4, seed=5)
        start = herd_profile(game)
        better = improvement_dynamics(game, start, variant="better")
        best = improvement_dynamics(game, start, variant="best_random_order", rng=1)
        assert better.converged and best.converged


class TestRandomOrder:
    def test_reaches_nash(self):
        game = make_game(seed=7)
        result = improvement_dynamics(
            game, herd_profile(game), variant="best_random_order", rng=2
        )
        assert result.converged
        assert is_nash_equilibrium(game, result.profile)

    def test_order_seed_can_select_different_equilibria(self):
        """Different shuffles may settle different equilibria, but every
        fixed point is a Nash equilibrium."""
        game = make_game(n_players=8, n_resources=4, seed=9)
        profiles = set()
        for seed in range(5):
            result = improvement_dynamics(
                game, herd_profile(game), variant="best_random_order", rng=seed
            )
            assert is_nash_equilibrium(game, result.profile)
            profiles.add(tuple(sorted(result.profile.items())))
        assert len(profiles) >= 1  # at least one; possibly several

    def test_deterministic_under_seed(self):
        game = make_game(seed=11)
        a = improvement_dynamics(
            game, herd_profile(game), variant="best_random_order", rng=4
        )
        b = improvement_dynamics(
            game, herd_profile(game), variant="best_random_order", rng=4
        )
        assert a.profile == b.profile


class TestValidation:
    def test_unknown_variant(self):
        # A misspelled option is a configuration error, not an infeasible
        # instance a caller might skip.
        game = make_game()
        with pytest.raises(ConfigurationError):
            improvement_dynamics(game, herd_profile(game), variant="chaotic")

    def test_unknown_movable(self):
        game = make_game()
        with pytest.raises(InfeasibleError):
            improvement_dynamics(game, herd_profile(game), movable=[99])

    def test_pinned_players_stay(self):
        game = make_game()
        start = herd_profile(game)
        result = improvement_dynamics(game, start, movable=[0, 1])
        for p in game.players:
            if p not in (0, 1):
                assert result.profile[p] == start[p]

    def test_empty_movable_trivially_converged(self):
        game = make_game()
        result = improvement_dynamics(game, herd_profile(game), movable=[])
        assert result.converged and result.moves == 0
