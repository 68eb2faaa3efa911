"""Tests for repro.game.congestion (SingletonCongestionGame)."""

import numpy as np
import pytest

from repro.exceptions import CapacityError, ConfigurationError
from repro.game.congestion import SingletonCongestionGame
from tests.oracles.best_response_reference import scalar_move_is_feasible


def linear_game(n_players=3, n_resources=2, fixed=None, capacitated=False):
    players = list(range(n_players))
    resources = [f"r{i}" for i in range(n_resources)]
    fixed = fixed or {}

    def shared(resource, occupancy):
        return float(occupancy)

    def fixed_cost(player, resource):
        return fixed.get((player, resource), 0.0)

    if capacitated:
        return SingletonCongestionGame(
            players,
            resources,
            shared,
            fixed_cost,
            demand=lambda p, r: np.array([1.0]),
            capacity=lambda r: np.array([2.0]),
        )
    return SingletonCongestionGame(players, resources, shared, fixed_cost)


class TestConstruction:
    def test_requires_players_and_resources(self):
        with pytest.raises(ConfigurationError):
            SingletonCongestionGame([], ["r"], lambda r, k: k, lambda p, r: 0)
        with pytest.raises(ConfigurationError):
            SingletonCongestionGame([1], [], lambda r, k: k, lambda p, r: 0)

    def test_unique_ids(self):
        with pytest.raises(ConfigurationError):
            SingletonCongestionGame([1, 1], ["r"], lambda r, k: k, lambda p, r: 0)
        with pytest.raises(ConfigurationError):
            SingletonCongestionGame([1], ["r", "r"], lambda r, k: k, lambda p, r: 0)

    def test_demand_requires_capacity(self):
        with pytest.raises(ConfigurationError):
            SingletonCongestionGame(
                [1], ["r"], lambda r, k: k, lambda p, r: 0,
                demand=lambda p, r: np.array([1.0]),
            )


class TestCosts:
    def test_cost_is_shared_plus_fixed(self):
        game = linear_game(fixed={(0, "r0"): 5.0})
        assert game.cost(0, "r0", 2) == pytest.approx(7.0)
        assert game.cost(1, "r0", 2) == pytest.approx(2.0)

    def test_occupancy_zero_rejected(self):
        game = linear_game()
        with pytest.raises(ValueError):
            game.shared_cost("r0", 0)

    def test_player_and_social_cost(self):
        game = linear_game(fixed={(0, "r0"): 1.0})
        profile = {0: "r0", 1: "r0", 2: "r1"}
        assert game.player_cost(0, profile) == pytest.approx(3.0)  # occ 2 + fixed 1
        assert game.social_cost(profile) == pytest.approx(3.0 + 2.0 + 1.0)


class TestPotential:
    def test_rosenthal_potential_value(self):
        game = linear_game()
        profile = {0: "r0", 1: "r0", 2: "r1"}
        # phi = (1 + 2) for r0 + 1 for r1 = 4
        assert game.potential(profile) == pytest.approx(4.0)

    def test_potential_exactness(self):
        """A unilateral move changes the potential by exactly the mover's
        cost change (the defining property of an exact potential)."""
        game = linear_game(fixed={(0, "r1"): 0.7})
        before = {0: "r0", 1: "r0", 2: "r1"}
        after = {**before, 0: "r1"}
        d_potential = game.potential(after) - game.potential(before)
        d_cost = game.cost(0, "r1", game.occupancy(after)["r1"]) - game.cost(
            0, "r0", game.occupancy(before)["r0"]
        )
        assert d_potential == pytest.approx(d_cost)


class TestCapacities:
    def test_loads(self):
        game = linear_game(capacitated=True)
        loads = game.loads({0: "r0", 1: "r0"})
        assert loads["r0"].tolist() == [2.0]

    def test_move_feasibility(self):
        game = linear_game(capacitated=True)
        profile = {0: "r0", 1: "r0", 2: "r1"}
        # r0 holds 2/2: player 2 cannot move there.
        assert not scalar_move_is_feasible(game, 2, "r0", profile)
        # but a player already on r0 "moving" to r0 stays feasible.
        assert scalar_move_is_feasible(game, 0, "r0", profile)
        assert scalar_move_is_feasible(game, 0, "r1", profile)

    def test_inf_fixed_cost_forbids(self):
        game = linear_game(fixed={(0, "r1"): float("inf")})
        assert not scalar_move_is_feasible(game, 0, "r1", {0: "r0", 1: "r0", 2: "r0"})

    def test_validate_profile_completeness(self):
        game = linear_game()
        with pytest.raises(ConfigurationError):
            game.validate_profile({0: "r0"})
        with pytest.raises(ConfigurationError):
            game.validate_profile({0: "r0", 1: "r0", 2: "r0", 99: "r1"})

    def test_validate_profile_capacity(self):
        game = linear_game(capacitated=True)
        with pytest.raises(CapacityError):
            game.validate_profile({0: "r0", 1: "r0", 2: "r0"})
        game.validate_profile({0: "r0", 1: "r0", 2: "r1"})

    def test_uncapacitated_game_has_no_demand(self):
        game = linear_game()
        assert not game.capacitated
        with pytest.raises(ConfigurationError):
            game.demand_of(0, "r0")
