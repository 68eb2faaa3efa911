"""Tests for best-response dynamics."""

import numpy as np
import pytest

from repro.exceptions import InfeasibleError
from repro.game.best_response import (
    best_response_dynamics,
    greedy_feasible_profile,
)
from repro.game.congestion import SingletonCongestionGame
from tests.oracles.equilibrium_reference import is_nash_equilibrium


def make_game(n_players=4, n_resources=3, fixed=None, cap=None):
    fixed = fixed or {}
    kwargs = {}
    if cap is not None:
        kwargs = dict(
            demand=lambda p, r: np.array([1.0]),
            capacity=lambda r: np.array([float(cap)]),
        )
    return SingletonCongestionGame(
        list(range(n_players)),
        [f"r{i}" for i in range(n_resources)],
        lambda r, k: float(k),
        lambda p, r: fixed.get((p, r), 0.0),
        **kwargs,
    )


class TestGreedyFeasibleProfile:
    def test_places_everyone(self):
        game = make_game()
        profile = greedy_feasible_profile(game)
        assert set(profile) == set(game.players)

    def test_respects_base_profile(self):
        game = make_game()
        base = {0: "r2"}
        profile = greedy_feasible_profile(game, base_profile=base)
        assert profile[0] == "r2"

    def test_respects_capacities(self):
        game = make_game(n_players=4, n_resources=2, cap=2)
        profile = greedy_feasible_profile(game)
        occ = game.occupancy(profile)
        assert max(occ.values()) <= 2

    def test_infeasible_raises(self):
        game = make_game(n_players=5, n_resources=2, cap=2)
        with pytest.raises(InfeasibleError):
            greedy_feasible_profile(game)

    def test_greedy_balances_identical_players(self):
        game = make_game(n_players=4, n_resources=2)
        profile = greedy_feasible_profile(game)
        occ = game.occupancy(profile)
        assert sorted(occ.values()) == [2, 2]

    def test_custom_order(self):
        game = make_game(n_players=2, n_resources=2, fixed={(1, "r0"): -0.5})
        profile = greedy_feasible_profile(game, order=[1, 0])
        # player 1 moved first and grabbed its discounted resource alone.
        assert profile[1] == "r0"


class TestBestResponseDynamics:
    def test_reaches_equilibrium(self):
        game = make_game(fixed={(0, "r0"): 0.5, (1, "r1"): 0.2})
        start = {p: "r0" for p in game.players}
        result = best_response_dynamics(game, start)
        assert result.converged
        assert is_nash_equilibrium(game, result.profile)

    def test_potential_never_increases(self):
        game = make_game(n_players=6, n_resources=3)
        start = {p: "r0" for p in game.players}
        result = best_response_dynamics(game, start)
        trace = result.potential_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_equilibrium_start_makes_no_moves(self):
        game = make_game(n_players=2, n_resources=2)
        eq = {0: "r0", 1: "r1"}
        result = best_response_dynamics(game, eq)
        assert result.moves == 0
        assert result.converged

    def test_fixed_players_do_not_move(self):
        game = make_game(n_players=4, n_resources=2)
        start = {p: "r0" for p in game.players}
        result = best_response_dynamics(game, start, movable=[2, 3])
        assert result.profile[0] == "r0"
        assert result.profile[1] == "r0"
        assert is_nash_equilibrium(game, result.profile, movable=[2, 3])

    def test_empty_movable_is_trivially_converged(self):
        game = make_game(n_players=2, n_resources=2)
        start = {0: "r0", 1: "r0"}
        result = best_response_dynamics(game, start, movable=[])
        assert result.converged
        assert result.profile == start

    def test_unknown_movable_rejected(self):
        game = make_game(n_players=2, n_resources=2)
        with pytest.raises(InfeasibleError):
            best_response_dynamics(game, {0: "r0", 1: "r0"}, movable=[42])

    def test_capacitated_moves_respect_capacity(self):
        game = make_game(n_players=4, n_resources=2, cap=2)
        start = {0: "r0", 1: "r0", 2: "r1", 3: "r1"}
        result = best_response_dynamics(game, start)
        occ = game.occupancy(result.profile)
        assert max(occ.values()) <= 2

    def test_selfish_balance_identical_players(self):
        game = make_game(n_players=6, n_resources=3)
        start = {p: "r0" for p in game.players}
        result = best_response_dynamics(game, start)
        occ = game.occupancy(result.profile)
        assert sorted(occ.values()) == [2, 2, 2]

    def test_round_cap_reports_non_convergence(self):
        # Hitting max_rounds is reported as converged=False; there is no
        # raising variant (raise_on_nonconvergence= is gone).
        game = make_game(n_players=6, n_resources=3)
        start = {p: "r0" for p in game.players}
        result = best_response_dynamics(game, start, max_rounds=1)
        assert not result.converged
        assert result.rounds == 1
        with pytest.raises(TypeError):
            best_response_dynamics(game, start, raise_on_nonconvergence=True)

    def test_result_final_potential(self):
        game = make_game(n_players=2, n_resources=2)
        result = best_response_dynamics(game, {0: "r0", 1: "r0"})
        assert result.final_potential == result.potential_trace[-1]
