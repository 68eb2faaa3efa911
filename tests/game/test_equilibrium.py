"""Tests for the scalar Nash-equilibrium check (the certificate's oracle)."""

import numpy as np
import pytest

from repro.game.congestion import SingletonCongestionGame
from tests.oracles.equilibrium_reference import best_deviation, is_nash_equilibrium


def make_game(fixed=None, cap=None):
    fixed = fixed or {}
    kwargs = {}
    if cap is not None:
        kwargs = dict(
            demand=lambda p, r: np.array([1.0]),
            capacity=lambda r: np.array([float(cap)]),
        )
    return SingletonCongestionGame(
        [0, 1, 2],
        ["a", "b"],
        lambda r, k: float(k),
        lambda p, r: fixed.get((p, r), 0.0),
        **kwargs,
    )


class TestBestDeviation:
    def test_profitable_deviation_found(self):
        game = make_game()
        profile = {0: "a", 1: "a", 2: "a"}  # everyone pays 3; b costs 1
        resource, gain = best_deviation(game, 0, profile)
        assert resource == "b"
        assert gain == pytest.approx(2.0)

    def test_no_deviation_at_equilibrium(self):
        game = make_game()
        profile = {0: "a", 1: "a", 2: "b"}  # 2 vs 2 — stable
        resource, gain = best_deviation(game, 0, profile)
        assert resource is None
        assert gain == 0.0

    def test_capacity_blocks_deviation(self):
        game = make_game(cap=2)
        profile = {0: "a", 1: "b", 2: "b"}
        # player 0 pays 1 on a; moving to b would cost 3 anyway, but even a
        # crowded-but-cheaper resource would be blocked by capacity.
        resource, gain = best_deviation(game, 0, profile)
        assert resource is None

    def test_fixed_cost_shapes_deviation(self):
        game = make_game(fixed={(0, "b"): 10.0})
        profile = {0: "a", 1: "a", 2: "a"}
        resource, gain = best_deviation(game, 0, profile)
        assert resource is None  # b too expensive despite congestion


class TestIsNash:
    def test_balanced_profile_is_nash(self):
        game = make_game()
        assert is_nash_equilibrium(game, {0: "a", 1: "a", 2: "b"})

    def test_herd_is_not_nash(self):
        game = make_game()
        assert not is_nash_equilibrium(game, {0: "a", 1: "a", 2: "a"})

    def test_movable_restriction(self):
        game = make_game()
        herd = {0: "a", 1: "a", 2: "a"}
        # If nobody may move, any profile is an equilibrium of the movable set.
        assert is_nash_equilibrium(game, herd, movable=[])
        assert not is_nash_equilibrium(game, herd, movable=[2])

    def test_eps_tolerance(self):
        game = make_game(fixed={(0, "b"): 0.999999})
        profile = {0: "a", 1: "a", 2: "b"}
        # deviation gain for player 0: cost 2 -> 2 + 0.999999: negative; stable.
        assert is_nash_equilibrium(game, profile)
        loose = make_game(fixed={(0, "b"): -0.5})
        assert not is_nash_equilibrium(loose, profile)
