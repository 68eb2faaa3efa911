"""Tests for Price-of-Anarchy measurement."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.game.congestion import SingletonCongestionGame
from repro.game.poa import empirical_poa, enumerate_equilibria, worst_equilibrium_cost


def pigou_like():
    """Two players, two resources. r0 is cheap but congestible (cost = k),
    r1 costs a flat 2. NE can put both on r0 (cost 2 each, total 4); the
    optimum splits (1 + 2 = 3). PoA = 4/3."""
    return SingletonCongestionGame(
        [0, 1],
        ["r0", "r1"],
        lambda r, k: float(k) if r == "r0" else 0.0,
        lambda p, r: 0.0 if r == "r0" else 2.0,
    )


class TestEnumerateEquilibria:
    def test_pigou_equilibria(self):
        game = pigou_like()
        eqs = list(enumerate_equilibria(game))
        costs = sorted(game.social_cost(e) for e in eqs)
        # both-on-r0 is an NE (deviating to r1 costs 2 = current cost).
        assert {0: "r0", 1: "r0"} in eqs
        assert costs[-1] == pytest.approx(4.0)

    def test_split_profiles_are_equilibria(self):
        game = pigou_like()
        eqs = list(enumerate_equilibria(game))
        assert {0: "r0", 1: "r1"} in eqs

    def test_enumeration_limit(self):
        big = SingletonCongestionGame(
            list(range(30)),
            list(range(10)),
            lambda r, k: float(k),
            lambda p, r: 0.0,
        )
        with pytest.raises(ConfigurationError):
            list(enumerate_equilibria(big))


class TestWorstEquilibrium:
    def test_exact_worst(self):
        game = pigou_like()
        worst, profile = worst_equilibrium_cost(game, exact=True)
        assert worst == pytest.approx(4.0)
        assert game.social_cost(profile) == pytest.approx(4.0)

    def test_sampled_worst_is_a_real_equilibrium(self):
        game = pigou_like()
        worst, profile = worst_equilibrium_cost(game, trials=10, rng=1)
        from tests.oracles.equilibrium_reference import is_nash_equilibrium

        assert is_nash_equilibrium(game, profile)
        assert worst <= 4.0 + 1e-9

    def test_sampled_never_exceeds_exact(self):
        game = pigou_like()
        exact, _ = worst_equilibrium_cost(game, exact=True)
        sampled, _ = worst_equilibrium_cost(game, trials=20, rng=2)
        assert sampled <= exact + 1e-9


class TestEmpiricalPoA:
    def test_pigou_poa(self):
        game = pigou_like()
        poa = empirical_poa(game, optimal_cost=3.0, exact=True)
        assert poa == pytest.approx(4.0 / 3.0)

    def test_rejects_nonpositive_optimum(self):
        with pytest.raises(ConfigurationError):
            empirical_poa(pigou_like(), optimal_cost=0.0)

    def test_poa_at_least_one_for_true_optimum(self):
        game = pigou_like()
        # true optimum is 3.0; any NE costs at least that.
        assert empirical_poa(game, 3.0, exact=True) >= 1.0
