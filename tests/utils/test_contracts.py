"""Tests for the REPRO_DEBUG_INVARIANTS runtime contract layer."""

import numpy as np
import pytest

from repro.exceptions import InvariantViolation
from repro.game.best_response import greedy_feasible_profile
from repro.game.congestion import SingletonCongestionGame
from repro.utils.contracts import (
    ENV_FLAG,
    check_placement_capacity,
    check_potential_accumulator,
    check_potential_descends,
    check_profile_capacity,
    invariant_capacity_feasible,
    invariant_potential_descends,
    invariants_active,
)
from tests.oracles.best_response_reference import DYNAMICS


class FakeGame:
    """Duck-typed capacitated game: one resource, capacity 1.0."""

    capacitated = True

    def __init__(self, load):
        self._load = load

    def loads(self, profile):
        return {"r": np.array([self._load])}

    def capacity_of(self, resource):
        return np.array([1.0])

    def potential(self, profile):
        return 5.0


class TestFlag:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not invariants_active()

    def test_on(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert invariants_active()

    def test_other_values_do_not_activate(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "yes")
        assert not invariants_active()


class TestCheckers:
    def test_profile_within_capacity_passes(self):
        check_profile_capacity(FakeGame(0.9), {"p": "r"})

    def test_profile_at_capacity_plus_eps_passes(self):
        check_profile_capacity(FakeGame(1.0), {"p": "r"})

    def test_overloaded_profile_raises(self):
        with pytest.raises(InvariantViolation, match="capacity"):
            check_profile_capacity(FakeGame(1.5), {"p": "r"})

    def test_descending_trace_passes(self):
        check_potential_descends([10.0, 7.0, 7.0, 3.0])

    def test_ascending_trace_raises(self):
        with pytest.raises(InvariantViolation, match="ascent"):
            check_potential_descends([10.0, 7.0, 9.0])

    def test_tiny_float_wobble_tolerated(self):
        check_potential_descends([10.0, 10.0 + 1e-9])

    def test_accumulator_match_passes(self):
        check_potential_accumulator(FakeGame(0.0), {}, 5.0 + 1e-10)

    def test_accumulator_drift_raises(self):
        with pytest.raises(InvariantViolation, match="drifted"):
            check_potential_accumulator(FakeGame(0.0), {}, 6.0)

    def test_placement_capacity_market_form(self, small_market):
        placement = {}
        check_placement_capacity(small_market, placement)
        overloaded_node = small_market.network.cloudlets[0].node_id
        placement = {p.provider_id: overloaded_node for p in small_market.providers}
        loads0 = sum(p.compute_demand for p in small_market.providers)
        if loads0 > small_market.network.cloudlets[0].compute_capacity:
            with pytest.raises(InvariantViolation):
                check_placement_capacity(small_market, placement)


class TestDecorators:
    def test_inactive_flag_skips_check(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)

        @invariant_potential_descends()
        def produces_ascent():
            return [1.0, 2.0]

        assert produces_ascent() == [1.0, 2.0]

    def test_active_flag_enforces(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")

        @invariant_potential_descends()
        def produces_ascent():
            return [1.0, 2.0]

        with pytest.raises(InvariantViolation):
            produces_ascent()

    def test_capacity_decorator_tuple_result(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")

        @invariant_capacity_feasible()
        def overload(game):
            return ({"p": "r"}, True, 1)

        with pytest.raises(InvariantViolation):
            overload(FakeGame(2.0))

    def test_real_dynamics_pass_under_contracts(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        game = SingletonCongestionGame(
            players=["a", "b", "c"],
            resources=["r1", "r2"],
            shared_cost=lambda r, k: float(k),
            fixed_cost=lambda p, r: 1.0 if r == "r1" else 1.5,
        )
        profile = greedy_feasible_profile(game)
        for engine in ("incremental", "naive", "batch"):
            result = DYNAMICS[engine](game, profile)
            assert result.converged
