"""Property-based invariants of best-response dynamics.

Seeded-random instances (no external property-testing dependency) checking
the game-theoretic contracts the library's kernel and both reference
engines of ``tests/oracles/best_response_reference.py`` must uphold on
*every* run:

* Rosenthal's potential decreases strictly on every improving move — the
  exact-potential property (Theorem: Phi changes by exactly the mover's
  cost improvement) plus the strict-improvement threshold;
* the per-round potential trace is non-increasing and consistent with the
  per-move deltas;
* a converged run ends in a Nash equilibrium of the movable set;
* capacitated runs never overload a resource.
"""

import numpy as np

from repro.utils.rng import as_rng
import pytest

from repro.exceptions import InfeasibleError
from repro.game.best_response import greedy_feasible_profile
from repro.game.engine import IMPROVEMENT_EPS
from repro.game.equilibrium import is_nash_equilibrium

from tests.game.test_engine_equivalence import random_game
from tests.oracles.best_response_reference import DYNAMICS


def _converging_instances(seed, count):
    """Yield (game, start) pairs with a feasible greedy start."""
    rng = as_rng(seed)
    produced = 0
    attempts = 0
    while produced < count and attempts < 4 * count:
        attempts += 1
        game = random_game(rng)
        try:
            start = greedy_feasible_profile(game)
        except InfeasibleError:
            continue
        produced += 1
        yield game, start
    assert produced == count


@pytest.mark.parametrize("engine", ["naive", "incremental", "batch"])
class TestPotentialInvariants:
    def test_every_improving_move_strictly_decreases_potential(self, engine):
        for game, start in _converging_instances(101, 12):
            result = DYNAMICS[engine](game, start, record_moves=True)
            assert result.moves == len(result.move_log)
            for player, old, new, delta in result.move_log:
                assert old != new
                # Strict improvement: the engine only moves when the new
                # cost beats the old by more than the epsilon threshold.
                assert delta < -IMPROVEMENT_EPS

    def test_trace_is_nonincreasing_and_matches_move_deltas(self, engine):
        for game, start in _converging_instances(202, 12):
            result = DYNAMICS[engine](game, start, record_moves=True)
            trace = result.potential_trace
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
            total_delta = sum(delta for _, _, _, delta in result.move_log)
            assert trace[0] + total_delta == pytest.approx(trace[-1], abs=1e-6)

    def test_converged_profile_is_nash(self, engine):
        for game, start in _converging_instances(303, 12):
            result = DYNAMICS[engine](game, start)
            assert result.converged
            assert is_nash_equilibrium(game, result.profile)

    def test_capacities_never_violated(self, engine):
        rng = as_rng(404)
        checked = 0
        attempts = 0
        while checked < 10 and attempts < 60:
            attempts += 1
            game = random_game(rng)
            if not game.capacitated:
                continue
            try:
                start = greedy_feasible_profile(game)
            except InfeasibleError:
                continue
            result = DYNAMICS[engine](game, start)
            loads = game.loads(result.profile)
            for resource, load in loads.items():
                assert np.all(load <= game.capacity_of(resource) + 1e-9)
            checked += 1
        assert checked == 10
