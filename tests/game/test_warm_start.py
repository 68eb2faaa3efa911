"""Warm-started best response: carrying equilibria across market deltas.

``warm_started_best_response`` is the game-layer half of the mutation
protocol: survivors keep their strategies, only the players the delta
disturbed (arrivals, capacity evictees) re-enter through the queue. These
tests pin the three phases — restriction, eviction, queue entry — and the
``scope`` semantics. Tests parametrized over ``engine`` settle the queue
on the library's batch kernel and on the incremental reference engine of
``tests/oracles/best_response_reference.py``.
"""

import numpy as np
import pytest

from repro.exceptions import InfeasibleError
from repro.game.congestion import SingletonCongestionGame
from repro.game.engine import warm_started_best_response
from repro.game.equilibrium import is_nash_equilibrium
from repro.utils.validation import CAPACITY_EPS
from tests.oracles.best_response_reference import incremental_best_response, use_kernel


def make_game(players, n_resources=3, fixed=None, cap=None, weights=None):
    fixed = fixed or {}
    kwargs = {}
    if cap is not None:
        weights = weights or {}
        kwargs = dict(
            demand=lambda p, r: np.array([float(weights.get(p, 1.0))]),
            capacity=lambda r: np.array([float(cap)]),
        )
    return SingletonCongestionGame(
        list(players),
        [f"r{i}" for i in range(n_resources)],
        lambda r, k: float(k),
        lambda p, r: fixed.get((p, r), 0.0),
        **kwargs,
    )


class TestWarmStartedBestResponse:
    def test_rejects_unknown_scope(self):
        game = make_game([0, 1])
        with pytest.raises(InfeasibleError, match="scope"):
            warm_started_best_response(game, {}, scope="everything")

    def test_survivors_are_pinned_under_queue_scope(self):
        # Survivors sit on r0 even though r1 is strictly cheaper for them;
        # queue scope must not touch them.
        fixed = {(p, "r1"): -5.0 for p in (0, 1)}
        game = make_game([0, 1, 2], fixed=fixed)
        prior = {0: "r0", 1: "r0"}
        profile, converged, _, _, _, _ = warm_started_best_response(
            game, prior, scope="queue"
        )
        assert converged
        assert profile[0] == "r0" and profile[1] == "r0"
        assert 2 in profile  # the entrant was placed

    def test_all_scope_lets_survivors_move(self):
        fixed = {(p, "r1"): -5.0 for p in (0, 1)}
        game = make_game([0, 1, 2], fixed=fixed)
        prior = {0: "r0", 1: "r0"}
        profile, converged, _, _, _, _ = warm_started_best_response(
            game, prior, scope="all"
        )
        assert converged
        assert profile[0] == "r1" and profile[1] == "r1"
        assert is_nash_equilibrium(game, profile)

    def test_departed_players_and_resources_are_dropped(self):
        game = make_game([0, 1], n_resources=2)
        prior = {0: "r0", 99: "r1", 1: "r_gone"}
        profile, converged, _, _, _, _ = warm_started_best_response(game, prior)
        assert converged
        assert set(profile) == {0, 1}
        assert profile[0] == "r0"  # the only valid prior entry survived
        assert profile[1] in game.resources

    def test_empty_prior_is_a_cold_start_at_equilibrium(self):
        game = make_game([0, 1, 2, 3], n_resources=2)
        profile, converged, _, _, _, _ = warm_started_best_response(game, {})
        assert converged
        # Everyone queued, so queue scope == full best response.
        assert is_nash_equilibrium(game, profile)

    def test_capacity_shrink_evicts_largest_demand_first(self):
        # Prior: all three on r0 with weights 3 > 2 > 1 (total 6). The new
        # game caps resources at 3.5: evicting the largest (player 0, w=3)
        # leaves 3 <= 3.5, so exactly player 0 re-enters the queue.
        weights = {0: 3.0, 1: 2.0, 2: 1.0}
        game = make_game([0, 1, 2], cap=3.5, weights=weights)
        prior = {0: "r0", 1: "r0", 2: "r0"}
        profile, converged, _, _, _, _ = warm_started_best_response(game, prior)
        assert converged
        assert profile[1] == "r0" and profile[2] == "r0"
        assert profile[0] != "r0"  # evicted and re-entered elsewhere
        c = game.compile()
        loads = c.load_matrix(profile)
        assert np.all(loads <= c.capacity + CAPACITY_EPS)

    def test_infeasible_entry_raises(self):
        game = make_game([0, 1, 2], n_resources=2, cap=1.0)
        with pytest.raises(InfeasibleError, match="no feasible resource"):
            warm_started_best_response(game, {})

    @pytest.mark.parametrize("engine", ["incremental", "batch"])
    def test_all_scope_with_capacity_evictions(self, engine):
        # Shrunk capacity evicts the largest occupant of r0 AND survivors
        # are free to move: scope="all" must both repair feasibility and
        # land at a full equilibrium of every player.
        weights = {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0}
        fixed = {(1, "r1"): -4.0}  # survivor 1 prefers r1 when free to move
        game = make_game([0, 1, 2, 3], cap=3.5, weights=weights, fixed=fixed)
        prior = {0: "r0", 1: "r0", 2: "r0", 3: "r1"}
        with use_kernel(engine):
            profile, converged, _, moves, _, _ = warm_started_best_response(
                game, prior, scope="all"
            )
        assert converged
        assert set(profile) == {0, 1, 2, 3}
        assert profile[0] == "r2"  # evicted (w=3 no longer fits anywhere else)
        assert profile[1] == "r1"  # survivor escaped under scope="all"
        assert moves >= 1
        assert is_nash_equilibrium(game, profile)
        c = game.compile()
        assert np.all(c.load_matrix(profile) <= c.capacity + CAPACITY_EPS)

    @pytest.mark.parametrize("engine", ["incremental", "batch"])
    def test_empty_queue_is_a_noop_under_queue_scope(self, engine):
        # Prior covers every player and nothing was evicted: the queue is
        # empty, so no dynamics run and the prior survives untouched.
        fixed = {(p, "r1"): -5.0 for p in (0, 1)}
        game = make_game([0, 1], fixed=fixed)
        prior = {0: "r0", 1: "r0"}
        with use_kernel(engine):
            profile, converged, rounds, moves, trace, log = warm_started_best_response(
                game, prior, scope="queue", record_moves=True
            )
        assert converged
        assert profile == prior
        assert moves == 0
        assert log == []
        assert rounds == 1
        assert len(trace) == 2

    @pytest.mark.parametrize("engine", ["incremental", "batch"])
    @pytest.mark.parametrize("scope", ["queue", "all"])
    def test_all_providers_displaced_after_outage(self, engine, scope):
        # An outage zeroes the capacity of the only occupied resource:
        # every provider is displaced at once and must re-enter through
        # the eviction queue onto the surviving resources.
        weights = {p: 1.0 for p in range(4)}
        game = SingletonCongestionGame(
            list(range(4)),
            ["r0", "r1", "r2"],
            lambda r, k: float(k),
            lambda p, r: 0.0,
            demand=lambda p, r: np.array([weights[p]]),
            capacity=lambda r: np.array([0.0 if r == "r0" else 3.0]),
        )
        prior = {p: "r0" for p in range(4)}
        with use_kernel(engine):
            profile, converged, _, _, _, _ = warm_started_best_response(
                game, prior, scope=scope
            )
        assert converged
        assert set(profile) == set(range(4))
        assert all(node != "r0" for node in profile.values())
        c = game.compile()
        assert np.all(c.load_matrix(profile) <= c.capacity + CAPACITY_EPS)
        assert is_nash_equilibrium(game, profile)

    @pytest.mark.parametrize("scope", ["queue", "all"])
    def test_batch_engine_matches_incremental_warm_start(self, scope):
        weights = {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 0.5}
        fixed = {(0, "r1"): -1.0, (3, "r2"): -2.0, (4, "r0"): 0.5}
        game = make_game([0, 1, 2, 3, 4], cap=5.0, weights=weights, fixed=fixed)
        prior = {0: "r0", 1: "r0", 2: "r1"}
        with use_kernel("incremental"):
            incr = warm_started_best_response(
                game, prior, scope=scope, record_moves=True
            )
        batch = warm_started_best_response(
            game, prior, scope=scope, record_moves=True
        )
        assert batch == incr  # full 6-tuple, floats compared with ==

    def test_rejects_unknown_engine(self):
        # There is one kernel: an engine name is no longer an option.
        game = make_game([0, 1])
        with pytest.raises(TypeError, match="engine"):
            warm_started_best_response(game, {}, engine="turbo")

    def test_matches_incremental_best_response_contract(self):
        game = make_game([0, 1, 2, 3])
        prior = {0: "r0", 1: "r1"}
        warm = warm_started_best_response(game, prior, record_moves=True)
        profile, converged, rounds, moves, trace, move_log = warm
        assert converged
        assert isinstance(rounds, int) and isinstance(moves, int)
        assert len(trace) >= 1
        for player, old, new, gain in move_log:
            assert player in game.players
        # The queue-restricted run is reproducible through the incremental
        # reference engine with the same movable set.
        profile2, *_ = incremental_best_response(
            game,
            {0: "r0", 1: "r1", 2: "r0", 3: "r1"},
            movable=[2, 3],
        )
        assert set(profile2) == set(game.players)
