"""Differential tests: the library's dynamics against the naive reference.

The library's best-response kernel is only allowed to change *how fast*
best-response dynamics run, never *what* they compute. These tests lock
that down against the naive oracle of
``tests/oracles/best_response_reference.py`` on ~50 randomized instances —
synthetic congestion games and full service markets with varying cloudlet
counts, capacities and selfish fractions xi — and additionally pin the
parallel sweep harness to its serial twin (bit-identical metrics).

Potential traces are compared with ``allclose`` at 1e-9: the kernel
accumulates Rosenthal-potential deltas instead of recomputing the sum,
which reorders float additions (~1e-15 relative drift). Profiles, move
counts, rounds and convergence flags must match exactly.
"""

import numpy as np

from repro.utils.rng import as_rng
import pytest

from repro.core.bridge import market_game
from repro.core.lcf import lcf
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.experiments.harness import default_algorithms, sweep
from repro.game.best_response import best_response_dynamics, greedy_feasible_profile
from repro.game.congestion import SingletonCongestionGame
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from tests.oracles.best_response_reference import naive_best_response_dynamics, use_kernel

#: Non-wall-clock AlgorithmMetrics fields that must be bit-identical.
METRIC_FIELDS = ("social_cost", "coordinated_cost", "selfish_cost", "rejected", "samples")


def random_game(rng: np.random.Generator) -> SingletonCongestionGame:
    """A random singleton congestion game; ~half the draws are capacitated."""
    n_players = int(rng.integers(3, 25))
    n_resources = int(rng.integers(2, 8))
    fixed = rng.uniform(0.0, 5.0, size=(n_players, n_resources))
    slope = float(rng.uniform(0.5, 3.0))
    kwargs = {}
    if rng.integers(0, 2):
        demands = rng.uniform(0.5, 2.0, size=n_players)
        cap = float(demands.sum()) / n_resources * float(rng.uniform(1.3, 2.5))
        kwargs = dict(
            demand=lambda p, r, d=demands: np.array([d[p]]),
            capacity=lambda r, c=cap: np.array([c]),
        )
    return SingletonCongestionGame(
        list(range(n_players)),
        [f"r{j}" for j in range(n_resources)],
        lambda r, k, s=slope: s * float(k),
        lambda p, r, f=fixed: float(f[p, int(r[1:])]),
        **kwargs,
    )


def assert_same_dynamics(game, start, movable=None):
    """Run the library and the naive oracle from the same start and
    compare everything."""
    naive = naive_best_response_dynamics(
        game, dict(start), movable=movable, record_moves=True
    )
    lib = best_response_dynamics(
        game, dict(start), movable=movable, record_moves=True
    )
    assert lib.profile == naive.profile
    assert lib.moves == naive.moves
    assert lib.rounds == naive.rounds
    assert lib.converged == naive.converged
    assert len(lib.potential_trace) == len(naive.potential_trace)
    assert np.allclose(lib.potential_trace, naive.potential_trace, rtol=1e-9, atol=1e-9)
    assert [m[:3] for m in lib.move_log] == [m[:3] for m in naive.move_log]
    assert np.allclose(
        [m[3] for m in lib.move_log], [m[3] for m in naive.move_log],
        rtol=1e-9, atol=1e-9,
    )
    return naive


class TestSyntheticGames:
    def test_fifty_random_games_agree(self):
        rng = as_rng(20200707)
        compared = 0
        attempts = 0
        while compared < 35 and attempts < 120:
            attempts += 1
            game = random_game(rng)
            try:
                start = greedy_feasible_profile(game)
            except InfeasibleError:
                continue  # over-tight capacitated draw; not this test's target
            assert_same_dynamics(game, start)
            compared += 1
        assert compared == 35

    def test_restricted_movable_sets_agree(self):
        rng = as_rng(7)
        for _ in range(8):
            game = random_game(rng)
            try:
                start = greedy_feasible_profile(game)
            except InfeasibleError:
                continue
            k = max(1, len(game.players) // 2)
            movable = list(game.players)[:k]
            assert_same_dynamics(game, start, movable=movable)

    def test_unknown_engine_rejected(self):
        # There is one kernel: an engine name is no longer an option.
        game = random_game(as_rng(3))
        start = greedy_feasible_profile(game)
        with pytest.raises(TypeError, match="engine"):
            best_response_dynamics(game, start, engine="turbo")


class TestMarketGames:
    @pytest.mark.parametrize("n_nodes,n_providers,seed", [
        (30, 10, 1), (30, 18, 2), (50, 12, 3), (50, 25, 4),
        (80, 15, 5), (80, 30, 6), (40, 20, 7), (60, 24, 8),
    ])
    def test_market_dynamics_agree(self, n_nodes, n_providers, seed):
        network = random_mec_network(n_nodes, rng=seed)
        market = generate_market(network, n_providers, rng=seed + 100)
        game = market_game(market)
        start = greedy_feasible_profile(game)
        assert_same_dynamics(game, start)

    @pytest.mark.parametrize("xi", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("information", ["posted_price", "full"])
    def test_lcf_engines_agree(self, xi, information):
        network = random_mec_network(40, rng=11)
        market = generate_market(network, 16, rng=12)
        with use_kernel("naive"):
            naive = lcf(market, xi=xi, allow_remote=True, information=information)
        lib = lcf(market, xi=xi, allow_remote=True, information=information)
        assert lib.assignment.placement == naive.assignment.placement
        assert lib.assignment.rejected == naive.assignment.rejected
        assert lib.coordinated_ids == naive.coordinated_ids
        assert lib.br_rounds == naive.br_rounds
        assert lib.br_moves == naive.br_moves
        assert lib.is_equilibrium == naive.is_equilibrium


def _tiny_market(_x, seed):
    network = random_mec_network(30, rng=seed)
    return generate_market(network, 10, rng=seed + 1)


def _tiny_algorithms(_x):
    return default_algorithms(0.3, True)


class TestParallelSweepIdentity:
    def test_parallel_metrics_bit_identical_to_serial(self):
        kwargs = dict(
            name="ident",
            x_label="x",
            x_values=[0, 1, 2],
            make_market=_tiny_market,
            make_algorithms=_tiny_algorithms,
            repetitions=2,
        )
        serial = sweep(workers=1, **kwargs)
        parallel = sweep(workers=2, **kwargs)
        assert serial.x_values == parallel.x_values
        for point_s, point_p in zip(serial.points, parallel.points):
            assert set(point_s) == set(point_p)
            for alg in point_s:
                for f in METRIC_FIELDS:
                    assert getattr(point_s[alg], f) == getattr(point_p[alg], f), (
                        f"{alg}.{f} differs between serial and parallel sweeps"
                    )

    def test_closures_are_rejected_with_helpful_error(self):
        def closure_market(_x, seed):  # not picklable
            return _tiny_market(_x, seed)

        with pytest.raises(ConfigurationError, match="picklable"):
            sweep(
                name="bad",
                x_label="x",
                x_values=[0, 1],
                # reprolint: ok[R3] intentionally unpicklable: asserts the helpful error
                make_market=closure_market,
                make_algorithms=_tiny_algorithms,
                repetitions=2,
                workers=2,
            )
