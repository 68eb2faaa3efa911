"""Differential lockdown for the batch-vectorized best-response kernel.

The library's kernel (:mod:`repro.game.batch`) claims more than the naive
and incremental reference engines of
``tests/oracles/best_response_reference.py`` claim of each other: the
Jacobi-propose / Gauss-Seidel-commit rule replays the incremental engine's
move sequence **bit for bit** — identical profiles, move logs, round
counts *and* potential traces (``==``, not ``allclose``), because both
feed the same IEEE operand pairs through the same compiled tables in the
same order.

The matrix here covers that claim against both oracles across 3 seeds x 3
congestion functions (linear, quadratic, M/M/1) x 2 representations
(compiled tables vs the object-graph oracle of
``tests/oracles/object_graph_reference.py``), on synthetic games
and on full service markets, through ``best_response_dynamics`` directly
and through the whole ``lcf`` pipeline. The sparse and dense commit paths
of the kernel are both exercised (the dense path needs
``fired * resources`` above :data:`repro.game.batch.SPARSE_REPROPOSE_BUDGET`).
"""

import contextlib

import numpy as np
import pytest

from repro.core import market_game
from repro.core.lcf import lcf
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.game.batch import SPARSE_REPROPOSE_BUDGET, _BatchState, batch_best_response
from repro.game.best_response import best_response_dynamics, greedy_feasible_profile
from repro.game.congestion import SingletonCongestionGame
from repro.game.partitioned import certify_equilibrium
from repro.market.costs import LinearCongestion, MM1Congestion, QuadraticCongestion
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.rng import as_rng

from tests.game.test_engine_equivalence import random_game
from tests.oracles.best_response_reference import DYNAMICS, use_kernel
from tests.oracles.object_graph_reference import object_market_game, use_object_graph

SEEDS = (131, 257, 509)

CONGESTIONS = {
    "linear": LinearCongestion,
    "quadratic": QuadraticCongestion,
    "mm1": MM1Congestion,
}

#: How each representation builds the market's game and runs a pipeline.
GAMES = {"compiled": market_game, "object": object_market_game}
PIPELINES = {"compiled": contextlib.nullcontext, "object": use_object_graph}
REPRESENTATIONS = tuple(GAMES)


def assert_bit_identical(batch, incremental):
    """Batch vs incremental: everything equal, floats compared with ``==``."""
    assert batch.profile == incremental.profile
    assert batch.moves == incremental.moves
    assert batch.rounds == incremental.rounds
    assert batch.converged == incremental.converged
    assert batch.potential_trace == incremental.potential_trace
    assert batch.move_log == incremental.move_log


def run_three_engines(game, start, movable=None, max_rounds=1000):
    """All three engines from the same start; batch must be bit-identical to
    incremental, and both must agree with the naive oracle up to float
    accumulation order."""
    results = {
        engine: DYNAMICS[engine](
            game, dict(start), movable=movable, max_rounds=max_rounds,
            record_moves=True,
        )
        for engine in ("naive", "incremental", "batch")
    }
    assert_bit_identical(results["batch"], results["incremental"])
    naive, batch = results["naive"], results["batch"]
    assert batch.profile == naive.profile
    assert batch.moves == naive.moves
    assert batch.rounds == naive.rounds
    assert batch.converged == naive.converged
    assert np.allclose(batch.potential_trace, naive.potential_trace,
                       rtol=1e-9, atol=1e-9)
    assert [m[:3] for m in batch.move_log] == [m[:3] for m in naive.move_log]
    return results


class TestSyntheticTripleDifferential:
    def test_forty_random_games_triple_agree(self):
        rng = as_rng(20260808)
        compared = 0
        attempts = 0
        while compared < 40 and attempts < 140:
            attempts += 1
            game = random_game(rng)
            try:
                start = greedy_feasible_profile(game)
            except InfeasibleError:
                continue  # over-tight capacitated draw; not this test's target
            run_three_engines(game, start)
            compared += 1
        assert compared == 40

    def test_restricted_movable_sets_agree(self):
        rng = as_rng(97)
        for _ in range(10):
            game = random_game(rng)
            try:
                start = greedy_feasible_profile(game)
            except InfeasibleError:
                continue
            k = max(1, len(game.players) // 2)
            run_three_engines(game, start, movable=list(game.players)[:k])

    def test_max_rounds_truncation_agrees(self):
        # Truncated runs must stop at identical intermediate states too.
        rng = as_rng(41)
        for _ in range(6):
            game = random_game(rng)
            try:
                start = greedy_feasible_profile(game)
            except InfeasibleError:
                continue
            run_three_engines(game, start, max_rounds=1)

    def test_empty_movable_contract(self):
        game = random_game(as_rng(13))
        start = greedy_feasible_profile(game)
        result = best_response_dynamics(game, start, movable=[])
        assert result.converged
        assert result.rounds == 1
        assert result.moves == 0
        assert len(result.potential_trace) == 2
        assert result.profile == dict(start)

    def test_unknown_movable_player_rejected(self):
        game = random_game(as_rng(17))
        start = greedy_feasible_profile(game)
        with pytest.raises(InfeasibleError, match="unknown players"):
            best_response_dynamics(game, start, movable=["ghost"])


class TestDensePathEquivalence:
    """Force the dense per-turn scan (``fired * m`` above the sparse
    budget) and pin it to the incremental engine bit for bit."""

    def _big_game(self, seed, cap_factor):
        rng = as_rng(seed)
        n, m = 320, 10
        assert n * m > SPARSE_REPROPOSE_BUDGET
        fixed = rng.uniform(1.0, 10.0, size=(n, m))
        weights = rng.uniform(0.5, 2.0, size=n)
        total = float(weights.sum())
        return SingletonCongestionGame(
            list(range(n)),
            list(range(m)),
            lambda r, k: 0.3 * float(k),
            lambda p, r, f=fixed: float(f[p, r]),
            demand=lambda p, r, w=weights: np.array([float(w[p])]),
            capacity=lambda r, c=total * cap_factor / m: np.array([c]),
        )

    # "herded": loose capacity (a single resource holds the whole demand)
    # and everyone starts on resource 0, so the first proposal round fires
    # hundreds of movers at once. "greedy": tight capacity, greedy spread.
    @pytest.mark.parametrize("seed,cap_factor,start_kind", [
        (7, 11.0, "herded"), (8, 1.35, "greedy"),
    ])
    def test_herded_start_matches_incremental(self, seed, cap_factor, start_kind):
        game = self._big_game(seed, cap_factor)
        if start_kind == "herded":
            start = {p: 0 for p in game.players}
            game.validate_profile(start)
        else:
            start = greedy_feasible_profile(game)
        incr = DYNAMICS["incremental"](game, dict(start), record_moves=True)
        batch = best_response_dynamics(game, dict(start), record_moves=True)
        assert incr.moves > 0
        assert_bit_identical(batch, incr)


class TestMarketMatrix:
    """3 seeds x 3 congestion functions x compiled/object representations."""

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("congestion", sorted(CONGESTIONS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dynamics_bit_equal_across_matrix(self, seed, congestion, representation):
        network = random_mec_network(36, rng=seed)
        market = generate_market(
            network, n_providers=16, rng=seed + 1000,
            congestion=CONGESTIONS[congestion](),
        )
        game = GAMES[representation](market)
        start = greedy_feasible_profile(game)
        results = run_three_engines(game, start)
        batch, incr = results["batch"], results["incremental"]
        # Social cost at the converged profile: bit-equal across engines.
        occ = game.occupancy(batch.profile)
        social_batch = sum(
            game.cost(p, r, occ[r]) for p, r in sorted(batch.profile.items())
        )
        occ_i = game.occupancy(incr.profile)
        social_incr = sum(
            game.cost(p, r, occ_i[r]) for p, r in sorted(incr.profile.items())
        )
        assert social_batch == social_incr
        assert batch.final_potential == incr.final_potential

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lcf_pipeline_bit_equal(self, seed, representation):
        network = random_mec_network(36, rng=seed)
        market = generate_market(network, n_providers=14, rng=seed + 2000)
        runs = {}
        for engine in ("naive", "incremental", "batch"):
            with use_kernel(engine), PIPELINES[representation]():
                runs[engine] = lcf(
                    market, xi=0.5, allow_remote=True, information="full",
                    gap_solver="greedy",
                )
        incr, batch = runs["incremental"], runs["batch"]
        assert batch.assignment.placement == incr.assignment.placement
        assert batch.assignment.rejected == incr.assignment.rejected
        assert batch.social_cost == incr.social_cost
        assert batch.br_rounds == incr.br_rounds
        assert batch.br_moves == incr.br_moves
        assert batch.is_equilibrium == incr.is_equilibrium
        naive = runs["naive"]
        assert batch.assignment.placement == naive.assignment.placement
        assert batch.br_moves == naive.br_moves


class TestDirectKernelContract:
    def test_prebuilt_compiled_tables_are_honoured(self):
        # Every entry point reads the game's own cached tables; a hand-in
        # of prebuilt ones is no longer accepted anywhere.
        game = random_game(as_rng(23))
        start = greedy_feasible_profile(game)
        c = game.compile()
        with pytest.raises(TypeError):
            batch_best_response(game, start, compiled=c)
        with pytest.raises(TypeError):
            best_response_dynamics(game, start, compiled=c)
        with pytest.raises(TypeError):
            certify_equilibrium(game, start, compiled=c)
        p1, conv1, r1, m1, t1, log1 = batch_best_response(
            game, start, record_moves=True
        )
        p2, conv2, r2, m2, t2, log2 = batch_best_response(
            game, start, record_moves=True
        )
        assert game.compile() is c
        assert (p1, conv1, r1, m1, t1, log1) == (p2, conv2, r2, m2, t2, log2)

    def test_validates_start_profile(self):
        game = random_game(as_rng(29))
        with pytest.raises(ConfigurationError):
            batch_best_response(game, {"nobody": "nowhere"})


class TestMoverDemandView:
    """The kernel keeps the market game's broadcast demand unmaterialised."""

    def test_market_game_demand_is_a_stride_zero_view(self):
        network = random_mec_network(36, rng=SEEDS[0])
        market = generate_market(network, n_providers=16, rng=SEEDS[0] + 1000)
        game = market_game(market)
        c = game.compile()
        profile = greedy_feasible_profile(game)
        order = list(reversed(game.players))
        state = _BatchState(c, profile, order)
        assert state.demand.shape == (len(order), c.n_resources, 2)
        assert state.demand.strides[1] == 0
        assert not state.demand.flags.writeable  # a view, not a copy
        rows = [c.player_index[p] for p in order]
        assert np.array_equal(state.demand, c.demand[rows])
        # The per-dimension mask equals the materialised all-reduce.
        want = np.all(
            state.loads[None, :, :] + c.demand[rows] <= state.cap_eps[None, :, :],
            axis=2,
        )
        assert np.array_equal(state.feasible_block(0), want)

    def test_generic_game_demand_is_gathered(self):
        game = random_game(as_rng(31))
        c = game.compile()
        profile = greedy_feasible_profile(game)
        state = _BatchState(c, profile, list(game.players))
        assert state.demand.strides[1] != 0
        assert np.array_equal(state.demand, c.demand)
