"""Property tests for the batch best-response kernel.

Three layers of lockdown on :mod:`repro.game.batch`:

1. **Per-round invariants** — on seeded random markets and games, every
   round of the batch dynamics descends the Rosenthal potential, every
   intermediate profile (replayed move by move from the log) stays within
   capacity + ``CAPACITY_EPS``, and runs are armed with
   ``REPRO_DEBUG_INVARIANTS=1`` so the kernel's own contracts
   (capacity-feasible result, non-increasing trace, conflict-free commit
   replay, potential-accumulator agreement) fire on every call.
2. **Deterministic replay** — equal seeds produce bit-identical runs:
   profiles, move logs, potential traces, round/move counts.
3. **Churn fuzz** — a 50-epoch :class:`~repro.market.delta.MarketDelta`
   churn trace (arrivals, departures, capacity shocks) replanned warm with
   the batch kernel stays pinned, epoch by epoch, to the object-graph
   oracle (the incremental reference engine of
   ``tests/oracles/best_response_reference.py`` on the object
   representation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lcf import lcf
from repro.exceptions import InvariantViolation
from repro.game.best_response import best_response_dynamics, greedy_feasible_profile
from repro.game.congestion import SingletonCongestionGame
from repro.market.costs import LinearCongestion, MM1Congestion, QuadraticCongestion
from repro.market.delta import MarketDelta
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.contracts import check_no_conflicting_commits
from repro.utils.rng import as_rng
from repro.utils.validation import CAPACITY_EPS

from tests.dynamics.conftest import draw_providers
from tests.game.test_engine_equivalence import random_game
from tests.oracles.best_response_reference import use_kernel

_CONGESTIONS = (LinearCongestion, QuadraticCongestion, MM1Congestion)


def random_market(seed: int, n_nodes: int = 32, n_providers: int = 14):
    """Seeded random-market generator: topology, workload and congestion
    function all derive from ``seed`` alone."""
    network = random_mec_network(n_nodes, rng=seed)
    congestion = _CONGESTIONS[seed % len(_CONGESTIONS)]()
    return generate_market(
        network, n_providers=n_providers, rng=seed + 10_000,
        congestion=congestion,
    )


def converging_batch_runs(seeds, movable_fraction=None):
    """Yield ``(game, start, result)`` batch runs on random games."""
    for seed in seeds:
        game = random_game(as_rng(seed))
        try:
            start = greedy_feasible_profile(game)
        except Exception:
            continue
        movable = None
        if movable_fraction is not None:
            k = max(1, int(len(game.players) * movable_fraction))
            movable = list(game.players)[:k]
        result = best_response_dynamics(
            game, dict(start), movable=movable, record_moves=True,
        )
        yield game, start, result


class TestPerRoundInvariants:
    @pytest.fixture(autouse=True)
    def _arm(self, monkeypatch):
        # Every batch call in this class self-verifies: capacity-feasible
        # result, non-increasing trace, conflict-free commit replay and
        # potential-accumulator agreement all fire inside the kernel.
        monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")

    def test_potential_descends_every_round(self):
        checked = 0
        for game, start, result in converging_batch_runs(range(40)):
            assert result.converged
            trace = result.potential_trace
            for k in range(1, len(trace)):
                assert trace[k] <= trace[k - 1] + 1e-9 * max(1.0, abs(trace[k - 1]))
            # Every round before quiescence strictly descends.
            for k in range(1, len(trace) - 1):
                assert trace[k] < trace[k - 1]
            checked += 1
        assert checked >= 30

    def test_every_intermediate_profile_is_feasible(self):
        # Replay the move log one commit at a time; after *every* move the
        # loads stay within capacity + CAPACITY_EPS (the Gauss-Seidel
        # commit rule never applies a stale, jointly-overloading proposal).
        checked = 0
        for game, start, result in converging_batch_runs(range(40, 80)):
            if not game.capacitated:
                continue
            profile = dict(start)
            loads = game.loads(profile)
            for player, old, new, _delta in result.move_log:
                assert profile[player] == old
                profile[player] = new
                loads[old] = loads[old] - game.demand_of(player, old)
                d = game.demand_of(player, new)
                loads[new] = loads.get(new, np.zeros_like(d)) + d
                cap = np.asarray(game.capacity_of(new), dtype=float)
                assert np.all(loads[new] <= cap + CAPACITY_EPS)
            assert profile == result.profile
            checked += 1
        assert checked >= 10

    def test_armed_runs_on_random_markets(self):
        for seed in range(6):
            market = random_market(seed)
            result = lcf(
                market, xi=0.4, allow_remote=True, information="full",
                gap_solver="greedy",
            )
            assert result.is_equilibrium

    def test_conflicting_commit_replay_is_rejected(self):
        # The contract itself must bite: a fabricated commit log where a
        # stale proposal was committed (wrong source resource) raises.
        game = SingletonCongestionGame(
            [0, 1], ["r0", "r1"],
            lambda r, k: float(k),
            lambda p, r: 0.0,
        )
        start = {0: "r0", 1: "r0"}
        with pytest.raises(InvariantViolation, match="stale"):
            check_no_conflicting_commits(
                game, start, [[(0, "r1", "r0", -1.0)]]
            )
        with pytest.raises(InvariantViolation, match="non-improving"):
            check_no_conflicting_commits(
                game, start, [[(0, "r0", "r1", 0.0)]]
            )
        with pytest.raises(InvariantViolation, match="more than one"):
            check_no_conflicting_commits(
                game, start,
                [[(0, "r0", "r1", -1.0), (0, "r1", "r0", -1.0)]],
            )


class TestDeterministicReplay:
    def test_equal_seeds_bit_identical(self):
        compared = 0
        for seed in range(20):
            runs = []
            for _ in range(2):
                game = random_game(as_rng(seed))
                try:
                    start = greedy_feasible_profile(game)
                except Exception:
                    break  # over-tight draw: deterministic, skips both runs
                runs.append(
                    best_response_dynamics(game, start, record_moves=True)
                )
            if len(runs) < 2:
                continue
            a, b = runs
            assert a.profile == b.profile
            assert a.move_log == b.move_log
            assert a.potential_trace == b.potential_trace
            assert (a.rounds, a.moves, a.converged) == (b.rounds, b.moves, b.converged)
            compared += 1
        assert compared >= 12

    def test_equal_seeds_bit_identical_on_markets(self):
        results = [
            lcf(
                random_market(5), xi=0.5, allow_remote=True,
                information="full", gap_solver="greedy",
            )
            for _ in range(2)
        ]
        a, b = results
        assert a.assignment.placement == b.assignment.placement
        assert a.social_cost == b.social_cost
        assert a.br_moves == b.br_moves


class TestChurnFuzz:
    """50 epochs of MarketDelta churn, batch kernel vs object oracle."""

    @pytest.fixture(autouse=True)
    def _arm(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")

    def _churn_delta(self, market, network, rng, epoch, next_id):
        """A random delta: arrivals, departures of present providers, and an
        occasional capacity shock on a random cloudlet."""
        arrivals = ()
        n_arrive = int(rng.integers(0, 4))
        if n_arrive:
            arrivals = tuple(
                draw_providers(network, n_arrive, start_id=next_id,
                               seed=int(rng.integers(1, 2**31)))
            )
        present = [p.provider_id for p in market.providers]
        departures = ()
        if present and rng.integers(0, 2):
            k = int(rng.integers(1, min(3, len(present)) + 1))
            picked = rng.choice(len(present), size=k, replace=False)
            departures = tuple(sorted(present[i] for i in picked))
        capacity_changes = {}
        if epoch % 10 == 7:
            cl = network.cloudlets[int(rng.integers(0, len(network.cloudlets)))]
            scale = 0.6 if epoch % 20 == 7 else 1.4
            capacity_changes[cl.node_id] = (
                cl.compute_capacity * scale,
                cl.bandwidth_capacity * scale,
            )
        return MarketDelta(
            arrivals=arrivals,
            departures=departures,
            capacity_changes=capacity_changes,
        ), n_arrive

    def test_fifty_epoch_delta_fuzz_matches_object_oracle(self):
        network = random_mec_network(36, rng=211)
        rng = as_rng(212)
        market = generate_market(network, n_providers=10, rng=214)
        next_id = 100
        batch_prior = None
        oracle_prior = None
        for epoch in range(50):
            delta, n_arrive = self._churn_delta(
                market, network, rng, epoch, next_id
            )
            next_id += n_arrive
            market.apply(delta)
            if not market.num_providers:
                batch_prior = oracle_prior = None
                continue
            batch = lcf(
                market, xi=0.5, allow_remote=True, information="full",
                representation="compiled", gap_solver="greedy",
                warm_start=batch_prior,
            )
            with use_kernel("incremental"):
                oracle = lcf(
                    market, xi=0.5, allow_remote=True, information="full",
                    representation="object", gap_solver="greedy",
                    warm_start=oracle_prior,
                )
            assert batch.assignment.placement == oracle.assignment.placement, (
                f"epoch {epoch}: batch/compiled diverged from the object oracle"
            )
            assert batch.assignment.rejected == oracle.assignment.rejected
            assert batch.social_cost == oracle.social_cost
            assert batch.br_moves == oracle.br_moves
            batch_prior, oracle_prior = batch, oracle
