"""Differential lockdown of the improvement dynamics on compiled tables.

:func:`repro.game.dynamics_variants.improvement_dynamics` prices each turn
from the game's compiled tables, on the join row it shares with
:func:`repro.game.best_response.sequential_entry`. This file pins it with
``==`` to the per-resource scalar scans it replaced,
:func:`~tests.oracles.best_response_reference.scalar_improvement_dynamics`:
the same profile items in the same order, rounds, moves, convergence flag
and every potential-trace float, or the same error where the start is
infeasible.

The corpus is every generic game and every ``MARKET_GRID`` market of
``tests/game/test_entry_certificate_equivalence.py`` (providers the greedy
entry turns away are left out), plus two economies-of-scale games whose
shared cost falls with occupancy. Rosenthal's potential is exact for any
shared cost, and only where it falls would pricing the mover's own column
as a move change the outcome. Every game runs from the greedy start and
the herd start, with ``movable`` set to everyone, every other player and
nobody: ``"better"`` once (it draws no random numbers) and
``"best_random_order"`` under several ``rng`` seeds.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.core import market_game
from repro.exceptions import ReproError
from repro.experiments.convergence import convergence_study
from repro.game.best_response import sequential_entry
from repro.game.congestion import SingletonCongestionGame
from repro.game.dynamics_variants import improvement_dynamics
from repro.utils.rng import as_rng
from tests.game.test_entry_certificate_equivalence import GENERIC, MARKET_GRID, grid_market
from tests.oracles.best_response_reference import scalar_improvement_dynamics

SEEDS = (0, 1, 7)


def economies_of_scale_game(capacitated: bool) -> SingletonCongestionGame:
    """Eight players on four resources whose shared cost ``6 / k`` falls
    as players join; capacitated, each resource holds three unit demands."""
    fixed = as_rng(20261020).uniform(0.0, 4.0, size=(8, 4))
    kwargs = {}
    if capacitated:
        kwargs = dict(
            demand=lambda p, r: np.array([1.0]),
            capacity=lambda r: np.array([3.0]),
        )
    return SingletonCongestionGame(
        list(range(8)),
        [f"r{j}" for j in range(4)],
        lambda r, k: 6.0 / k,
        lambda p, r: float(fixed[p, int(r[1:])]),
        **kwargs,
    )


GAMES = dict(GENERIC)
GAMES["scale"] = economies_of_scale_game(capacitated=False)
GAMES["scale-cap"] = economies_of_scale_game(capacitated=True)


def placed_market_game(n_nodes, seed, budget):
    """The grid market's game over the providers its greedy entry places."""
    market = grid_market(n_nodes, seed, budget)
    game_all = market_game(market)
    start = {}
    sequential_entry(game_all, start, game_all.players)
    return market_game(market, players=list(start))


def outcome(fn, game, start, **kwargs):
    """Profile items in order, rounds, moves, convergence and the potential
    trace, or the error's type and message."""
    try:
        result = fn(game, dict(start), **kwargs)
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return (
        list(result.profile.items()),
        result.rounds,
        result.moves,
        result.converged,
        result.potential_trace,
    )


def run_configs(game):
    """``(start, kwargs)`` for every start, movable set, variant and seed."""
    greedy = {}
    sequential_entry(game, greedy, game.players)
    herd = {p: game.resources[0] for p in game.players}
    players = list(game.players)
    for start in (greedy, herd):
        for movable in (None, players[::2], []):
            yield start, dict(variant="better", movable=movable)
            for seed in SEEDS:
                yield start, dict(variant="best_random_order", movable=movable, rng=seed)


def assert_same_dynamics(game):
    """Library ``==`` oracle on every configuration; returns the outcomes."""
    outcomes = []
    for start, kwargs in run_configs(game):
        got = outcome(improvement_dynamics, game, start, **kwargs)
        want = outcome(scalar_improvement_dynamics, game, start, **kwargs)
        assert got == want, (start, kwargs)
        outcomes.append((kwargs["variant"], got))
    return outcomes


def moved(outcomes, variant):
    """Whether some run of ``variant`` converged after at least one move."""
    return any(
        v == variant and len(o) == 5 and o[2] > 0 and o[3] for v, o in outcomes
    )


class TestImprovementDynamics:
    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_generic_games(self, name):
        assert_same_dynamics(GAMES[name])

    @pytest.mark.parametrize("n_nodes,seed,budget", MARKET_GRID)
    def test_markets(self, n_nodes, seed, budget):
        assert_same_dynamics(placed_market_game(n_nodes, seed, budget))

    def test_corpus_moves_raises_and_ties(self):
        outcomes = assert_same_dynamics(placed_market_game(150, 1, None))
        assert moved(outcomes, "better") and moved(outcomes, "best_random_order")
        outcomes = []
        for name in ("identical-4x3", "infeasible-cap", "random-0", "scale", "scale-cap"):
            outcomes += assert_same_dynamics(GAMES[name])
        assert moved(outcomes, "better") and moved(outcomes, "best_random_order")
        assert any(len(o) == 2 for _, o in outcomes)  # infeasible starts raise
        # Identical players tie on every resource: from the herd, a lone
        # mover's best response is the first of the tied columns.
        game = GAMES["identical-4x3"]
        herd = {p: "r0" for p in game.players}
        for fn in (improvement_dynamics, scalar_improvement_dynamics):
            result = fn(game, herd, variant="best_random_order", movable=[0], rng=0)
            assert result.profile[0] == "r1" and result.moves == 1


def test_convergence_study_replays_on_the_oracle():
    """The study run on the oracle's dynamics equals the library's run in
    every field but the wall clock."""
    kwargs = dict(populations=(10, 20), network_size=60, repetitions=2)
    lib = convergence_study(**kwargs)
    with mock.patch(
        "repro.experiments.convergence.improvement_dynamics", scalar_improvement_dynamics
    ):
        ref = convergence_study(**kwargs)

    def untimed(points):
        return [dataclasses.replace(p, wall_s=0.0) for p in points]

    assert untimed(lib) == untimed(ref)
    assert any(p.moves > 0 for p in lib if p.variant != "best")
