"""The market game on compiled tables against the cost-model oracle game.

:func:`repro.core.market_game` reads every cost off the market's
:class:`~repro.market.compiled.CompiledMarket`;
:func:`~tests.oracles.object_graph_reference.object_market_game` is the
same game as a plain :class:`SingletonCongestionGame` over ``CostModel``
closures with the generic ``compile()``. Every query, every table, every
best-response run and every LCF outcome must agree with ``==``.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.core import lcf, market_game
from repro.dynamics import PopulationProcess
from repro.exceptions import CapacityError, ConfigurationError, InfeasibleError
from repro.game import best_response_dynamics, game_from_compiled
from repro.game.congestion import SingletonCongestionGame
from repro.game.engine import MarketGame
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from tests.oracles.object_graph_reference import object_market_game, use_object_graph

SIZES = (50, 150, 250)
SEEDS = (1, 2, 3)
BUDGETS = (None, 3.0)
N_PROVIDERS = 60

PAPER_CASES = [
    (n, seed, budget) for n in SIZES for seed in SEEDS for budget in BUDGETS
]
CASES = [f"paper-{n}-{s}-{b}" for n, s, b in PAPER_CASES] + ["delta"]


@lru_cache(maxsize=None)
def _market(case: str) -> ServiceMarket:
    if case == "delta":
        # A live market patched by three population deltas: tombstoned and
        # recycled rows, a grown congestion table.
        network = random_mec_network(100, rng=7)
        population = PopulationProcess(
            network, arrival_rate=6.0, mean_lifetime=3.0, rng=8,
            initial_population=40,
        )
        market = ServiceMarket(
            network, population.present,
            pricing=Pricing.random(9),
        )
        market.compile()
        for _ in range(3):
            event = population.step()
            by_id = {p.provider_id: p for p in population.present}
            market.apply(MarketDelta(
                arrivals=tuple(by_id[pid] for pid in sorted(event.arrived)),
                departures=event.departed,
            ))
        return market
    n, seed, budget = PAPER_CASES[CASES.index(case)]
    return generate_market(
        random_mec_network(n, rng=seed), N_PROVIDERS, rng=seed + 1,
        latency_budget_ms=budget,
    )


def _greedy_start(game: SingletonCongestionGame) -> Dict[int, int]:
    """Cheapest feasible resource at the occupancy a player would create,
    in player order; players with no feasible resource stay out."""
    profile: Dict[int, int] = {}
    for p in game.players:
        loads = game.loads(profile)
        occ = game.occupancy(profile)
        best: Optional[int] = None
        best_cost = np.inf
        for r in game.resources:
            if not game.move_is_feasible(p, r, profile, loads):
                continue
            c = game.cost(p, r, occ.get(r, 0) + 1)
            if c < best_cost:
                best, best_cost = r, c
        if best is not None:
            profile[p] = best
    return profile


@lru_cache(maxsize=None)
def _start(case: str) -> Dict[int, int]:
    return _greedy_start(object_market_game(_market(case)))


def _random_profile(game: SingletonCongestionGame, seed: int) -> Dict[int, int]:
    rng = np.random.default_rng(seed)  # reprolint: ok[R1] test-local stream, seeded
    nodes = list(game.resources)
    return {p: nodes[int(rng.integers(len(nodes)))] for p in game.players}


def _assert_loads_equal(a: Dict[int, np.ndarray], b: Dict[int, np.ndarray]) -> None:
    assert list(a) == list(b)
    for r in a:
        assert np.array_equal(a[r], b[r])


def _verdict(
    validate: Callable[[Dict[int, int]], None], profile: Dict[int, int]
) -> object:
    try:
        validate(profile)
    except (CapacityError, ConfigurationError) as exc:
        return type(exc), str(exc)
    return None


def _assert_verdicts_agree(
    game: MarketGame, oracle: SingletonCongestionGame, profile: Dict[int, int]
) -> object:
    """The market game's table check against the oracle game's and against
    the generic ``SingletonCongestionGame.validate_profile`` run on the
    market game itself; returns the shared verdict."""
    verdict = _verdict(game.validate_profile, profile)
    assert verdict == _verdict(oracle.validate_profile, profile)
    generic = partial(SingletonCongestionGame.validate_profile, game)
    assert verdict == _verdict(generic, profile)
    return verdict


@pytest.mark.parametrize("case", CASES)
class TestQueries:
    def test_one_class_from_both_constructors(self, case):
        market = _market(case)
        game = market_game(market)
        assert type(game) is MarketGame
        assert type(game_from_compiled(market.compile())) is MarketGame
        oracle = object_market_game(market)
        assert game.players == oracle.players
        assert game.resources == oracle.resources

    def test_costs(self, case):
        market = _market(case)
        game, oracle = market_game(market), object_market_game(market)
        n = len(game.players)
        for r in game.resources:
            # Past the table too: occupancies up to n + 5.
            for k in range(1, n + 6):
                assert game.shared_cost(r, k) == oracle.shared_cost(r, k)
            assert np.array_equal(game.capacity_of(r), oracle.capacity_of(r))
            for p in game.players:
                assert game.fixed_cost(p, r) == oracle.fixed_cost(p, r)
                assert game.cost(p, r, n) == oracle.cost(p, r, n)
                assert np.array_equal(game.demand_of(p, r), oracle.demand_of(p, r))

    def test_profile_aggregates(self, case):
        market = _market(case)
        game, oracle = market_game(market), object_market_game(market)
        start = _start(case)
        profiles: List[Dict[int, int]] = [
            {}, start, _random_profile(game, 1), _random_profile(game, 2),
        ]
        for profile in profiles:
            _assert_loads_equal(game.loads(profile), oracle.loads(profile))
            assert game.potential(profile) == oracle.potential(profile)
            assert game.social_cost(profile) == oracle.social_cost(profile)
            assert game.occupancy(profile) == oracle.occupancy(profile)

    def test_validate_profile_verdicts(self, case):
        market = _market(case)
        start = _start(case)
        placed = list(start)
        game = market_game(market, players=placed)
        oracle = object_market_game(market, players=placed)
        missing = dict(list(start.items())[1:])
        stranger = {**start, -1: game.resources[0]}
        # Missing and unknown players at once: the missing ones are named.
        both = {**missing, -1: game.resources[0]}
        assert _assert_verdicts_agree(game, oracle, start) is None
        for profile in (missing, stranger, both):
            assert _assert_verdicts_agree(game, oracle, profile)[0] is ConfigurationError
        # Everyone on the smallest cloudlet overloads it.
        game, oracle = market_game(market), object_market_game(market)
        by_cpu = sorted(game.resources, key=lambda r: game.capacity_of(r)[0])
        crowded = {p: by_cpu[0] for p in game.players}
        assert _assert_verdicts_agree(game, oracle, crowded)[0] is CapacityError
        # Two crowds, the larger cloudlet first in profile order: the
        # first overloaded cloudlet in that order is named.
        halves = {p: by_cpu[(k + 1) % 2] for k, p in enumerate(game.players)}
        assert _assert_verdicts_agree(game, oracle, halves)[0] is CapacityError

    def test_compile_tables(self, case):
        market = _market(case)
        placed = list(_start(case))
        for players in (None, placed):
            view = market_game(market, players=players).compile()
            generic = object_market_game(market, players=players).compile()
            assert view.players == generic.players
            assert view.resources == generic.resources
            for name in ("fixed", "shared", "capacity", "demand"):
                assert np.array_equal(getattr(view, name), getattr(generic, name))

    def test_best_response(self, case):
        market = _market(case)
        start = _start(case)
        game = market_game(market, players=list(start))
        oracle = object_market_game(market, players=list(start))
        ours = best_response_dynamics(game, start, record_moves=True)
        theirs = best_response_dynamics(oracle, start, record_moves=True)
        assert ours.profile == theirs.profile
        assert ours.converged == theirs.converged
        assert (ours.rounds, ours.moves) == (theirs.rounds, theirs.moves)
        assert ours.potential_trace == theirs.potential_trace
        assert ours.move_log == theirs.move_log


class TestSharedCostPastTheTable:
    def test_occupancy_past_the_table_uses_the_congestion_function(self):
        market = generate_market(random_mec_network(25, rng=3), n_providers=6, rng=4)
        game = game_from_compiled(market.compile())
        oracle = object_market_game(market)
        r = game.resources[0]
        n = len(game.players)
        for k in range(1, n + 6):
            assert game.shared_cost(r, k) == oracle.shared_cost(r, k)
        # The clamp to the last table column priced k = 7 like k = 6.
        assert game.shared_cost(r, n + 1) > game.shared_cost(r, n)


def _lcf_outcome(market: ServiceMarket, **kwargs) -> tuple:
    try:
        r = lcf(market, xi=0.3, **kwargs)
    except InfeasibleError as exc:
        return InfeasibleError, str(exc)
    return (
        r.assignment.placement, r.assignment.rejected,
        r.br_rounds, r.br_moves, r.is_equilibrium,
    )


@pytest.mark.parametrize("information", ["posted_price", "full"])
@pytest.mark.parametrize("allow_remote", [False, True])
@pytest.mark.parametrize(
    "case", ["paper-50-2-None", "paper-250-3-None", "paper-150-1-3.0", "delta"]
)
def test_lcf_matches_object_graph_run(case, information, allow_remote):
    # Without a remote bin the latency-budgeted market is infeasible; both
    # pipelines must then fail the same way.
    market = _market(case)
    kwargs = dict(information=information, allow_remote=allow_remote)
    ours = _lcf_outcome(market, **kwargs)
    with use_object_graph():
        theirs = _lcf_outcome(market, **kwargs)
    assert ours == theirs
