"""Differential lockdown of the one entry and the one equilibrium certificate.

The library runs Lemma 3's sequential cheapest-feasible entry as one loop
on the game's compiled tables (:func:`repro.game.best_response.sequential_entry`,
behind ``greedy_feasible_profile`` and LCF's full-information
``_selfish_entry``) and certifies equilibria with one vectorised propose of
the best-response kernel (:func:`repro.game.equilibrium.certify_equilibrium`).
This file pins both against the scalar oracles they replaced:

* the greedy start ``==`` the verbatim per-resource greedy of
  ``tests/oracles/best_response_reference.py`` — the same profile items in
  the same order, or the same :class:`InfeasibleError` naming the same
  player;
* LCF's entry ``==`` :func:`naive_selfish_entry` under LCF's thresholds
  (the remote cost and ``inf``) — the same profile items, rejections and
  placement order;
* the certificate agrees with "the naive engine's per-resource best
  response finds no move for any movable player", which uses the same
  strict-improvement threshold as the kernel.

The corpus is the generic games of ``tests/game`` (tie-heavy identical
players, capacitated and infeasible draws, threshold-boundary costs),
``generate_market`` at 60/150/250 nodes x seeds 1-3 with and without a
3 ms latency budget, a ``QuadraticCongestion`` market and a market patched
by a :class:`~repro.market.delta.MarketDelta`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core import market_game
from repro.core.lcf import _selfish_entry
from repro.exceptions import InfeasibleError, ReproError
from repro.game import partitioned
from repro.game.best_response import (
    best_response_dynamics,
    greedy_feasible_profile,
    sequential_entry,
)
from repro.game.congestion import SingletonCongestionGame
from repro.game.engine import IMPROVEMENT_EPS
from repro.game.equilibrium import certify_equilibrium
from repro.market.costs import QuadraticCongestion
from repro.market.delta import MarketDelta
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.rng import as_rng
from tests.dynamics.conftest import draw_providers
from tests.game import test_best_response, test_congestion, test_dynamics_variants
from tests.game import test_equilibrium
from tests.game.test_engine_equivalence import random_game
from tests.game.test_poa import pigou_like
from tests.oracles.best_response_reference import (
    _best_feasible_response,
    naive_selfish_entry,
    scalar_greedy_feasible_profile,
)
from tests.oracles.equilibrium_reference import is_nash_equilibrium


# --------------------------------------------------------------------- #
# Corpus
# --------------------------------------------------------------------- #
def boundary_game() -> SingletonCongestionGame:
    """Costs that sit exactly on the comparison thresholds: player 0 on
    ``a`` pays 1.0 and ``b`` costs exactly ``1.0 - IMPROVEMENT_EPS`` (no
    strict improvement), player 1 ties all three at entry (cost 1.0), and
    player 2 on ``a`` ties its move to ``b`` exactly (a zero gain)."""
    fixed = {
        (0, "a"): 0.0, (0, "b"): 1.0 - IMPROVEMENT_EPS, (0, "c"): 5.0,
        (1, "a"): 0.0, (1, "b"): 1.0, (1, "c"): 1.0,
        (2, "a"): 1.0, (2, "b"): 2.0, (2, "c"): 2.0,
    }
    return SingletonCongestionGame(
        [0, 1, 2], ["a", "b", "c"],
        lambda r, k: 0.0 if r == "b" else float(k - 1) if r == "c" else 1.0,
        lambda p, r: fixed[(p, r)],
    )


def generic_games():
    games = {
        "identical-4x3": test_best_response.make_game(),
        "identical-6x3": test_best_response.make_game(n_players=6, n_resources=3),
        "identical-cap": test_best_response.make_game(n_players=4, n_resources=2, cap=2),
        "infeasible-cap": test_best_response.make_game(n_players=5, n_resources=2, cap=2),
        "discounted": test_best_response.make_game(
            n_players=2, n_resources=2, fixed={(1, "r0"): -0.5}
        ),
        "equilibrium-3x2": test_equilibrium.make_game(),
        "equilibrium-cap": test_equilibrium.make_game(cap=2),
        "equilibrium-fixed": test_equilibrium.make_game(fixed={(0, "b"): 0.999999}),
        "linear": test_congestion.linear_game(n_players=5, n_resources=3),
        "linear-cap": test_congestion.linear_game(n_players=4, capacitated=True),
        "pigou": pigou_like(),
        "boundary": boundary_game(),
    }
    for seed in (1, 3, 5):
        games[f"variants-{seed}"] = test_dynamics_variants.make_game(seed=seed)
    rng = as_rng(20261019)
    for k in range(24):
        games[f"random-{k}"] = random_game(rng)
    return games


GENERIC = generic_games()

MARKET_GRID = [
    (n_nodes, seed, budget)
    for n_nodes in (60, 150, 250)
    for seed in (1, 2, 3)
    for budget in (None, 3.0)
]


@lru_cache(maxsize=None)
def grid_market(n_nodes, seed, budget):
    network = random_mec_network(n_nodes, rng=seed)
    return generate_market(
        network, n_nodes // 2, rng=seed + 1, latency_budget_ms=budget
    )


@lru_cache(maxsize=None)
def quadratic_market():
    network = random_mec_network(80, rng=11)
    return generate_market(network, 40, rng=12, congestion=QuadraticCongestion())


@lru_cache(maxsize=None)
def patched_market():
    """Departures, arrivals, a price change and a capacity cut, applied to
    a compiled market: its game reads tombstoned, patched tables."""
    network = random_mec_network(60, rng=21)
    market = generate_market(network, 36, rng=22)
    cm = market.compile()
    nodes = list(cm.cloudlet_nodes)
    j0, j1 = cm.cloudlet_index[nodes[0]], cm.cloudlet_index[nodes[1]]
    market.apply(MarketDelta(
        departures=tuple(p.provider_id for p in market.providers[:6]),
        arrivals=tuple(draw_providers(network, 6, start_id=5000, seed=23)),
        price_changes={nodes[0]: (3 * cm.coeff[j0], 3 * cm.coeff[j0])},
        capacity_changes={nodes[1]: tuple(0.5 * cm.capacity[j1])},
    ))
    return market


MARKETS = {f"market-{n}-{s}-{b}": (n, s, b) for n, s, b in MARKET_GRID}


def market_of(name):
    if name == "quadratic":
        return quadratic_market()
    if name == "patched":
        return patched_market()
    return grid_market(*MARKETS[name])


MARKET_NAMES = list(MARKETS) + ["quadratic", "patched"]


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
def greedy_outcome(fn, game, **kwargs):
    """Profile items in order, or the error's type and message."""
    try:
        return list(fn(game, **kwargs).items())
    except InfeasibleError as exc:
        return ("InfeasibleError", str(exc))


def greedy_configs(game):
    """Entrant sets the greedy start is called with: everyone, everyone
    in reverse order, and everyone but a player pinned up front."""
    players = list(game.players)
    rev = players[::-1]
    yield {}
    yield {"order": rev, "players": rev}
    yield {"base_profile": {players[0]: game.resources[-1]}}


def oracle_verdict(game, profile, movable):
    """No movable player has a naive best response that moves it."""
    loads = game.loads(profile)
    occ = game.occupancy(profile)
    return all(
        _best_feasible_response(game, p, dict(profile), loads, occ) is None
        for p in movable
    )


def feasible(game, profile):
    try:
        game.validate_profile(profile)
    except ReproError:
        return False
    return True


def probe_profiles(game, seed):
    """Complete feasible profiles to certify: the greedy start, the
    converged dynamics, one-player perturbations of it, and random draws."""
    start = {}
    if sequential_entry(game, start, game.players):
        return []
    profiles = [start]
    result = best_response_dynamics(game, dict(start))
    eq = result.profile
    profiles.append(eq)
    rng = np.random.default_rng(seed)  # reprolint: ok[R1] test-local stream, seeded
    resources = list(game.resources)
    for _ in range(4):
        moved = dict(eq)
        p = game.players[int(rng.integers(len(game.players)))]
        moved[p] = resources[int(rng.integers(len(resources)))]
        profiles.append(moved)
    for _ in range(4):
        profiles.append({p: resources[int(rng.integers(len(resources)))] for p in game.players})
    return [pr for pr in profiles if feasible(game, pr)]


def movable_sets(game):
    players = list(game.players)
    return [None, players[: max(1, len(players) // 2)], players[1::2], []]


def assert_certificate_agrees(game, seed):
    verdicts = []
    for profile in probe_profiles(game, seed):
        for movable in movable_sets(game):
            want = oracle_verdict(
                game, profile, game.players if movable is None else movable
            )
            got = certify_equilibrium(game, profile, movable=movable)
            assert got == want, (profile, movable)
            verdicts.append(got)
    return verdicts


def assert_entry_agrees(game, base, entrants, threshold):
    lib_profile, lib_rejected, lib_placed = dict(base), set(), []
    _selfish_entry(game, lib_profile, entrants, lib_rejected, lib_placed, threshold)
    ref_profile, ref_rejected, ref_placed = dict(base), set(), []
    naive_selfish_entry(game, ref_profile, entrants, ref_rejected, ref_placed, threshold)
    assert list(lib_profile.items()) == list(ref_profile.items())
    assert lib_rejected == ref_rejected
    assert lib_placed == ref_placed
    return lib_rejected


def market_entry_cases(market):
    """LCF's two thresholds, with every third provider pinned first."""
    game = market_game(market)
    cm = market.compile()
    pinned_ids = game.players[::3]
    base = {}
    naive_selfish_entry(game, base, pinned_ids, set(), [], lambda p: float("inf"))
    entrants = [p for p in game.players if p not in set(pinned_ids)]
    for threshold in (cm.remote_cost, lambda p: float("inf")):
        yield game, base, entrants, threshold


# --------------------------------------------------------------------- #
# Greedy start vs the scalar greedy oracle
# --------------------------------------------------------------------- #
class TestGreedyEntry:
    @pytest.mark.parametrize("name", sorted(GENERIC))
    def test_generic_games(self, name):
        game = GENERIC[name]
        for kwargs in greedy_configs(game):
            assert greedy_outcome(greedy_feasible_profile, game, **kwargs) == (
                greedy_outcome(scalar_greedy_feasible_profile, game, **kwargs)
            )

    @pytest.mark.parametrize("name", MARKET_NAMES)
    def test_markets(self, name):
        game = market_game(market_of(name))
        for kwargs in greedy_configs(game):
            assert greedy_outcome(greedy_feasible_profile, game, **kwargs) == (
                greedy_outcome(scalar_greedy_feasible_profile, game, **kwargs)
            )

    def test_corpus_exercises_both_outcomes_and_ties(self):
        outcomes = [
            greedy_outcome(greedy_feasible_profile, game)
            for game in list(GENERIC.values())
            + [market_game(market_of(n)) for n in MARKET_NAMES]
        ]
        assert any(isinstance(o, tuple) for o in outcomes)
        assert sum(isinstance(o, list) for o in outcomes) >= 20
        # Identical players tie on every resource: the first minimum wins.
        assert greedy_feasible_profile(GENERIC["identical-4x3"]) == {
            0: "r0", 1: "r1", 2: "r2", 3: "r0",
        }

    def test_first_unplaceable_player_is_named(self):
        with pytest.raises(InfeasibleError, match="no feasible resource for player 4"):
            greedy_feasible_profile(GENERIC["infeasible-cap"])


# --------------------------------------------------------------------- #
# LCF's full-information entry vs the naive selfish entry
# --------------------------------------------------------------------- #
class TestSelfishEntry:
    @pytest.mark.parametrize("name", sorted(GENERIC))
    def test_generic_games(self, name):
        game = GENERIC[name]
        players = list(game.players)
        base = {players[0]: game.resources[0]}
        fixed = game.compile().fixed
        cut = float(np.median(fixed[np.isfinite(fixed)])) + 1.0
        for threshold in (lambda p: float("inf"), lambda p: cut):
            assert_entry_agrees(game, base, players[1:], threshold)

    def test_threshold_equal_to_the_entry_cost_rejects(self):
        # Player 1's cheapest entry costs exactly 1.0 (``a`` at occupancy
        # one): a threshold of 1.0 is not beaten.
        game = GENERIC["boundary"]
        rejected = assert_entry_agrees(game, {}, [1], lambda p: 1.0)
        assert rejected == {1}
        assert not assert_entry_agrees(game, {}, [1], lambda p: 1.0 + 1e-12)

    @pytest.mark.parametrize("name", MARKET_NAMES)
    def test_markets_under_lcf_thresholds(self, name):
        for game, base, entrants, threshold in market_entry_cases(market_of(name)):
            assert_entry_agrees(game, base, entrants, threshold)

    def test_budgeted_markets_reject_someone(self):
        rejected = set()
        for game, base, entrants, threshold in market_entry_cases(
            grid_market(150, 1, 3.0)
        ):
            rejected |= assert_entry_agrees(game, base, entrants, threshold)
        assert rejected


# --------------------------------------------------------------------- #
# The certificate vs the naive engine's best response
# --------------------------------------------------------------------- #
class TestCertificate:
    @pytest.mark.parametrize("name", sorted(GENERIC))
    def test_generic_games(self, name):
        game = GENERIC[name]
        assert_certificate_agrees(game, seed=len(name))

    @pytest.mark.parametrize("name", MARKET_NAMES)
    def test_markets(self, name):
        market = market_of(name)
        game_all = market_game(market)
        start = {}
        sequential_entry(game_all, start, game_all.players)
        game = market_game(market, players=list(start))
        verdicts = assert_certificate_agrees(game, seed=len(start))
        assert True in verdicts  # the converged dynamics, at least

    def test_corpus_certifies_and_refutes(self):
        verdicts = []
        for name in ("identical-6x3", "random-0", "random-1", "pigou", "boundary"):
            verdicts += assert_certificate_agrees(GENERIC[name], seed=7)
        assert True in verdicts and False in verdicts

    def test_threshold_boundaries(self):
        game = GENERIC["boundary"]
        # Player 0 on ``a`` pays 1.0; ``b`` costs exactly 1.0 - eps, which
        # is not a strict improvement. Player 2's best move gains exactly 0.
        assert certify_equilibrium(game, {0: "a", 1: "c", 2: "a"}, movable=[0, 2])
        # Pigou's herd is an equilibrium: deviating costs the same 2.
        assert certify_equilibrium(GENERIC["pigou"], {0: "r0", 1: "r0"})

    def test_converged_dynamics_are_certified_by_construction(self):
        for name in sorted(GENERIC):
            game = GENERIC[name]
            start = {}
            if sequential_entry(game, start, game.players):
                continue
            result = best_response_dynamics(game, start)
            assert result.converged
            assert certify_equilibrium(game, result.profile)

    def test_gain_between_the_old_and_new_tolerances(self):
        # A 1e-8 gain: the scalar check's default eps (1e-7) called this an
        # equilibrium; the kernel's move rule (IMPROVEMENT_EPS) moves, so
        # the certificate refuses it, as the oracle does at the same eps.
        game = SingletonCongestionGame(
            [0], ["a", "b"], lambda r, k: 0.0,
            lambda p, r: 1.0 if r == "a" else 1.0 - 1e-8,
        )
        profile = {0: "a"}
        assert is_nash_equilibrium(game, profile)
        assert not is_nash_equilibrium(game, profile, eps=IMPROVEMENT_EPS)
        assert not certify_equilibrium(game, profile)
        assert best_response_dynamics(game, profile).moves == 1


class TestUnknownMovable:
    """A movable list naming a player the game lacks is refused, not
    certified vacuously."""

    def test_raises_like_the_kernel(self):
        game = market_game(grid_market(60, 1, None))
        start = greedy_feasible_profile(game)
        assert not certify_equilibrium(game, start)
        message = r"movable contains unknown players \[1000000\]"
        with pytest.raises(InfeasibleError, match=message):
            certify_equilibrium(game, start, movable=[10**6])
        with pytest.raises(InfeasibleError, match=message):
            best_response_dynamics(game, start, movable=[10**6])

    def test_settle_seam_is_the_same_certificate(self):
        # The shard settle certifies through the name it imports.
        assert partitioned.certify_equilibrium is certify_equilibrium

    def test_generic_game(self):
        game = GENERIC["pigou"]
        with pytest.raises(InfeasibleError):
            certify_equilibrium(game, {0: "r0", 1: "r0"}, movable=[0, "ghost"])
        # The certificate has one threshold, the kernel's; no eps knob.
        with pytest.raises(TypeError):
            certify_equilibrium(game, {0: "r0", 1: "r0"}, movable=[0], eps=1e-7)
