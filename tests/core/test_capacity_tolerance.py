"""Capacity-tolerance regressions (the shared ``CAPACITY_EPS`` slack).

Feasibility checks across the codebase (game moves, greedy seeding,
``CompiledMarket.fits_mask`` and Appro's ``_repair_capacities``, their
object-graph oracles ``_fits``/``object_repair_capacities`` in
``tests/oracles/object_graph_reference.py``, assignment validation) all
share :data:`repro.utils.validation.CAPACITY_EPS`. The key regression: a demand
that *exactly* fills the residual capacity must be accepted even when
float accumulation pushes the sum a few ulps over (0.1 + 0.1 + 0.1 >
0.3), rather than being bounced by a strict ``<=``.
"""

import numpy as np
import pytest

from repro.core.appro import _repair_capacities, appro
from repro.exceptions import InfeasibleError
from repro.game.best_response import _join_row, greedy_feasible_profile
from repro.game.congestion import SingletonCongestionGame
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.validation import CAPACITY_EPS

from tests.oracles.object_graph_reference import (
    _fits,
    _loads,
    object_repair_capacities,
)


def move_fits(game, player, resource, profile):
    """The library's move-feasibility rule on ``game.compile()``: the join
    row improvement dynamics and sequential entry read is finite (the
    games here have finite fixed costs, so only capacity can rule a cell
    out)."""
    c = game.compile()
    costs = _join_row(
        c,
        c.player_index[player],
        c.occupancy_vector(profile),
        c.load_matrix(profile),
        c.capacity + CAPACITY_EPS,
    )
    return bool(np.isfinite(costs[c.resource_index[resource]]))


def exact_fit_game(n_players=3, per_demand=0.1):
    """Every player fits only if the accumulated float sum is tolerated:
    capacity equals the *mathematical* total demand on a single resource."""
    capacity = n_players * per_demand  # 3 * 0.1 == 0.30000000000000004 issue
    return SingletonCongestionGame(
        list(range(n_players)),
        ["only"],
        lambda r, k: float(k),
        lambda p, r: 0.0,
        demand=lambda p, r: np.array([per_demand]),
        capacity=lambda r: np.array([capacity]),
    )


class TestExactCapacityFit:
    def test_greedy_accepts_demand_equal_to_residual(self):
        game = exact_fit_game()
        # 0.1 + 0.1 + 0.1 > 0.3 in binary floats; CAPACITY_EPS absorbs it.
        profile = greedy_feasible_profile(game)
        assert set(profile) == {0, 1, 2}
        assert all(r == "only" for r in profile.values())

    def test_move_is_feasible_at_exact_fit(self):
        game = exact_fit_game()
        profile = {0: "only", 1: "only"}
        assert move_fits(game, 2, "only", profile)

    def test_eps_is_a_tolerance_not_a_loophole(self):
        game = exact_fit_game(n_players=4, per_demand=0.1)
        profile = {0: "only", 1: "only", 2: "only"}
        # A genuinely overfull move (0.4 into capacity 0.3... wait: capacity
        # here is 4 * 0.1, so fill it first) must still be rejected.
        tight = SingletonCongestionGame(
            [0, 1],
            ["only"],
            lambda r, k: float(k),
            lambda p, r: 0.0,
            demand=lambda p, r: np.array([1.0]),
            capacity=lambda r: np.array([1.0]),
        )
        assert move_fits(tight, 0, "only", {})
        assert not move_fits(tight, 1, "only", {0: "only"})
        with pytest.raises(InfeasibleError):
            greedy_feasible_profile(tight)
        del game, profile

    def test_validation_constant_is_shared(self):
        # The game-level and appro-level checks reference the same slack.
        import importlib

        appro_mod = importlib.import_module("repro.core.appro")
        congestion_mod = importlib.import_module("repro.game.congestion")
        assert appro_mod.CAPACITY_EPS == congestion_mod.CAPACITY_EPS == CAPACITY_EPS
        assert CAPACITY_EPS == 1e-9


class TestApproFits:
    @pytest.fixture(scope="class")
    def market(self):
        network = random_mec_network(30, rng=5)
        return generate_market(network, 12, rng=6)

    def test_fits_accepts_exact_residual(self, market):
        cl = market.network.cloudlets[0]
        pid = market.providers[0].provider_id
        p = market.provider(pid)
        # Residual exactly equals the provider's demand in both dimensions.
        load = [
            cl.compute_capacity - p.compute_demand,
            cl.bandwidth_capacity - p.bandwidth_demand,
        ]
        assert _fits(market, cl.node_id, load, pid)
        cm = market.compile()
        loads = np.zeros((cm.n_cloudlets, 2))
        loads[cm.cloudlet_index[cl.node_id]] = load
        assert cm.fits_mask(cm.provider_row(pid), loads)[
            cm.cloudlet_index[cl.node_id]
        ]

    def test_fits_rejects_true_overflow(self, market):
        cl = market.network.cloudlets[0]
        pid = market.providers[0].provider_id
        load = [cl.compute_capacity, cl.bandwidth_capacity]
        assert not _fits(market, cl.node_id, load, pid)
        cm = market.compile()
        loads = np.zeros((cm.n_cloudlets, 2))
        loads[cm.cloudlet_index[cl.node_id]] = load
        assert not cm.fits_mask(cm.provider_row(pid), loads)[
            cm.cloudlet_index[cl.node_id]
        ]

    def test_repair_restores_feasibility(self, market):
        # Pile every provider onto one cloudlet: heavily overloaded.
        node = market.network.cloudlets[0].node_id
        placement = {p.provider_id: node for p in market.providers}
        original = set(placement)
        repaired, rejected, moves = _repair_capacities(
            market, dict(placement), market.compile()
        )
        # The object-graph oracle evicts and re-places identically.
        assert object_repair_capacities(market, dict(placement)) == (
            repaired,
            rejected,
            moves,
        )
        loads = _loads(market, repaired)
        for cl in market.network.cloudlets:
            load = loads[cl.node_id]
            assert load[0] <= cl.compute_capacity + CAPACITY_EPS
            assert load[1] <= cl.bandwidth_capacity + CAPACITY_EPS
        # Every provider is either still placed or explicitly rejected.
        assert set(repaired) | rejected == original
        assert set(repaired).isdisjoint(rejected)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_appro_end_to_end_respects_capacities(self, seed):
        network = random_mec_network(40, rng=seed)
        market = generate_market(network, 20, rng=seed + 50)
        assignment = appro(market, allow_remote=True)
        loads = _loads(
            market,
            {
                pid: node
                for pid, node in assignment.placement.items()
                if market.network.has_cloudlet(node)
            },
        )
        for cl in market.network.cloudlets:
            load = loads[cl.node_id]
            assert load[0] <= cl.compute_capacity + CAPACITY_EPS
            assert load[1] <= cl.bandwidth_capacity + CAPACITY_EPS
