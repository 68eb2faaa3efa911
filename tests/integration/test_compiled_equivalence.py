"""Differential tests: the compiled library paths against the object graph.

The :class:`~repro.market.compiled.CompiledMarket` layer is only allowed to
change *how fast* algorithms evaluate the instance, never *what* they
decide. For Appro (GAP build + capacity repair), LCF, both baselines, the
GAP LP assembly and greedy rounds, the PoA social-cost path and the sweep
harness's precompiled dispatch, these tests pin the library to the
object-graph oracles of ``tests/oracles/object_graph_reference.py`` on
randomized markets: identical placements, identical rejection sets, and
bit-equal social costs.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core.appro import appro
from repro.core.baselines import jo_offload_cache, offload_cache
from repro.core import market_game
from repro.core.lcf import lcf
from repro.core.optimal import optimal_caching
from repro.experiments.harness import default_algorithms, sweep
from repro.game.congestion import SingletonCongestionGame
from repro.game.engine import CompiledGame
from repro.game.poa import worst_equilibrium_cost
from repro.market.costs import LinearCongestion, MM1Congestion, QuadraticCongestion
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from tests.oracles import gap_reference
from tests.oracles.object_graph_reference import (
    _assemble_scalar,
    _greedy_scalar,
    object_build_gap_instance,
    object_jo_offload_cache,
    object_market_game,
    object_offload_cache,
    object_weighted_gap_instance,
    use_object_graph,
)

METRIC_FIELDS = ("social_cost", "coordinated_cost", "selfish_cost", "rejected", "samples")

CONGESTIONS = {
    "linear": LinearCongestion(),
    "quadratic": QuadraticCongestion(scale=2.0),
    "mm1": MM1Congestion(capacity=64),
}


def make_market(seed, congestion=None, n_providers=16, n_nodes=35, latency_budget_ms=None):
    network = random_mec_network(n_nodes, rng=seed)
    return generate_market(
        network,
        n_providers=n_providers,
        rng=seed + 1,
        congestion=congestion,
        latency_budget_ms=latency_budget_ms,
    )


def object_social_cost(market, placement, rejected):
    """The object-graph oracle for an assignment's total cost."""
    model = market.cost_model
    providers = market.providers_by_id()
    total = model.social_cost(providers, placement)
    total += sum(model.remote_cost(providers[pid]) for pid in rejected)
    return total


def assert_same_assignment(market, compiled_a, object_a):
    assert compiled_a.placement == object_a.placement
    assert compiled_a.rejected == object_a.rejected
    oracle = object_social_cost(market, object_a.placement, object_a.rejected)
    assert compiled_a.social_cost == oracle
    assert object_a.social_cost == oracle


class TestApproEquivalence:
    @pytest.mark.parametrize("gap_solver", ["shmoys_tardos", "greedy"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_placements_and_costs_match(self, gap_solver, seed):
        market = make_market(40 + seed)
        c = appro(market, gap_solver=gap_solver)
        with use_object_graph():
            o = appro(market, gap_solver=gap_solver)
        assert_same_assignment(market, c, o)
        assert c.info["gap_cost"] == o.info["gap_cost"]
        assert c.info["repair_moves"] == o.info["repair_moves"]

    @pytest.mark.parametrize("slot_pricing", ["marginal", "flat"])
    def test_pricing_modes_match(self, slot_pricing):
        market = make_market(50)
        c = appro(market, slot_pricing=slot_pricing)
        with use_object_graph():
            o = appro(market, slot_pricing=slot_pricing)
        assert_same_assignment(market, c, o)

    @pytest.mark.parametrize("name", sorted(CONGESTIONS))
    def test_remote_bin_and_congestion_functions(self, name):
        # A tight market (many providers per cloudlet slot) exercises the
        # remote bin and the repair's eviction loop.
        market = make_market(60, congestion=CONGESTIONS[name], n_providers=20, n_nodes=25)
        c = appro(market, allow_remote=True)
        with use_object_graph():
            o = appro(market, allow_remote=True)
        assert_same_assignment(market, c, o)

    def test_gap_instances_are_identical(self):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit

        for slot_pricing in ("marginal", "flat"):
            for allow_remote in (False, True):
                market = make_market(70)
                split = VirtualCloudletSplit(
                    market, allow_remote=allow_remote, slot_pricing=slot_pricing
                )
                obj = object_build_gap_instance(split)
                cmp_ = split.build_gap_instance()
                assert np.array_equal(obj.costs, cmp_.costs)
                assert np.array_equal(obj.slots, cmp_.slots)


class TestLCFEquivalence:
    @pytest.mark.parametrize("information", ["posted_price", "full"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_placements_and_costs_match(self, information, seed):
        market = make_market(80 + seed)
        c = lcf(market, xi=0.6, information=information)
        with use_object_graph():
            o = lcf(market, xi=0.6, information=information)
        assert c.coordinated_ids == o.coordinated_ids
        assert c.br_rounds == o.br_rounds
        assert c.br_moves == o.br_moves
        assert c.is_equilibrium == o.is_equilibrium
        assert_same_assignment(market, c.assignment, o.assignment)

    def test_allow_remote_matches(self):
        market = make_market(90, n_providers=20, n_nodes=25)
        c = lcf(market, xi=0.5, allow_remote=True)
        with use_object_graph():
            o = lcf(market, xi=0.5, allow_remote=True)
        assert_same_assignment(market, c.assignment, o.assignment)


#: Each baseline paired with its object-graph oracle.
BASELINES = [
    pytest.param(jo_offload_cache, object_jo_offload_cache, id="jo_offload_cache"),
    pytest.param(offload_cache, object_offload_cache, id="offload_cache"),
]


class TestBaselineEquivalence:
    @pytest.mark.parametrize("baseline,oracle", BASELINES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_placements_and_costs_match(self, baseline, oracle, seed):
        market = make_market(100 + seed)
        c = baseline(market)
        o = oracle(market)
        assert_same_assignment(market, c, o)

    @pytest.mark.parametrize("baseline,oracle", BASELINES)
    def test_rejections_match_on_tight_market(self, baseline, oracle):
        market = make_market(110, n_providers=24, n_nodes=25)
        c = baseline(market)
        o = oracle(market)
        assert_same_assignment(market, c, o)


class TestCompiledGameView:
    """CompiledGame.from_market slices must equal the generic per-pair build."""

    def test_full_population_tables_match(self):
        market = make_market(120)
        game = market_game(market)
        generic = CompiledGame(game)
        view = game.compile()  # MarketGame slices the CompiledMarket
        assert view is game.compile()  # cached
        assert np.array_equal(generic.fixed, view.fixed)
        assert np.array_equal(generic.shared, view.shared)
        assert np.array_equal(generic.capacity, view.capacity)
        assert np.array_equal(generic.demand, view.demand)
        assert generic.players == view.players
        assert generic.resources == view.resources

    def test_subset_game_tables_match(self):
        market = make_market(130)
        subset = [p.provider_id for p in market.providers][::2]
        game = market_game(market, players=subset)
        generic = CompiledGame(game)
        view = game.compile()
        assert view.players == subset
        assert np.array_equal(generic.fixed, view.fixed)
        assert np.array_equal(generic.shared, view.shared)
        assert np.array_equal(generic.capacity, view.capacity)
        assert np.array_equal(generic.demand, view.demand)

    def test_compiled_social_cost_matches_game(self):
        market = make_market(140)
        game = market_game(market)
        compiled = game.compile()
        nodes = list(game.resources)
        rng = np.random.default_rng(7)  # reprolint: ok[R1] test-local stream, seeded
        for _ in range(5):
            profile = {
                p: nodes[int(rng.integers(len(nodes)))] for p in game.players
            }
            assert compiled.social_cost(profile) == game.social_cost(profile)


class TestLPAssemblyEquivalence:
    """The general-GAP reference's bulk LP assembly
    (``tests/oracles/gap_reference.py``) must reproduce the per-pair scalar
    oracle bit-for-bit: same allowed-pair enumeration, same matrices, same
    relaxation."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("allow_remote", [False, True])
    def test_relaxations_bit_identical(self, seed, allow_remote):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit
        from repro.utils.rng import as_rng

        # The Eq. 7 instance is unit-slot and assembles no LP; per-pair
        # weights on its costs and capacities make it a general one.
        market = make_market(180 + seed)
        split = VirtualCloudletSplit(market, allow_remote=allow_remote)
        unit = object_weighted_gap_instance(split)
        scale = as_rng(seed).uniform(0.5, 1.0, size=unit.weights.shape)
        instance = gap_reference.WeightedGAPInstance(
            unit.costs, unit.weights * scale, unit.capacities
        )
        assert gap_reference._slot_multiplicities(instance) is None
        relaxations = []
        for assemble in (gap_reference._assemble, _assemble_scalar):
            with mock.patch.object(
                gap_reference, "_assemble", wraps=assemble
            ) as assembly:
                relaxations.append(gap_reference.solve_lp_relaxation(instance))
            assembly.assert_called_once_with(instance)
        vector, scalar = relaxations
        assert vector.value == scalar.value
        assert np.array_equal(vector.fractions, scalar.fractions)

    def test_allowed_mask_matches_scalar_allowed(self):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit

        market = make_market(190, latency_budget_ms=3.0)
        split = VirtualCloudletSplit(market, allow_remote=True)
        mask = split.build_gap_instance().allowed_mask()
        weighted = object_weighted_gap_instance(split)
        assert not mask.all()  # the budget forbids some pairs
        np.testing.assert_array_equal(mask, weighted.allowed_mask())
        for j in range(weighted.n_items):
            for i in range(weighted.n_bins):
                assert bool(mask[j, i]) == gap_reference.allowed(weighted, j, i)

    def test_unknown_assembly_rejected(self):
        # One assembly path: the assemble= option left every solver.
        from repro.core.virtual_cloudlets import VirtualCloudletSplit
        from repro.gap.lp import solve_lp_relaxation
        from repro.gap.shmoys_tardos import shmoys_tardos

        market = make_market(195)
        instance = VirtualCloudletSplit(market).build_gap_instance()
        for solver in (solve_lp_relaxation, shmoys_tardos):
            with pytest.raises(TypeError):
                solver(instance, assemble="scalar")


class TestGreedyModeEquivalence:
    """The library's array greedy rounds must reproduce the scalar oracle's
    assignment item for item (same regret order, same tie-breaks)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("allow_remote", [False, True])
    def test_assignments_identical(self, seed, allow_remote):
        from repro.core.virtual_cloudlets import VirtualCloudletSplit
        from repro.gap.greedy import greedy_gap

        # Tight markets exercise rounds where feasibility shrinks.
        market = make_market(210 + seed, n_providers=20, n_nodes=25)
        split = VirtualCloudletSplit(market, allow_remote=allow_remote)
        instance = split.build_gap_instance()
        with mock.patch("repro.gap.greedy._greedy_assignment", _greedy_scalar):
            scalar = greedy_gap(instance)
        vector = greedy_gap(instance)
        assert vector.assignment == scalar.assignment
        assert vector.cost == scalar.cost

    def test_unknown_mode_rejected(self):
        # One greedy path: mode= is gone.
        from repro.core.virtual_cloudlets import VirtualCloudletSplit
        from repro.gap.greedy import greedy_gap

        market = make_market(220)
        instance = VirtualCloudletSplit(market).build_gap_instance()
        with pytest.raises(TypeError):
            greedy_gap(instance, mode="scalar")


class TestUncompiledGameBridge:
    """The object-graph game oracle rebuilds its tables from the cost
    callables — the pre-compiled path — and must stay bit-equal."""

    def test_tables_match_factory_view(self):
        market = make_market(200)
        fast = market_game(market).compile()
        with pytest.raises(TypeError):
            market_game(market, use_compiled=False)
        plain_game = object_market_game(market)
        # The oracle is the generic game: its compile() is the per-pair build.
        assert type(plain_game) is SingletonCongestionGame
        slow = plain_game.compile()
        assert np.array_equal(fast.fixed, slow.fixed)
        assert np.array_equal(fast.shared, slow.shared)
        assert np.array_equal(fast.capacity, slow.capacity)
        assert np.array_equal(fast.demand, slow.demand)


class TestPoAEquivalence:
    def test_worst_equilibrium_cost_is_object_graph_cost(self):
        market = make_market(150, n_providers=8, n_nodes=25)
        game = market_game(market)
        cost, profile = worst_equilibrium_cost(game, trials=5, rng=3)
        # The compiled evaluation the PoA path reports must equal the
        # object-graph social cost of the witnessing profile.
        assert cost == game.social_cost(profile)

    def test_exact_enumeration_matches_object_graph(self):
        market = make_market(160, n_providers=4, n_nodes=12)
        game = market_game(market)
        cost, profile = worst_equilibrium_cost(game, exact=True)
        assert cost == game.social_cost(profile)


class TestOptimalOnCompiledTables:
    def test_optimal_cost_equals_object_social_cost(self):
        market = make_market(170, n_providers=7, n_nodes=20)
        a = optimal_caching(market)
        oracle = object_social_cost(market, a.placement, a.rejected)
        assert a.info["optimal_cost"] == pytest.approx(oracle, rel=1e-12)
        assert a.social_cost == oracle


def _eq_market(_x, seed):
    network = random_mec_network(30, rng=seed)
    return generate_market(network, 10, rng=seed + 1)


def _eq_algorithms(_x):
    return default_algorithms(0.3, True)


class TestPrecompiledSweep:
    def test_precompiled_metrics_bit_identical(self):
        kwargs = dict(
            name="precompile-ident",
            x_label="x",
            x_values=[0, 1],
            make_market=_eq_market,
            make_algorithms=_eq_algorithms,
            repetitions=2,
        )
        plain = sweep(workers=1, **kwargs)
        pre_serial = sweep(workers=1, precompile=True, **kwargs)
        pre_parallel = sweep(workers=2, precompile=True, **kwargs)
        for other in (pre_serial, pre_parallel):
            for point_a, point_b in zip(plain.points, other.points):
                assert set(point_a) == set(point_b)
                for alg in point_a:
                    for f in METRIC_FIELDS:
                        assert getattr(point_a[alg], f) == getattr(point_b[alg], f)
