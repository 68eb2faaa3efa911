"""CompiledMarket: table correctness, equivalence, pickling, caching.

The compiled layer's contract is *bit-equality* with the object graph: every
table entry is produced by the same cost-model evaluation (or the same IEEE
operation on the same doubles), so algorithms running on the tables decide
identically to the reference paths. These tests pin the tables themselves;
tests/integration/test_compiled_equivalence.py pins the algorithms.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
import repro.market
import repro.market.compiled
from repro.core.appro import appro
from repro.core.baselines import jo_offload_cache, offload_cache
from repro.core.lcf import lcf
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.dynamics.population import PopulationProcess
from repro.dynamics.simulation import DynamicMarketSimulation
from repro.game.partitioned import partitioned_best_response
from repro.market.compiled import CompiledMarket
from repro.market.costs import LinearCongestion, MM1Congestion, QuadraticCongestion
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.contracts import sanitize_active
from repro.utils.rng import as_rng
from repro.utils.validation import CAPACITY_EPS

CONGESTIONS = {
    "linear": LinearCongestion(),
    "quadratic": QuadraticCongestion(scale=2.0),
    "mm1": MM1Congestion(capacity=64),
}


def make_market(seed, congestion=None, n_providers=14, n_nodes=30):
    network = random_mec_network(n_nodes, rng=seed)
    return generate_market(
        network, n_providers=n_providers, rng=seed + 1, congestion=congestion
    )


def random_placement(market, rng):
    """A full (not necessarily capacity-feasible) placement — social cost is
    defined on any placement."""
    nodes = [cl.node_id for cl in market.network.cloudlets]
    return {
        p.provider_id: nodes[int(rng.integers(len(nodes)))]
        for p in market.providers
    }


class TestTables:
    def test_fixed_matches_cost_model(self, small_market):
        cm = small_market.compile()
        model = small_market.cost_model
        for i, p in enumerate(small_market.providers):
            for j, cl in enumerate(small_market.network.cloudlets):
                assert cm.fixed[i, j] == model.fixed_cost(p, cl)

    def test_fixed_components(self, small_market):
        cm = small_market.compile()
        model = small_market.cost_model
        for i, p in enumerate(small_market.providers):
            assert cm.instantiation[i] == model.instantiation_cost(p)
            assert cm.remote[i] == model.remote_cost(p)
            for j, cl in enumerate(small_market.network.cloudlets):
                assert cm.access[i, j] == model.access_cost(p, cl)
                assert cm.update[i, j] == model.update_cost(p, cl)

    @pytest.mark.parametrize("name", sorted(CONGESTIONS))
    def test_shared_matches_congestion_cost(self, name):
        market = make_market(11, congestion=CONGESTIONS[name])
        cm = market.compile()
        model = market.cost_model
        for j, cl in enumerate(market.network.cloudlets):
            for k in range(1, cm.n_providers + 1):
                assert cm.shared[j, k] == model.congestion_cost(cl, k)
        assert np.all(cm.shared[:, 0] == 0.0)

    def test_demand_capacity_vectors(self, small_market):
        cm = small_market.compile()
        for i, p in enumerate(small_market.providers):
            assert cm.demand[i, 0] == p.compute_demand
            assert cm.demand[i, 1] == p.bandwidth_demand
        for j, cl in enumerate(small_market.network.cloudlets):
            assert cm.capacity[j, 0] == cl.compute_capacity
            assert cm.capacity[j, 1] == cl.bandwidth_capacity

    def test_user_delay_matches_network(self, small_market):
        cm = small_market.compile()
        net = small_market.network
        for i, p in enumerate(small_market.providers):
            for j, cl in enumerate(net.cloudlets):
                assert cm.user_delay[i, j] == net.path_delay(
                    p.service.user_node, cl.node_id
                )

    def test_gap_costs_match_model(self, small_market):
        cm = small_market.compile()
        model = small_market.cost_model
        gap = cm.gap_costs()
        for i, p in enumerate(small_market.providers):
            for j, cl in enumerate(small_market.network.cloudlets):
                want = model.gap_cost(p, cl)
                if math.isinf(want):
                    assert math.isinf(gap[i, j])
                else:
                    assert gap[i, j] == want

    def test_index_maps_are_stable(self, small_market):
        cm = small_market.compile()
        assert cm.provider_ids == [p.provider_id for p in small_market.providers]
        assert cm.cloudlet_nodes == [
            cl.node_id for cl in small_market.network.cloudlets
        ]
        for pid, i in cm.provider_index.items():
            assert cm.provider_ids[i] == pid
            assert cm.provider_row(pid) == i
        for node, j in cm.cloudlet_index.items():
            assert cm.cloudlet_nodes[j] == node
            assert cm.cloudlet_col(node) == j
        with pytest.raises(ConfigurationError):
            cm.provider_row(10_000)
        with pytest.raises(ConfigurationError):
            cm.cloudlet_col(-5)

    def test_multi_cluster_access_matches_model(self):
        from repro.market.workload import WorkloadParams

        network = random_mec_network(30, rng=41)
        market = generate_market(
            network,
            n_providers=10,
            params=WorkloadParams(user_clusters_range=(3, 5)),
            rng=42,
        )
        cm = market.compile()
        model = market.cost_model
        for i, p in enumerate(market.providers):
            assert len(p.service.clusters) >= 3
            for j, cl in enumerate(network.cloudlets):
                assert cm.access[i, j] == model.access_cost(p, cl)
                assert cm.fixed[i, j] == model.fixed_cost(p, cl)

    def test_latency_budget_masks_fixed(self):
        network = random_mec_network(30, rng=43)
        market = generate_market(
            network, n_providers=10, rng=44, latency_budget_ms=5.0
        )
        cm = market.compile()
        model = market.cost_model
        saw_inf = False
        for i, p in enumerate(market.providers):
            for j, cl in enumerate(network.cloudlets):
                want = model.fixed_cost(p, cl)
                if math.isinf(want):
                    saw_inf = True
                    assert math.isinf(cm.fixed[i, j])
                else:
                    assert cm.fixed[i, j] == want
        assert saw_inf  # the budget actually bit on this market

    def test_g_at_extends_past_table(self):
        market = make_market(3, congestion=QuadraticCongestion(scale=2.0))
        cm = market.compile()
        n = cm.n_providers
        assert cm.g_at(n) == cm.g[n]
        assert cm.g_at(n + 7) == market.cost_model.congestion(n + 7)


class TestSocialCostEquivalence:
    """Property: social_cost(compiled) == social_cost(object graph) within
    CAPACITY_EPS — across random markets, all three congestion functions,
    and a pickle round-trip (satellite 3). The implementation actually
    achieves bit-equality; the assertions check both."""

    @pytest.mark.parametrize("name", sorted(CONGESTIONS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_social_cost_matches_object_graph(self, name, seed):
        market = make_market(17 + seed, congestion=CONGESTIONS[name])
        cm = market.compile()
        model = market.cost_model
        providers = market.providers_by_id()
        rng = as_rng(1000 + seed)
        for _ in range(5):
            placement = random_placement(market, rng)
            want = model.social_cost(providers, placement)
            got = cm.social_cost(placement)
            assert got == pytest.approx(want, abs=CAPACITY_EPS)
            assert got == want  # bit-equal, not merely close

    @pytest.mark.parametrize(
        "name, size, protocol",
        [
            pytest.param(name, (30, 14), pickle.DEFAULT_PROTOCOL, id=name)
            for name in sorted(CONGESTIONS)
        ]
        + [
            # Tables of 1 KB or more: a protocol-4 pickle hands them back
            # as read-only views on bytes.
            pytest.param(name, (150, 60), protocol, id=f"{name}-150x60-p{protocol}")
            for name in sorted(CONGESTIONS)
            for protocol in (4, pickle.HIGHEST_PROTOCOL)
        ],
    )
    def test_pickle_round_trip_preserves_costs(self, name, size, protocol):
        n_nodes, n_providers = size
        market = make_market(
            29, congestion=CONGESTIONS[name], n_providers=n_providers, n_nodes=n_nodes
        )
        cm = market.compile()
        clone = pickle.loads(pickle.dumps(cm, protocol=protocol))
        assert isinstance(clone, CompiledMarket)
        assert clone.provider_ids == cm.provider_ids
        assert clone.cloudlet_nodes == cm.cloudlet_nodes
        for arr in ("fixed", "shared", "demand", "capacity", "remote", "g"):
            assert np.array_equal(getattr(clone, arr), getattr(cm, arr))
        rng = as_rng(7)
        placement = random_placement(market, rng)
        assert clone.social_cost(placement) == cm.social_cost(placement)
        # The round-tripped congestion callable still extends g past n.
        assert clone.g_at(cm.n_providers + 3) == cm.g_at(cm.n_providers + 3)
        # Writable unless REPRO_SANITIZE freezes them in this process.
        for table in cm._TABLE_FIELDS:
            assert getattr(clone, table).flags.writeable != sanitize_active(), table

    def test_provider_cost_matches_model(self, small_market):
        cm = small_market.compile()
        model = small_market.cost_model
        rng = as_rng(13)
        placement = random_placement(small_market, rng)
        for p in small_market.providers:
            assert cm.provider_cost(p.provider_id, placement) == model.provider_cost(
                p, placement
            )
        with pytest.raises(ConfigurationError):
            cm.provider_cost(small_market.providers[0].provider_id, {})

    def test_provider_costs_match_provider_cost(self, small_market):
        cm = small_market.compile()
        for seed in range(5):
            placement = random_placement(small_market, as_rng(seed))
            assert cm.provider_costs(placement) == {
                pid: cm.provider_cost(pid, placement) for pid in placement
            }
        assert cm.provider_costs({}) == {}


class TestPlacementState:
    def test_occupancy_and_loads(self, small_market):
        cm = small_market.compile()
        rng = as_rng(5)
        placement = random_placement(small_market, rng)
        occ = cm.occupancy_vector(placement)
        counts = small_market.cost_model.occupancy(placement)
        for node, j in cm.cloudlet_index.items():
            assert occ[j] == counts.get(node, 0)
        loads = cm.load_matrix(placement)
        by_node = {}
        for pid, node in placement.items():
            p = small_market.provider(pid)
            cpu, bw = by_node.get(node, (0.0, 0.0))
            by_node[node] = (cpu + p.compute_demand, bw + p.bandwidth_demand)
        for node, (cpu, bw) in by_node.items():
            j = cm.cloudlet_index[node]
            assert loads[j, 0] == cpu
            assert loads[j, 1] == bw

    def test_fits_mask_respects_capacity(self, small_market):
        cm = small_market.compile()
        loads = np.zeros((cm.n_cloudlets, 2))
        assert cm.fits_mask(0, loads).any()
        # Saturate every cloudlet: nothing fits any more.
        full = cm.capacity.copy()
        assert not cm.fits_mask(0, full).any()


class TestCachingAndInvalidation:
    def test_compile_is_cached(self, small_market):
        assert small_market.compile() is small_market.compile()

    def test_invalidate_drops_cache_and_tracks_mutation(self, small_market):
        cm = small_market.compile()
        cl = small_market.network.cloudlets[0]
        cl.compute_capacity *= 2.0
        small_market.invalidate_compiled()
        cm2 = small_market.compile()
        assert cm2 is not cm
        assert cm2.capacity[0, 0] == cl.compute_capacity

    def test_scaled_capacities_invalidates(self, small_market):
        from repro.core.planning import scaled_capacities

        before = small_market.compile().capacity.copy()
        with scaled_capacities(small_market, 2.0):
            inside = small_market.compile().capacity
            assert np.allclose(inside, before * 2.0)
        after = small_market.compile().capacity
        assert np.array_equal(after, before)

    def test_verify_against_runs_under_invariants(self, small_market, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")
        small_market.invalidate_compiled()
        cm = small_market.compile()  # builds + self-verifies
        cm.verify_against(small_market)


class TestResolveCompiled:
    """Every algorithm runs on ``market.compile()``, the market's cached
    blob: no hand-in blob and no switch to another representation."""

    ALGORITHMS = (appro, lcf, jo_offload_cache, offload_cache)

    def test_default_compiles_and_caches(self, small_market, monkeypatch):
        small_market.invalidate_compiled()
        builds = []
        original = CompiledMarket.from_market

        def counting(market):
            builds.append(market)
            return original(market)

        monkeypatch.setattr(CompiledMarket, "from_market", counting)
        for algorithm in self.ALGORITHMS:
            algorithm(small_market)
        assert builds == [small_market]

    def test_explicit_blob_rejected(self, small_market):
        # The market's cached compile() is the only table source: no
        # solve-path entry point takes a hand-in blob any more.
        blob = small_market.compile()
        start = appro(small_market).placement
        for algorithm in self.ALGORITHMS + (partitioned_best_response,):
            args = (start,) if algorithm is partitioned_best_response else ()
            with pytest.raises(TypeError):
                algorithm(small_market, *args, compiled=blob)
        split = VirtualCloudletSplit(small_market)
        with pytest.raises(TypeError):
            split.build_gap_instance(compiled=blob)

    def test_object_path_returns_none(self, small_market):
        # The object-graph path left src/; it is a test oracle now.
        for algorithm in self.ALGORITHMS:
            with pytest.raises(TypeError):
                algorithm(small_market, representation="object")

    def test_object_with_blob_is_rejected(self, small_market):
        blob = small_market.compile()
        for algorithm in self.ALGORITHMS:
            with pytest.raises(TypeError):
                algorithm(small_market, representation="object", compiled=blob)

    def test_unknown_representation_rejected(self, small_market):
        network = small_market.network
        population = PopulationProcess(network, arrival_rate=1.0, rng=0)
        with pytest.raises(TypeError):
            DynamicMarketSimulation(network, population, representation="compiled")

    def test_representations_tuple(self):
        for module in (repro.market, repro.market.compiled):
            assert not hasattr(module, "REPRESENTATIONS")
            assert not hasattr(module, "resolve_compiled")
