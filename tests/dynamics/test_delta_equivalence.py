"""Differential suite for the mutation-aware dynamics rewrite.

Three contracts, in increasing scope:

1. **Table equivalence** — after every epoch of a long churn trace, the
   delta-patched :class:`CompiledMarket` inside the simulation is per-entry
   identical to a fresh ``CompiledMarket.from_market`` of the same market.
2. **Arm equivalence** — for every policy and warm-start setting, the
   library simulation (one persistent delta-patched market) bills
   bit-identical epoch records to the ``ObjectRebuildSimulation`` oracle
   (market object graph rebuilt from scratch every epoch).
3. **Churn edge cases**, run invariant-armed (``REPRO_DEBUG_INVARIANTS=1``
   makes every ``apply_delta`` self-verify against the object graph),
   including multi-cluster churn through the row builder's rank-by-rank
   fold, table growth and compaction.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.lcf import lcf
from repro.dynamics.population import PopulationProcess
from repro.dynamics.simulation import DynamicMarketSimulation
from repro.market.compiled import COMPACTION_SLACK, CompiledMarket
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.workload import WorkloadParams, generate_market
from repro.network.generators import random_mec_network

from tests.dynamics.conftest import ScriptedPopulation, draw_providers
from tests.oracles.object_graph_reference import ObjectRebuildSimulation

POLICIES = ("replan", "incremental", "hysteresis")


def make_population(network, seed, **kwargs):
    defaults = dict(arrival_rate=3.0, mean_lifetime=5.0, initial_population=10)
    defaults.update(kwargs)
    return PopulationProcess(network, rng=seed, **defaults)


def make_sim(network, seed, simulation=DynamicMarketSimulation, **kwargs):
    return simulation(
        network,
        make_population(network, seed),
        gap_solver="greedy",
        **kwargs,
    )


#: Every per-provider table the row builder writes.
ROW_TABLES = (
    "fixed", "access", "update", "user_delay", "instantiation", "remote", "demand",
)


def assert_tables_equivalent(cm, market):
    """Patched view == fresh compile, entry by entry, gathered in id order."""
    fresh = CompiledMarket.from_market(market)
    assert cm.provider_ids == fresh.provider_ids
    rows = cm.active_rows
    for name in ROW_TABLES:
        np.testing.assert_array_equal(getattr(cm, name)[rows], getattr(fresh, name))
    n = len(fresh.provider_ids)
    np.testing.assert_array_equal(cm.g[: n + 1], fresh.g)
    np.testing.assert_array_equal(cm.shared[:, : n + 1], fresh.shared)
    np.testing.assert_array_equal(cm.capacity, fresh.capacity)
    cm.verify_against(market)


# --------------------------------------------------------------------- #
# 1. Table equivalence over a long churn trace
# --------------------------------------------------------------------- #
class TestTableEquivalence:
    def test_fifty_epoch_churn_trace(self):
        network = random_mec_network(40, rng=21)
        sim = make_sim(network, seed=22, policy="replan")
        for _ in range(50):
            sim.step()
            if sim.market is not None and sim.market.num_providers:
                assert_tables_equivalent(sim.market.compile(), sim.market)

    def test_trace_is_armed_compatible(self, monkeypatch):
        # The same loop with invariants armed: every apply_delta
        # self-verifies, so a divergence fails inside step().
        monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")
        network = random_mec_network(36, rng=31)
        sim = make_sim(network, seed=32, policy="hysteresis")
        sim.run(20)


# --------------------------------------------------------------------- #
# 2. Compiled arm == object arm, per epoch, bit for bit
# --------------------------------------------------------------------- #
class TestArmEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("warm", [True, False])
    def test_compiled_matches_object_rebuild(self, policy, warm):
        network = random_mec_network(40, rng=41)
        compiled_sim = make_sim(
            network, seed=42, policy=policy, warm_start=warm,
        )
        object_sim = make_sim(
            network, seed=42, policy=policy, warm_start=warm,
            simulation=ObjectRebuildSimulation,
        )
        a = compiled_sim.run(20)
        b = object_sim.run(20)
        for ra, rb in zip(a.epochs, b.epochs):
            assert ra.population == rb.population
            assert ra.social_cost == rb.social_cost
            assert ra.migration_cost == rb.migration_cost
            assert ra.migrations == rb.migrations
            assert ra.rejected == rb.rejected
            assert ra.replanned == rb.replanned


# --------------------------------------------------------------------- #
# 3. Warm-start stability
# --------------------------------------------------------------------- #
class TestWarmStartStability:
    def test_warm_lcf_on_unchanged_market_reproduces_cold_result(self):
        network = random_mec_network(40, rng=51)
        market = generate_market(network, n_providers=25, rng=52)
        cold = lcf(market, xi=0.7, allow_remote=True, gap_solver="greedy")
        warm = lcf(
            market, xi=0.7, allow_remote=True, gap_solver="greedy",
            warm_start=cold,
        )
        assert warm.appro_assignment.info.get("warm_start") is True
        assert warm.assignment.placement == cold.assignment.placement
        assert warm.assignment.rejected == cold.assignment.rejected
        assert warm.assignment.social_cost == cold.assignment.social_cost

    def test_no_churn_epochs_migrate_nothing(self):
        network = random_mec_network(36, rng=61)
        initial = draw_providers(network, 12, start_id=0, seed=62)
        script = [(initial, [])] + [([], [])] * 4
        sim = DynamicMarketSimulation(
            network,
            ScriptedPopulation(script),
            policy="replan",
            warm_start=True,
            gap_solver="greedy",
        )
        summary = sim.run(5)
        assert summary.total_replans == 5
        assert summary.total_migrations == 0
        costs = [e.social_cost for e in summary.epochs]
        assert all(c == costs[0] for c in costs)


# --------------------------------------------------------------------- #
# 4. Churn edge cases, invariant-armed
# --------------------------------------------------------------------- #
class TestChurnEdgeCases:
    @pytest.fixture(autouse=True)
    def _arm(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")

    def test_epoch_with_zero_arrivals(self):
        network = random_mec_network(36, rng=71)
        initial = draw_providers(network, 10, start_id=0, seed=72)
        script = [(initial, []), ([], [0, 3, 7]), ([], [])]
        sim = DynamicMarketSimulation(
            network, ScriptedPopulation(script),
            policy="replan", gap_solver="greedy",
        )
        summary = sim.run(3)
        assert summary.epochs[1].arrived == 0
        assert summary.epochs[1].departed == 3
        assert summary.epochs[1].population == 7
        assert_tables_equivalent(sim.market.compile(), sim.market)

    def test_departure_of_previously_rejected_provider(self):
        network = random_mec_network(36, rng=81)
        # Starve the cloudlets so some providers are rejected to remote.
        for cl in network.cloudlets:
            cl.compute_capacity *= 0.02
            cl.bandwidth_capacity *= 0.02
        initial = draw_providers(network, 12, start_id=0, seed=82)
        sim = DynamicMarketSimulation(
            network,
            ScriptedPopulation([(initial, []), ([], []), ([], [])]),
            policy="incremental",
            gap_solver="greedy",
        )
        first = sim.step()
        assert first.rejected > 0, "fixture must actually reject someone"
        reject_id = sorted(sim.rejected)[0]
        sim.population.script[1] = ([], [reject_id])
        second = sim.step()
        assert reject_id not in sim.rejected
        assert second.rejected == first.rejected - 1
        sim.step()
        assert_tables_equivalent(sim.market.compile(), sim.market)

    def test_delta_that_empties_a_cloudlet(self):
        network = random_mec_network(36, rng=91)
        market = generate_market(network, n_providers=12, rng=92)
        cm = market.compile()
        result = lcf(market, xi=0.7, allow_remote=True, gap_solver="greedy")
        placement = result.assignment.placement
        occupied = {}
        for pid, node in placement.items():
            occupied.setdefault(node, []).append(pid)
        node, occupants = max(occupied.items(), key=lambda kv: len(kv[1]))
        market.apply(MarketDelta(departures=tuple(sorted(occupants))))
        assert_tables_equivalent(cm, market)
        # ...and the capacity-change flavour: a cloudlet priced out of the
        # market entirely by a zero-capacity delta.
        market.apply(MarketDelta(capacity_changes={node: (0.0, 0.0)}))
        after = lcf(market, xi=0.7, allow_remote=True, gap_solver="greedy")
        assert node not in set(after.assignment.placement.values())
        assert_tables_equivalent(cm, market)

    def test_compaction_after_many_tombstones(self):
        network = random_mec_network(40, rng=101)
        n = COMPACTION_SLACK + 12
        market = generate_market(network, n_providers=n + 6, rng=102)
        cm = market.compile()
        # Depart one at a time: every intermediate state is verified by the
        # armed invariant hook, including the apply that trips compaction.
        rows_at_start = cm.n_rows
        for p in list(market.providers)[:n]:
            market.apply(MarketDelta(departures=(p.provider_id,)))
        # Rows only ever shrink through compact(); fewer physical rows than
        # we started with proves compaction fired mid-trace.
        assert cm.n_rows < rows_at_start
        newcomers = draw_providers(network, 4, start_id=5000, seed=103)
        market.apply(MarketDelta(arrivals=tuple(newcomers)))
        assert_tables_equivalent(cm, market)


# --------------------------------------------------------------------- #
# 5. Multi-cluster churn: the rank-by-rank row fold, invariant-armed
# --------------------------------------------------------------------- #
class TestMultiClusterChurn:
    PARAMS = WorkloadParams(user_clusters_range=(1, 4))

    @pytest.fixture(autouse=True)
    def _arm(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")

    @pytest.mark.parametrize("budget", [None, 3.0])
    def test_churn_trace_with_growth_and_compaction(self, budget):
        network = random_mec_network(40, rng=111)
        population = PopulationProcess(
            network, arrival_rate=5.0, mean_lifetime=4.0, params=self.PARAMS,
            initial_population=12, rng=112,
        )
        market = ServiceMarket(network, population.present, latency_budget_ms=budget)
        cm = market.compile()
        depths = {len(p.service.clusters) for p in market.providers}
        for _ in range(20):
            event = population.step()
            by_id = {p.provider_id: p for p in population.present}
            arrivals = tuple(by_id[pid] for pid in sorted(event.arrived))
            depths |= {len(p.service.clusters) for p in arrivals}
            market.apply(MarketDelta(arrivals=arrivals, departures=event.departed))
            assert_tables_equivalent(cm, market)
        assert {1, 2, 3, 4} <= depths, "trace must mix cluster depths"
        # Delays stay source-side: every user_delay entry is networkx's sum
        # from the user node (summed from the cloudlet end, about a third
        # of the entries differ in the last bit on this network).
        for p in market.providers:
            row = cm.user_delay[cm.provider_index[p.provider_id]]
            dist = nx.single_source_dijkstra_path_length(
                network.graph, p.service.user_node
            )
            assert row.tolist() == [dist[node] for node in cm.cloudlet_nodes]
        if budget is not None:
            assert np.isinf(cm.fixed[cm.active_rows]).any()

        # Growth: more arrivals than free rows. The tables grow by a
        # reserve, and the reserve alone does not trip compaction.
        newcomers = draw_providers(
            network, len(cm._free_rows) + 10, start_id=10_000, seed=113,
            params=self.PARAMS,
        )
        rows_before = cm.n_rows
        market.apply(MarketDelta(arrivals=tuple(newcomers)))
        assert cm.n_rows > rows_before
        assert cm._free_rows, "growth keeps a reserve of free rows"
        assert_tables_equivalent(cm, market)

        # Compaction: departing most of the population leaves more
        # tombstones than COMPACTION_SLACK plus the survivors.
        ids = cm.provider_ids
        doomed = tuple(ids[: len(ids) - COMPACTION_SLACK // 2])
        market.apply(MarketDelta(departures=doomed))
        assert cm.n_rows == cm.n_providers
        assert_tables_equivalent(cm, market)
