"""Differential suite: the csgraph routing table against the networkx oracle.

:class:`~repro.network.routing.RoutingTable` solves each source row with
``scipy.sparse.csgraph.dijkstra`` and keeps it as an array;
:class:`~tests.oracles.routing_reference.ReferenceRoutingTable` is the
original networkx-per-source table with dict rows. Both sum link delays from
the source outwards, so every entry must agree exactly (``==``, never
approx). The suite also pins the symmetric per-pair lookup direction, the
error semantics, the memo, and the compiled market tables built on top.
"""

from __future__ import annotations

import math
from collections import Counter
from unittest import mock

import networkx as nx
import numpy as np
import pytest

import repro.network.routing
from repro.dynamics.population import PopulationProcess
from repro.exceptions import TopologyError
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.network.generators import (
    mec_network_from_graph,
    random_mec_network,
    scale_free_graph,
    transit_stub_graph,
    waxman_graph,
)
from repro.network.routing import RoutingTable
from repro.network.topology import MECNetwork
from repro.network.zoo import as1755_mec_network
from repro.utils.rng import as_rng

from tests.oracles.routing_reference import ArrayRowReference, ReferenceRoutingTable

GRAPH_MODELS = {
    "transit_stub": transit_stub_graph,
    "waxman": waxman_graph,
    "scale_free": scale_free_graph,
}


def assert_rows_equal(graph):
    """Every delay and hop entry, from every source, equals networkx."""
    table = RoutingTable(graph)
    oracle = ReferenceRoutingTable(graph)
    nodes = list(graph.nodes)
    for u in nodes:
        delay, hops = table.delay_row(u), table.hop_row(u)
        ref_delay, ref_hops = oracle.delay_row(u), oracle.hop_row(u)
        want_delay = np.array([ref_delay.get(v, math.inf) for v in nodes])
        want_hops = np.array([ref_hops.get(v, math.inf) for v in nodes])
        assert delay.shape == hops.shape == (len(nodes),)
        assert np.array_equal(delay, want_delay), u
        assert np.array_equal(hops, want_hops), u


class TestRowsMatchNetworkx:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_nodes", [100, 250, 1000])
    def test_random_mec_network(self, n_nodes, seed):
        assert_rows_equal(random_mec_network(n_nodes, rng=seed).graph)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("model", sorted(GRAPH_MODELS))
    def test_topology_families(self, model, seed):
        rng = as_rng(seed)
        net = mec_network_from_graph(GRAPH_MODELS[model](300, rng), rng)
        assert_rows_equal(net.graph)

    def test_as1755(self):
        assert_rows_equal(as1755_mec_network(rng=1).graph)

    def test_directed_graph(self):
        rng = as_rng(5)
        g = nx.gnp_random_graph(60, 0.06, seed=5, directed=True)
        for u, v in g.edges:
            g[u][v]["weight"] = float(rng.uniform(0.5, 2.0))
        table, oracle = RoutingTable(g), ReferenceRoutingTable(g)
        assert_rows_equal(g)
        # Directed distances are not symmetric, so no answer may be served
        # from the destination's row.
        asymmetric = 0
        for u in range(60):
            for v in range(60):
                want = oracle.delay_row(u).get(v)
                if want is None:
                    with pytest.raises(TopologyError):
                        table.path_delay(u, v)
                    continue
                assert table.path_delay(u, v) == want
                asymmetric += oracle.delay_row(v).get(u) != want
        assert asymmetric > 0

    def test_zero_delay_links_are_links(self):
        net = MECNetwork()
        for node in range(4):
            net.add_switch(node)
        net.add_link(0, 1, delay_ms=0.0)
        net.add_link(1, 2, delay_ms=0.0)
        net.add_link(2, 3, delay_ms=1.5)
        table = RoutingTable(net.graph)
        assert table.path_delay(0, 2) == 0.0
        assert table.hop_count(0, 2) == 2
        assert table.path_delay(3, 0) == 1.5
        assert list(table.delay_row(0)) == [0.0, 0.0, 0.0, 1.5]
        assert_rows_equal(net.graph)

    def test_zero_weight_only_graph(self):
        g = nx.Graph()
        g.add_edge("a", "b", weight=0.0)
        g.add_node("c")
        table = RoutingTable(g)
        assert table.path_delay("a", "b") == 0.0
        assert table.hop_count("b", "a") == 1
        assert_rows_equal(g)


class TestPairQueries:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_shuffled_pair_stream(self, seed):
        # The same stream of pairs, in the same order, against both tables:
        # each answers an undirected pair from whichever endpoint row it
        # already holds, so identical answers pin the lookup direction.
        net = random_mec_network(250, rng=seed)
        table, oracle = RoutingTable(net.graph), ReferenceRoutingTable(net.graph)
        rng = as_rng(seed)
        nodes = list(net.graph.nodes)
        hubs = [cl.node_id for cl in net.cloudlets] + [
            dc.node_id for dc in net.data_centers
        ]
        for _ in range(3000):
            u = nodes[rng.integers(len(nodes))]
            v = hubs[rng.integers(len(hubs))] if rng.random() < 0.7 else nodes[
                rng.integers(len(nodes))
            ]
            if rng.random() < 0.5:
                u, v = v, u
            d, h = table.path_delay(u, v), table.hop_count(u, v)
            assert d == oracle.path_delay(u, v) and type(d) is float
            assert h == oracle.hop_count(u, v) and type(h) is int
        assert sorted(table._delay_rows) == sorted(oracle._delay_rows)
        assert sorted(table._hop_rows) == sorted(oracle._hop_rows)

    def test_eccentricity_and_diameter(self):
        net = random_mec_network(100, rng=4)
        table, oracle = RoutingTable(net.graph), ReferenceRoutingTable(net.graph)
        for u in list(net.graph.nodes)[:20]:
            assert table.eccentricity(u) == oracle.eccentricity(u)
        assert table.diameter() == oracle.diameter()


class TestErrors:
    @staticmethod
    def split_graph():
        g = nx.Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(2, 3, weight=2.0)
        return g

    def test_disconnected_pairs_raise(self):
        table = RoutingTable(self.split_graph())
        for u, v in [(0, 2), (3, 1)]:
            with pytest.raises(TopologyError, match="no path"):
                table.path_delay(u, v)
            with pytest.raises(TopologyError, match="no path"):
                table.hop_count(u, v)

    def test_disconnected_row_entries_read_inf(self):
        table = RoutingTable(self.split_graph())
        pos = table.index_of([0, 1, 2, 3])
        assert list(table.delay_row(0)[pos]) == [0.0, 1.0, math.inf, math.inf]
        assert list(table.hop_row(3)[pos]) == [math.inf, math.inf, 1.0, 0.0]
        assert table.eccentricity(2) == 2.0

    def test_unknown_node_raises(self):
        table = RoutingTable(self.split_graph())
        for query in (table.delay_row, table.hop_row, table.eccentricity):
            with pytest.raises(TopologyError, match="unknown node 9"):
                query(9)
        for query in (table.path_delay, table.hop_count):
            with pytest.raises(TopologyError):
                query(0, 9)
            with pytest.raises(TopologyError):
                query(9, 0)
        with pytest.raises(TopologyError, match="unknown node 9"):
            table.index_of([0, 9])

    def test_multigraph_rejected(self):
        g = nx.MultiGraph()
        g.add_edge(0, 1, weight=1.0)
        with pytest.raises(TopologyError):
            RoutingTable(g)


# --------------------------------------------------------------------- #
# Memo and vacuity guards
# --------------------------------------------------------------------- #
def budget_market(n_nodes, seed, n_providers):
    network = random_mec_network(n_nodes, rng=seed)
    population = PopulationProcess(
        network, arrival_rate=40.0, mean_lifetime=4.0,
        initial_population=n_providers, rng=seed + 1,
    )
    market = ServiceMarket(
        network,
        population.present,
        pricing=Pricing.random(as_rng(seed + 2)),
        latency_budget_ms=3.0,
    )
    return market, population


def step_delta(population):
    event = population.step()
    by_id = {p.provider_id: p for p in population.present}
    return MarketDelta(
        arrivals=tuple(by_id[pid] for pid in sorted(event.arrived)),
        departures=tuple(event.departed),
    )


def routed_endpoints(network, providers):
    """(hop sources, delay sources) the compiler asks rows for under a
    latency budget: hops are read off one row per cloudlet (hop counts are
    symmetric integers) plus the home DC rows that remote pricing asks
    about; delays stay source-side, one row per cluster node and user
    node."""
    hop = {cl.node_id for cl in network.cloudlets}
    delay = set()
    for p in providers:
        svc = p.service
        hop.add(svc.home_dc)
        delay |= {node for node, _ in svc.clusters} | {svc.user_node}
    return hop, delay


class TestMemoAndVacuity:
    def test_compile_and_deltas_never_reach_networkx(self):
        market, population = budget_market(300, seed=3, n_providers=60)

        def forbidden(*args, **kwargs):
            raise AssertionError("routing fell back to a networkx row solve")

        with mock.patch.object(
            nx, "single_source_dijkstra_path_length", forbidden
        ), mock.patch.object(nx, "single_source_shortest_path_length", forbidden):
            market.compile()
            for _ in range(3):
                market.apply(step_delta(population))
        assert market.network.routing._delay_rows

    def test_one_solve_per_distinct_endpoint(self):
        """Every row the compiler reads is solved exactly once, a compile
        or a delta makes at most one solve call per metric, and the rows
        are still read through ``hop_row`` / ``delay_row`` (the seam the
        benchmark's routing layer times)."""
        market, population = budget_market(300, seed=4, n_providers=60)
        calls = []  # (phase, unweighted, sources) of every solve call
        reads = Counter()  # phase -> public row reads
        phase = ["compile"]
        real = repro.network.routing.dijkstra

        def counting(csgraph, *, indices, unweighted=False, **kwargs):
            sources = [int(i) for i in np.atleast_1d(indices)]
            calls.append((phase[0], unweighted, sources))
            return real(csgraph, indices=indices, unweighted=unweighted, **kwargs)

        def public(name):
            method = getattr(RoutingTable, name)

            def call(table, u):
                reads[phase[0]] += 1
                return method(table, u)

            return call

        seen = list(market.providers)
        with mock.patch.object(
            repro.network.routing, "dijkstra", counting
        ), mock.patch.object(
            RoutingTable, "hop_row", public("hop_row")
        ), mock.patch.object(RoutingTable, "delay_row", public("delay_row")):
            market.compile()
            for step in range(3):
                delta = step_delta(population)
                assert delta.arrivals
                seen.extend(delta.arrivals)
                phase[0] = f"delta {step}"
                market.apply(delta)
                market.compile()  # the cached, patched blob: no new rows
        per_call = Counter((ph, unw) for ph, unw, _ in calls)
        assert max(per_call.values()) == 1, per_call
        assert {("compile", True), ("compile", False)} <= set(per_call)
        assert set(reads) == {"compile", "delta 0", "delta 1", "delta 2"}
        solved = [(i, unw) for _, unw, sources in calls for i in sources]
        assert len(solved) == len(set(solved)), "a row was solved twice"
        hop, delay = routed_endpoints(market.network, seen)
        assert len(solved) == len(hop) + len(delay)
        pos = market.network.routing.index_of
        assert sorted(i for i, unw in solved if unw) == sorted(pos(hop))
        assert sorted(i for i, unw in solved if not unw) == sorted(pos(delay))

    def test_multi_source_rows_equal_single_source_rows(self):
        graph = random_mec_network(200, rng=2).graph
        batched, single = RoutingTable(graph), RoutingTable(graph)
        nodes = list(graph.nodes)[::3]
        for unweighted, row_of in ((False, "delay_row"), (True, "hop_row")):
            batched.solve_rows(nodes + nodes[:5], unweighted)
            for u in nodes:
                row = getattr(batched, row_of)(u)
                assert not row.flags.writeable
                assert row.tobytes() == getattr(single, row_of)(u).tobytes()
        with mock.patch.object(repro.network.routing, "dijkstra") as solve:
            batched.solve_rows(nodes, unweighted=False)
            batched.solve_rows(nodes, unweighted=True)
        solve.assert_not_called()
        with pytest.raises(TopologyError, match="unknown node"):
            batched.solve_rows([-1], unweighted=True)

    def test_rows_are_memoised_and_read_only(self):
        table = RoutingTable(random_mec_network(100, rng=1).graph)
        for row_of in (table.delay_row, table.hop_row):
            row = row_of(7)
            assert row_of(7) is row
            assert row.dtype == np.float64 and not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1.0


# --------------------------------------------------------------------- #
# Compiled tables across the swap
# --------------------------------------------------------------------- #
TABLES = ("fixed", "access", "update", "user_delay", "remote")


def assert_tables_equal(cm, ref):
    assert cm.provider_ids == ref.provider_ids
    for name in TABLES:
        assert np.array_equal(getattr(cm, name), getattr(ref, name)), name


def test_compiled_tables_bit_identical_across_swap():
    market, population = budget_market(1000, seed=1, n_providers=300)
    ref_market, ref_population = budget_market(1000, seed=1, n_providers=300)
    ref_net = ref_market.network
    ref_net._routing = ArrayRowReference(ref_net.graph)
    cm, ref = market.compile(), ref_market.compile()
    assert isinstance(ref_net.routing, ReferenceRoutingTable)
    assert_tables_equal(cm, ref)
    assert np.isinf(cm.fixed).any() and np.isfinite(cm.fixed).any()
    for _ in range(3):
        market.apply(step_delta(population))
        ref_market.apply(step_delta(ref_population))
        assert_tables_equal(market.compile(), ref_market.compile())
