"""Differential suite: the bulk topology generators against their
graph-at-a-time originals.

:func:`repro.network.generators.transit_stub_graph` draws each stub domain
as an edge list from ``nx.gnp_random_graph``'s own stream
(:func:`repro.utils.rng.gnp_edges`) and
:func:`~repro.network.generators.mec_network_from_graph` adds switches and
links in one pass each, with one draw of all link delays.
:mod:`tests.oracles.generators_reference` keeps the versions that built a
networkx graph per domain and added one switch and one link at a time. A
seeded network must come out the same in every respect a consumer can see:
node order, edge order, each node's adjacency order, node and edge
attributes (delays included), cloudlets, data centers, and the state the
generator is left in.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.network.generators import (
    _connected_gnp_edges,
    mec_network_from_graph,
    random_mec_network,
    transit_stub_graph,
)
from repro.network.zoo import as1755, as1755_mec_network
from repro.utils.rng import as_rng, gnp_edges

from tests.oracles import generators_reference as ref

SIZES = (7, 8, 9, 11, 16, 26, 50, 75, 150, 250, 400)
SEEDS = range(25)
MODELS = ("transit_stub", "waxman", "scale_free")


def assert_same_graph(got: nx.Graph, want: nx.Graph) -> None:
    assert list(got.nodes(data=True)) == list(want.nodes(data=True))
    assert list(got.edges(data=True)) == list(want.edges(data=True))
    assert [list(got.adj[u]) for u in got] == [list(want.adj[u]) for u in want]


def assert_same_network(got, want) -> None:
    assert got.name == want.name
    assert_same_graph(got.graph, want.graph)
    for a, b in zip(got.graph.nodes.values(), want.graph.nodes.values()):
        assert vars(a["element"]) == vars(b["element"])
    assert [vars(c) for c in got.cloudlets] == [vars(c) for c in want.cloudlets]
    assert [vars(d) for d in got.data_centers] == [vars(d) for d in want.data_centers]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n_nodes", SIZES)
def test_random_mec_network_matches_reference(model, n_nodes):
    for seed in SEEDS:
        rng, ref_rng = as_rng(seed), as_rng(seed)
        got = random_mec_network(n_nodes, rng=rng, model=model)
        want = ref.reference_random_mec_network(n_nodes, rng=ref_rng, model=model)
        assert_same_network(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("stub_domain_size", range(1, 7))
def test_transit_stub_domains_match_reference(stub_domain_size):
    for n_nodes in (7, 12, 30, 97):
        for seed in range(10):
            rng, ref_rng = as_rng(seed), as_rng(seed)
            got = transit_stub_graph(n_nodes, rng, stub_domain_size=stub_domain_size)
            want = ref.transit_stub_graph(
                n_nodes, ref_rng, stub_domain_size=stub_domain_size
            )
            assert_same_graph(got, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("p", [0.02, 0.05, 0.1, 0.6, 1.0])
def test_sparse_domains_match_reference(p):
    """Many components of large ids: a component's members come out in
    the breadth-first set's iteration order, which is not sorted once ids
    collide in the set's table."""
    for n in (2, 9, 40, 90):
        for seed in range(10):
            rng, ref_rng = as_rng(seed), as_rng(seed)
            got = _connected_gnp_edges(n, p, rng)
            assert got == list(ref._connected_gnp(n, p, ref_rng).edges)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(10))
def test_as1755_mec_network_matches_reference(seed):
    assert_same_network(as1755_mec_network(seed), ref.reference_as1755_mec_network(seed))


def test_dressing_a_graph_matches_reference():
    """A graph whose node ids are not in sorted order."""
    g = nx.relabel_nodes(as1755(), {u: 200 - u for u in as1755()})
    for seed in range(5):
        assert_same_network(
            mec_network_from_graph(g, seed, link_delay_ms=(0.1, 9.0)),
            ref.mec_network_from_graph(g, seed, link_delay_ms=(0.1, 9.0)),
        )
    with pytest.raises(ValueError, match="empty interval"):
        mec_network_from_graph(g, 0, link_delay_ms=(2.0, 1.0))
    with pytest.raises(ValueError, match="empty interval"):
        ref.mec_network_from_graph(g, 0, link_delay_ms=(2.0, 1.0))


@pytest.mark.parametrize("p", [-0.5, 0.0, 0.1, 0.6, 0.95, 1.0, 1.5])
def test_gnp_edges_is_networkx_stream(p):
    for n in range(13):
        for seed in range(10):
            graph = nx.gnp_random_graph(n, p, seed=seed)
            assert gnp_edges(n, p, seed) == list(graph.edges)
