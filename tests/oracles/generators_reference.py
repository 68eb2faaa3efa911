"""Reference topology generators: the library's graph-at-a-time builders.

``_connected_gnp``, ``transit_stub_graph`` and ``mec_network_from_graph``
are kept verbatim from before the generators drew stub domains as edge
lists and dressed networks in bulk: each stub domain is a
``nx.gnp_random_graph`` patched into connectivity, and every switch and
link goes through ``MECNetwork.add_switch`` / ``add_link`` with one delay
draw per link. :func:`reference_random_mec_network` and
:func:`reference_as1755_mec_network` assemble them as the library's
``random_mec_network`` and ``as1755_mec_network`` do.
``tests/network/test_generators_equivalence.py`` requires the library's
networks to equal these, node and edge order included.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import TopologyError
from repro.network.elements import Cloudlet, DataCenter
from repro.network.generators import (
    VM_COMPUTE_UNIT,
    _pick_cloudlet_nodes,
    _pick_dc_nodes,
    scale_free_graph,
    waxman_graph,
)
from repro.network.topology import MECNetwork
from repro.network.zoo import as1755
from repro.utils.rng import RandomSource, as_rng, uniform, uniform_int
from repro.utils.validation import check_int_at_least


def _connected_gnp(n: int, p: float, rng: np.random.Generator) -> nx.Graph:
    """An Erdos–Renyi graph patched into connectivity.

    GT-ITM guarantees connected domains by redrawing; redrawing whole graphs
    is wasteful for large ``n``, so we draw once and connect stranded
    components with uniformly random cross edges, which preserves the degree
    profile asymptotically.
    """
    g = nx.gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31 - 1)))
    components = [list(c) for c in nx.connected_components(g)]
    while len(components) > 1:
        a = components.pop()
        b = components[-1]
        u = a[int(rng.integers(0, len(a)))]
        v = b[int(rng.integers(0, len(b)))]
        g.add_edge(u, v)
        components[-1] = b + a
    return g


def transit_stub_graph(
    n_nodes: int,
    rng: RandomSource = None,
    transit_fraction: float = 0.15,
    stub_domain_size: int = 4,
    extra_edge_fraction: float = 0.05,
) -> nx.Graph:
    """Generate a two-level transit-stub graph with ~``n_nodes`` nodes.

    Structure (after GT-ITM):

    * a connected *transit core* of ``ceil(transit_fraction * n_nodes)``
      nodes with average degree ~3;
    * the remaining nodes grouped into stub domains of ``stub_domain_size``
      (internally connected), each domain homed to one transit node;
    * ``extra_edge_fraction * n_nodes`` additional random stub-stub /
      transit-stub edges for path diversity.

    Node attribute ``level`` is ``"transit"`` or ``"stub"``; ``region`` is
    the id of the transit node the node's domain is homed to (a transit
    node is its own region) — the stable partition key the sharded market
    layer reads through :func:`region_map`.
    """
    check_int_at_least(n_nodes, 4, "n_nodes")
    rng = as_rng(rng)

    n_transit = max(2, int(math.ceil(transit_fraction * n_nodes)))
    n_stub = n_nodes - n_transit
    if n_stub < 0:
        raise TopologyError(f"transit_fraction too large for {n_nodes} nodes")

    # Transit core: connected, avg degree ~3.
    p_core = min(1.0, 3.0 / max(1, n_transit - 1))
    core = _connected_gnp(n_transit, p_core, rng)
    g = nx.Graph()
    for u in core.nodes:
        g.add_node(u, level="transit", region=u)
    g.add_edges_from(core.edges)

    # Stub domains.
    next_id = n_transit
    stub_nodes: List[int] = []
    while next_id < n_nodes:
        size = min(stub_domain_size, n_nodes - next_id)
        members = list(range(next_id, next_id + size))
        next_id += size
        for u in members:
            g.add_node(u, level="stub")
            stub_nodes.append(u)
        if size == 1:
            pass  # singleton stub: only the uplink below
        else:
            dom = _connected_gnp(size, 0.6, rng)
            for a, b in dom.edges:
                g.add_edge(members[a], members[b])
        home = int(rng.integers(0, n_transit))
        gateway = members[int(rng.integers(0, size))]
        g.add_edge(home, gateway)
        # Region attributes are assigned after the home/gateway draws so
        # the RNG consumption order is exactly the pre-region sequence —
        # every seeded topology stays bit-identical.
        for u in members:
            g.nodes[u]["region"] = home

    # Extra cross edges for redundancy (each node keeps >= 2 disjoint routes
    # on average, matching the testbed's "at least two other switches" rule).
    n_extra = int(extra_edge_fraction * n_nodes)
    all_nodes = list(g.nodes)
    for _ in range(n_extra):
        u = all_nodes[int(rng.integers(0, len(all_nodes)))]
        v = all_nodes[int(rng.integers(0, len(all_nodes)))]
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)

    assert nx.is_connected(g)
    return g


def mec_network_from_graph(
    g: nx.Graph,
    rng: RandomSource = None,
    cloudlet_fraction: float = 0.10,
    n_data_centers: int = 5,
    vms_per_cloudlet: Tuple[int, int] = (15, 30),
    vm_bandwidth_mbps: Tuple[float, float] = (10.0, 100.0),
    congestion_coeff_range: Tuple[float, float] = (0.0, 1.0),
    link_bandwidth_mbps: float = 1000.0,
    link_delay_ms: Tuple[float, float] = (0.5, 2.0),
    name: str = "mec",
) -> MECNetwork:
    """Dress an arbitrary connected graph into a two-tiered MEC network.

    Parameters mirror Section IV.A: the number of VMs per cloudlet is drawn
    from ``vms_per_cloudlet`` = [15, 30]; each VM contributes
    :data:`VM_COMPUTE_UNIT` compute units and a bandwidth share drawn from
    ``vm_bandwidth_mbps`` = [10, 100] Mbps; alpha_i and beta_i are drawn from
    ``congestion_coeff_range`` = [0, 1].
    """
    if not nx.is_connected(g):
        raise TopologyError("input graph must be connected")
    rng = as_rng(rng)

    net = MECNetwork(name=name)
    for u in sorted(g.nodes):
        net.add_switch(u)
        # Carry the generator's topology-role attributes onto the dressed
        # network so region/level survive into every downstream consumer
        # (the sharded market partitions by them).
        for key in ("level", "region"):
            if key in g.nodes[u]:
                net.graph.nodes[u][key] = g.nodes[u][key]
    for u, v in g.edges:
        net.add_link(
            u, v,
            bandwidth=link_bandwidth_mbps,
            delay_ms=uniform(rng, *link_delay_ms),
        )

    n_cloudlets = max(1, int(round(cloudlet_fraction * g.number_of_nodes())))
    cl_nodes = _pick_cloudlet_nodes(g, n_cloudlets, rng)
    for u in cl_nodes:
        n_vms = uniform_int(rng, *vms_per_cloudlet)
        per_vm_bw = uniform(rng, *vm_bandwidth_mbps)
        net.attach_cloudlet(
            Cloudlet(
                node_id=u,
                compute_capacity=n_vms * VM_COMPUTE_UNIT,
                bandwidth_capacity=n_vms * per_vm_bw,
                alpha=uniform(rng, *congestion_coeff_range),
                beta=uniform(rng, *congestion_coeff_range),
                # Per-GB bandwidth unit price of the cloudlet, drawn from the
                # Section IV.A transmission price range.
                bdw_unit_cost=uniform(rng, 0.05, 0.12),
            )
        )

    dc_nodes = _pick_dc_nodes(g, n_data_centers, cl_nodes, rng)
    for u in dc_nodes:
        net.attach_data_center(DataCenter(node_id=u))

    net.validate()
    return net


def reference_random_mec_network(
    n_nodes: int, rng: RandomSource = None, model: str = "transit_stub"
) -> MECNetwork:
    """``random_mec_network`` on the reference builders."""
    rng = as_rng(rng)
    if model == "transit_stub":
        g = transit_stub_graph(n_nodes, rng)
    elif model == "waxman":
        g = waxman_graph(n_nodes, rng)
    elif model == "scale_free":
        g = scale_free_graph(n_nodes, rng)
    else:
        raise TopologyError(f"unknown topology model {model!r}")
    return mec_network_from_graph(g, rng, name=f"{model}-{n_nodes}")


def reference_as1755_mec_network(rng: RandomSource = None) -> MECNetwork:
    """``as1755_mec_network`` on the reference dressing."""
    return mec_network_from_graph(as1755(), as_rng(rng), name="as1755")


__all__ = [
    "mec_network_from_graph",
    "reference_as1755_mec_network",
    "reference_random_mec_network",
    "transit_stub_graph",
]
