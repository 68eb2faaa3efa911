"""GT-ITM-style random topology generation.

The paper generates networks of 50–400 switch nodes with GT-ITM [9]. GT-ITM's
flagship model is the *transit-stub* graph: a small connected core of transit
domains, each transit node sprouting several stub domains, plus a few extra
transit-stub and stub-stub edges. :func:`transit_stub_graph` reproduces that
structure; :func:`waxman_graph` provides GT-ITM's "flat random" alternative.

:func:`random_mec_network` dresses a generated graph per Section IV.A:
cloudlets at 10% of the nodes (randomly placed at the edge), 5 remote data
centers, per-cloudlet VM counts in [15, 30], per-VM bandwidth in
[10, 100] Mbps, and congestion coefficients alpha, beta in [0, 1].
"""

from __future__ import annotations

import math
from typing import List, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import TopologyError
from repro.network.elements import Cloudlet, DataCenter
from repro.network.topology import MECNetwork
from repro.utils.rng import RandomSource, as_rng, gnp_edges, uniform, uniform_int
from repro.utils.validation import check_int_at_least

#: Per-VM abstract compute capacity (1 VM = 1 compute unit).
VM_COMPUTE_UNIT = 1.0


def _connected_gnp_edges(
    n: int, p: float, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """The edges of an Erdos–Renyi graph on ``0..n-1`` patched into
    connectivity, in the order a :class:`networkx.Graph` holding them
    lists them.

    GT-ITM guarantees connected domains by redrawing; redrawing whole graphs
    is wasteful for large ``n``, so we draw once and connect stranded
    components with uniformly random cross edges, which preserves the degree
    profile asymptotically. The G(n, p) draw is
    ``nx.gnp_random_graph(n, p, seed)``'s own stream
    (:func:`~repro.utils.rng.gnp_edges`); the components are found and
    joined in the order ``nx.connected_components`` yields them, so the
    graph is the one networkx would build, drawn without building it.
    """
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in gnp_edges(n, p, int(rng.integers(0, 2**31 - 1))):
        adj[a].append(b)
        adj[b].append(a)
    components = []
    placed: Set[int] = set()
    for source in range(n):
        if source in placed:
            continue
        # The breadth-first set networkx builds: its iteration order is
        # the order of the member draws below.
        seen = {source}
        level = [source]
        while level:
            nxt = []
            for v in level:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            level = nxt
        placed |= seen
        components.append(list(seen))
    while len(components) > 1:
        a = components.pop()
        b = components[-1]
        u = a[int(rng.integers(0, len(a)))]
        v = b[int(rng.integers(0, len(b)))]
        adj[u].append(v)
        adj[v].append(u)
        components[-1] = b + a
    return [(u, v) for u in range(n) for v in adj[u] if v > u]


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
    nodes = [(u, {"level": "transit", "region": u}) for u in range(n_transit)]
    edges = _connected_gnp_edges(n_transit, p_core, rng)

    # Stub domains, each drawn as its edges, then its home transit node and
    # its gateway. Nodes and edges go into the graph in one pass each, in
    # the order that adding them domain by domain would take.
    next_id = n_transit
    while next_id < n_nodes:
        size = min(stub_domain_size, n_nodes - next_id)
        members = range(next_id, next_id + size)
        next_id += size
        if size > 1:  # a singleton stub has only the uplink below
            edges.extend(
                (members[a], members[b])
                for a, b in _connected_gnp_edges(size, 0.6, rng)
            )
        home = int(rng.integers(0, n_transit))
        gateway = members[int(rng.integers(0, size))]
        edges.append((home, gateway))
        nodes.extend((u, {"level": "stub", "region": home}) for u in members)
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)

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


def scale_free_graph(
    n_nodes: int,
    rng: RandomSource = None,
    attachments: int = 2,
) -> nx.Graph:
    """A Barabási–Albert preferential-attachment graph.

    Not a GT-ITM model, but a common ISP-like alternative (heavy-tailed
    degrees); exposed for robustness studies of the algorithms across
    topology families. Nodes are labelled ``stub`` except the ``m`` highest
    degree hubs, which are ``transit`` (so data centers land on hubs).
    """
    check_int_at_least(n_nodes, 3, "n_nodes")
    check_int_at_least(attachments, 1, "attachments")
    if attachments >= n_nodes:
        raise TopologyError("attachments must be smaller than n_nodes")
    rng = as_rng(rng)
    g = nx.barabasi_albert_graph(
        n_nodes, attachments, seed=int(rng.integers(0, 2**31 - 1))
    )
    hubs = sorted(g.degree, key=lambda t: -t[1])[: max(2, n_nodes // 10)]
    hub_set = {u for u, _ in hubs}
    for u in g.nodes:
        g.nodes[u]["level"] = "transit" if u in hub_set else "stub"
    return g


def waxman_graph(
    n_nodes: int,
    rng: RandomSource = None,
    alpha: float = 0.4,
    beta: float = 0.2,
) -> nx.Graph:
    """GT-ITM's flat random (Waxman) model, patched into connectivity.

    Nodes are placed uniformly in the unit square and joined with
    probability ``alpha * exp(-d / (beta * L))`` where ``d`` is Euclidean
    distance and ``L`` the max distance.
    """
    check_int_at_least(n_nodes, 2, "n_nodes")
    rng = as_rng(rng)
    g = nx.waxman_graph(
        n_nodes, alpha=alpha, beta=beta, seed=int(rng.integers(0, 2**31 - 1))
    )
    components = [list(c) for c in nx.connected_components(g)]
    while len(components) > 1:
        a = components.pop()
        b = components[-1]
        g.add_edge(a[0], b[0])
        components[-1] = b + a
    for u in g.nodes:
        g.nodes[u]["level"] = "stub"
    return g


def _pick_cloudlet_nodes(
    g: nx.Graph, count: int, rng: np.random.Generator
) -> List[int]:
    """Choose nodes for cloudlets, preferring stub (edge) nodes.

    The paper deploys cloudlets "randomly distributed in the network edge";
    in a transit-stub graph the edge is the stub level.
    """
    stubs = [u for u, d in g.nodes(data=True) if d.get("level") == "stub"]
    pool = stubs if len(stubs) >= count else list(g.nodes)
    idx = rng.choice(len(pool), size=count, replace=False)
    return sorted(pool[i] for i in idx)


def _pick_dc_nodes(
    g: nx.Graph, count: int, taken: Sequence[int], rng: np.random.Generator
) -> List[int]:
    """Choose nodes for data centers, preferring transit (core) nodes."""
    taken_set = set(taken)
    transit = [
        u for u, d in g.nodes(data=True)
        if d.get("level") == "transit" and u not in taken_set
    ]
    pool = transit if len(transit) >= count else [
        u for u in g.nodes if u not in taken_set
    ]
    if len(pool) < count:
        raise TopologyError(
            f"cannot place {count} data centers: only {len(pool)} free nodes"
        )
    idx = rng.choice(len(pool), size=count, replace=False)
    return sorted(pool[i] for i in idx)


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

    low, high = link_delay_ms
    if high < low:
        raise ValueError(f"empty interval [{low}, {high}]")

    net = MECNetwork(name=name)
    for u in sorted(g.nodes):
        net.add_switch(u)
        # Carry the generator's topology-role attributes onto the dressed
        # network so region/level survive into every downstream consumer
        # (the sharded market partitions by them).
        for key in ("level", "region"):
            if key in g.nodes[u]:
                net.graph.nodes[u][key] = g.nodes[u][key]
    # One draw of all link delays is bit-equal to one draw per link and
    # leaves the generator in the same state.
    edges = list(g.edges)
    delays = rng.uniform(low, high, size=len(edges)).tolist()
    for (u, v), delay in zip(edges, delays):
        net.add_link(u, v, bandwidth=link_bandwidth_mbps, delay_ms=delay)

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


def random_mec_network(
    n_nodes: int,
    rng: RandomSource = None,
    model: str = "transit_stub",
    **kwargs,
) -> MECNetwork:
    """One-call generator: GT-ITM-style graph + Section IV.A dressing.

    ``model`` is ``"transit_stub"`` (default, GT-ITM's main model),
    ``"waxman"`` or ``"scale_free"``. Remaining keyword arguments pass
    through to :func:`mec_network_from_graph`.
    """
    rng = as_rng(rng)
    if model == "transit_stub":
        g = transit_stub_graph(n_nodes, rng)
    elif model == "waxman":
        g = waxman_graph(n_nodes, rng)
    elif model == "scale_free":
        g = scale_free_graph(n_nodes, rng)
    else:
        raise TopologyError(f"unknown topology model {model!r}")
    return mec_network_from_graph(g, rng, name=f"{model}-{n_nodes}", **kwargs)


def _spread_regions(g: nx.Graph, assigned: dict) -> dict:
    """Complete a partial node -> region assignment by layered BFS.

    Seeds are the already-assigned nodes (or, when none carry a ``region``
    attribute, the transit nodes as their own regions; or the minimum node
    id as a single region). Each BFS layer assigns every still-unassigned
    node the *minimum* region among its assigned neighbours — a pure
    function of the graph, so the partition is stable across runs.
    """
    regions = dict(assigned)
    if not regions:
        transit = [u for u, d in g.nodes(data=True) if d.get("level") == "transit"]
        seeds = transit if transit else [min(g.nodes)]
        for u in seeds:
            regions[u] = u
    frontier = sorted(u for u in g.nodes if u not in regions)
    while frontier:
        layer = {}
        for u in frontier:
            neighbour_regions = [
                regions[v] for v in g.neighbors(u) if v in regions
            ]
            if neighbour_regions:
                layer[u] = min(neighbour_regions)
        if not layer:
            # Disconnected remainder (cannot happen for the generators
            # here, which all patch into connectivity): own regions.
            for u in frontier:
                regions[u] = u
            break
        regions.update(layer)
        frontier = [u for u in frontier if u not in regions]
    return regions


def region_map(network) -> dict:
    """``node -> region id`` for every node of a network or graph.

    Accepts an :class:`~repro.network.topology.MECNetwork` or a bare
    :class:`networkx.Graph`. Nodes generated by :func:`transit_stub_graph`
    carry an explicit ``region`` attribute (the transit node their stub
    domain is homed to); any nodes without one are filled in by
    :func:`_spread_regions` — deterministically, from the transit level
    when present, else as one flat region. The result is the partition key
    of the region-sharded market (:mod:`repro.market.shard`).
    """
    g = network if isinstance(network, nx.Graph) else network.graph
    assigned = {
        u: d["region"] for u, d in g.nodes(data=True) if "region" in d
    }
    if len(assigned) < g.number_of_nodes():
        assigned = _spread_regions(g, assigned)
    return assigned


def region_of(network, node: int) -> int:
    """The region id of one node (see :func:`region_map`)."""
    regions = region_map(network)
    try:
        return regions[node]
    except KeyError:
        raise TopologyError(f"node {node} is not part of the network") from None


__all__ = [
    "VM_COMPUTE_UNIT",
    "transit_stub_graph",
    "waxman_graph",
    "scale_free_graph",
    "mec_network_from_graph",
    "random_mec_network",
    "region_map",
    "region_of",
]
