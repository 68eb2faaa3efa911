"""The two-tiered MEC network container.

:class:`MECNetwork` wraps a :class:`networkx.Graph` whose nodes carry element
objects (:class:`Cloudlet`, :class:`DataCenter`, :class:`SwitchNode`) and
whose edges carry :class:`Link` attributes. It exposes the distance/routing
queries the cost model needs; capacity loads live in the compiled market's
arrays, never on the network objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import networkx as nx

from repro.exceptions import ConfigurationError, TopologyError
from repro.network.elements import Cloudlet, DataCenter, Link, NodeKind, SwitchNode
from repro.network.routing import RoutingTable


class MECNetwork:
    """A two-tiered mobile edge-cloud network ``G = (CL ∪ DC, E)``.

    Nodes are integers; each node is a switch by default and may additionally
    host a cloudlet or a data center (mirroring the paper's deployment of
    cloudlets "at switch nodes" of GT-ITM graphs).
    """

    def __init__(self, name: str = "mec") -> None:
        self.name = name
        self.graph = nx.Graph()
        self._cloudlets: Dict[int, Cloudlet] = {}
        self._data_centers: Dict[int, DataCenter] = {}
        self._routing: Optional[RoutingTable] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_switch(self, node_id: int, name: str = "") -> SwitchNode:
        """Add a pure forwarding node."""
        if node_id in self.graph:
            raise ConfigurationError(f"node {node_id} already exists")
        sw = SwitchNode(node_id=node_id, name=name or f"SW{node_id}")
        self.graph.add_node(node_id, element=sw, kind=NodeKind.SWITCH)
        self._routing = None
        return sw

    def add_link(self, u: int, v: int, bandwidth: float = 1000.0, delay_ms: float = 1.0) -> Link:
        """Connect two existing nodes with an undirected link."""
        for n in (u, v):
            if n not in self.graph:
                raise ConfigurationError(f"cannot link unknown node {n}")
        link = Link(u=u, v=v, bandwidth=bandwidth, delay_ms=delay_ms)
        self.graph.add_edge(u, v, link=link, weight=delay_ms)
        self._routing = None
        return link

    def attach_cloudlet(self, cloudlet: Cloudlet) -> Cloudlet:
        """Attach a cloudlet to an existing switch node."""
        if cloudlet.node_id not in self.graph:
            raise ConfigurationError(f"no node {cloudlet.node_id} to attach cloudlet to")
        if cloudlet.node_id in self._cloudlets:
            raise ConfigurationError(f"node {cloudlet.node_id} already hosts a cloudlet")
        if cloudlet.node_id in self._data_centers:
            raise ConfigurationError(
                f"node {cloudlet.node_id} hosts a data center; cannot also host a cloudlet"
            )
        self._cloudlets[cloudlet.node_id] = cloudlet
        self.graph.nodes[cloudlet.node_id]["kind"] = NodeKind.CLOUDLET
        return cloudlet

    def attach_data_center(self, dc: DataCenter) -> DataCenter:
        """Attach a remote data center to an existing switch node."""
        if dc.node_id not in self.graph:
            raise ConfigurationError(f"no node {dc.node_id} to attach data center to")
        if dc.node_id in self._data_centers:
            raise ConfigurationError(f"node {dc.node_id} already hosts a data center")
        if dc.node_id in self._cloudlets:
            raise ConfigurationError(
                f"node {dc.node_id} hosts a cloudlet; cannot also host a data center"
            )
        self._data_centers[dc.node_id] = dc
        self.graph.nodes[dc.node_id]["kind"] = NodeKind.DATA_CENTER
        return dc

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def cloudlets(self) -> List[Cloudlet]:
        """All cloudlets, ordered by node id (deterministic iteration)."""
        return [self._cloudlets[k] for k in sorted(self._cloudlets)]

    @property
    def data_centers(self) -> List[DataCenter]:
        """All data centers, ordered by node id."""
        return [self._data_centers[k] for k in sorted(self._data_centers)]

    def cloudlet_at(self, node_id: int) -> Cloudlet:
        try:
            return self._cloudlets[node_id]
        except KeyError:
            raise TopologyError(f"no cloudlet at node {node_id}") from None

    def data_center_at(self, node_id: int) -> DataCenter:
        try:
            return self._data_centers[node_id]
        except KeyError:
            raise TopologyError(f"no data center at node {node_id}") from None

    def has_cloudlet(self, node_id: int) -> bool:
        return node_id in self._cloudlets

    def has_data_center(self, node_id: int) -> bool:
        return node_id in self._data_centers

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_links(self) -> int:
        return self.graph.number_of_edges()

    def links(self) -> Iterator[Link]:
        for _, _, data in self.graph.edges(data=True):
            yield data["link"]

    # ------------------------------------------------------------------ #
    # Routing / distances
    # ------------------------------------------------------------------ #
    @property
    def routing(self) -> RoutingTable:
        """The shortest-path routing table, built on first access and after
        any topology change; it solves each source's row on first touch."""
        if self._routing is None:
            self._routing = RoutingTable(self.graph)
        return self._routing

    def hop_count(self, u: int, v: int) -> int:
        """Hop count of the unweighted (fewest-links) shortest path ``u → v``."""
        return self.routing.hop_count(u, v)

    def path_delay(self, u: int, v: int) -> float:
        """End-to-end delay (ms) of the shortest path ``u → v``."""
        return self.routing.path_delay(u, v)

    def shortest_path(self, u: int, v: int) -> List[int]:
        return self.routing.shortest_path(u, v)

    def validate(self) -> None:
        """Sanity-check the network: connected, has cloudlets and DCs."""
        if self.num_nodes == 0:
            raise ConfigurationError("network is empty")
        if not nx.is_connected(self.graph):
            raise ConfigurationError("network graph is not connected")
        if not self._cloudlets:
            raise ConfigurationError("network has no cloudlets")
        if not self._data_centers:
            raise ConfigurationError("network has no data centers")

    def __repr__(self) -> str:
        return (
            f"MECNetwork(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links}, cloudlets={len(self._cloudlets)}, "
            f"data_centers={len(self._data_centers)})"
        )


__all__ = ["MECNetwork"]
