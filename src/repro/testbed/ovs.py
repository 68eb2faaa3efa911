"""The VXLAN/OVS overlay.

The testbed virtualises the AS1755 topology as Open vSwitch bridges
connected by VXLAN tunnels over the five-switch underlay. Each overlay node
becomes an :class:`OVSBridge` pinned to one physical server; each overlay
edge becomes a :class:`VXLANTunnel` whose underlay path is the switch-level
route between the two servers. Tunnels crossing the same underlay cable
share its capacity — that coupling is what distinguishes the testbed numbers
from the pure simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

import networkx as nx

from repro.exceptions import ConfigurationError, EmulationError, TopologyError
from repro.testbed.switch import HardwareSwitch
from repro.testbed.vm import Server, VMManager


@dataclass
class OVSBridge:
    """An Open vSwitch instance implementing one overlay node."""

    bridge_id: int  # equals the overlay (AS1755) node id
    server: Server
    datapath_id: str = ""

    def __post_init__(self) -> None:
        if not self.datapath_id:
            self.datapath_id = f"dpid-{self.bridge_id:016x}"


@dataclass(frozen=True)
class VXLANTunnel:
    """A VXLAN tunnel implementing one overlay edge."""

    u: int  # overlay endpoint bridges
    v: int
    vni: int  # VXLAN network identifier
    #: Underlay cables the tunnel traverses, as (switch, switch) pairs;
    #: empty when both bridges share a server.
    underlay_path: Tuple[Tuple[int, int], ...] = ()

    @property
    def endpoints(self) -> FrozenSet[int]:
        return frozenset((self.u, self.v))


class OverlayNetwork:
    """An overlay graph realised as OVS bridges + VXLAN tunnels.

    Parameters
    ----------
    graph:
        The overlay topology (AS1755 in the paper's testbed).
    switches:
        The physical underlay switches (already wired).
    servers:
        Physical servers; each hosts ``|V| / len(servers)`` bridges. Server
        ``i`` is assumed attached to switch ``i % len(switches)``.
    """

    def __init__(
        self,
        graph: nx.Graph,
        switches: Sequence[HardwareSwitch],
        servers: Sequence[Server],
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ConfigurationError("overlay graph is empty")
        if not switches or not servers:
            raise ConfigurationError("need at least one switch and one server")
        self.graph = graph
        self.switches = list(switches)
        self.servers = list(servers)

        self._switch_graph = nx.Graph()
        for sw in self.switches:
            self._switch_graph.add_node(sw.switch_id)
        for sw in self.switches:
            for port in range(sw.model.ports):
                peer = sw.peer_on(port)
                if peer is not None:
                    self._switch_graph.add_edge(sw.switch_id, peer)
        if not nx.is_connected(self._switch_graph):
            raise TopologyError("underlay switch graph is not connected")

        # Pin bridges to servers round-robin (the paper balances OVS nodes
        # across its five servers).
        self.bridges: Dict[int, OVSBridge] = {}
        for k, node in enumerate(sorted(graph.nodes)):
            server = self.servers[k % len(self.servers)]
            self.bridges[node] = OVSBridge(bridge_id=node, server=server)

        self._switch_by_id = {sw.switch_id: sw for sw in self.switches}
        # Populate switch forwarding tables along shortest paths, then pin
        # every tunnel onto the route those tables forward it on.
        self._install_underlay_routes()
        self.tunnels: Dict[FrozenSet[int], VXLANTunnel] = {}
        for vni, (u, v) in enumerate(sorted(graph.edges), start=1):
            self.tunnels[frozenset((u, v))] = VXLANTunnel(
                u=u, v=v, vni=vni, underlay_path=self._underlay_route(u, v)
            )

        #: Memoised :meth:`overlay_path` per ``(src, dst)``. The overlay
        #: graph and its tunnel set are fixed at construction; a cable cut
        #: re-pins tunnels onto the underlay only.
        self._paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: Memoised :meth:`transfer_resources` per ``(src, dst)``; they read
        #: the live tunnels, so :meth:`fail_cable` clears them.
        self._resources: Dict[Tuple[int, int], Tuple[Hashable, ...]] = {}

    def _attached_switch(self, server: Server) -> int:
        return self.switches[server.server_id % len(self.switches)].switch_id

    def _underlay_route(self, u: int, v: int) -> Tuple[Tuple[int, int], ...]:
        """Cables of tunnel ``u -> v``: the walk the switches' forwarding
        tables take from ``u``'s server switch to ``v``'s (empty when both
        bridges attach to one switch)."""
        here = self._attached_switch(self.bridges[u].server)
        there = self._attached_switch(self.bridges[v].server)
        cables: List[Tuple[int, int]] = []
        while here != there:  # each hop is one BFS step closer to ``there``
            hop = self._switch_by_id[here].next_hop(there)
            cables.append((here, hop))
            here = hop
        return tuple(cables)

    def _install_underlay_routes(self) -> None:
        for src in self._switch_graph.nodes:
            paths = nx.single_source_shortest_path(self._switch_graph, src)
            sw = self._switch_by_id[src]
            for dst, nodes in paths.items():
                if dst == src or len(nodes) < 2:
                    continue
                next_hop = nodes[1]
                # Find a port towards next_hop.
                for port in range(sw.model.ports):
                    if sw.peer_on(port) == next_hop:
                        sw.install_route(dst, port)
                        break
                else:
                    raise EmulationError(
                        f"{sw.name}: no cable towards {next_hop}"
                    )

    # ------------------------------------------------------------------ #
    # Fault handling
    # ------------------------------------------------------------------ #
    def fail_cable(self, a: int, b: int) -> List[VXLANTunnel]:
        """Cut the physical cable between switches ``a`` and ``b``.

        The testbed is wired so that "network data can still be transmitted
        if one switch is down": the underlay must stay connected, otherwise
        the failure is rejected. Switch forwarding tables are recomputed
        and every VXLAN tunnel that crossed the cable is re-pinned onto the
        route the new tables forward it on. Returns the re-pinned tunnels.
        """
        if not self._switch_graph.has_edge(a, b):
            raise TopologyError(f"no cable between switches {a} and {b}")
        self._switch_graph.remove_edge(a, b)
        if not nx.is_connected(self._switch_graph):
            self._switch_graph.add_edge(a, b)
            raise EmulationError(
                f"cutting cable {a}-{b} would partition the underlay"
            )
        # Physically unplug both ends.
        for near, far in ((a, b), (b, a)):
            sw = self._switch_by_id[near]
            for port in range(sw.model.ports):
                if sw.peer_on(port) == far:
                    sw.disconnect(port)
                    break
        self._install_underlay_routes()
        self._resources.clear()

        cable = frozenset((a, b))
        repinned: List[VXLANTunnel] = []
        for key, tunnel in list(self.tunnels.items()):
            if cable not in {frozenset(c) for c in tunnel.underlay_path}:
                continue
            new_tunnel = VXLANTunnel(
                u=tunnel.u, v=tunnel.v, vni=tunnel.vni,
                underlay_path=self._underlay_route(tunnel.u, tunnel.v),
            )
            self.tunnels[key] = new_tunnel
            repinned.append(new_tunnel)
        return repinned

    # ------------------------------------------------------------------ #
    # Queries used by the flow simulator
    # ------------------------------------------------------------------ #
    def tunnel(self, u: int, v: int) -> VXLANTunnel:
        try:
            return self.tunnels[frozenset((u, v))]
        except KeyError:
            raise TopologyError(f"no tunnel between overlay nodes {u} and {v}") from None

    def overlay_path(self, src: int, dst: int) -> List[int]:
        """Overlay node sequence between two overlay nodes (one BFS per
        ``(src, dst)`` pair; later calls return a copy of the first path)."""
        path = self._paths.get((src, dst))
        if path is None:
            try:
                path = tuple(nx.shortest_path(self.graph, src, dst))
            except nx.NetworkXNoPath:
                raise TopologyError(f"no overlay path {src} -> {dst}") from None
            self._paths[(src, dst)] = path
        return list(path)

    def transfer_resources(self, src: int, dst: int) -> Tuple[Hashable, ...]:
        """Resources a transfer ``src -> dst`` crosses, each once: the
        overlay links of :meth:`overlay_path` as ``("overlay",
        frozenset(hop))``, then the cables of each hop's live tunnel as
        ``("underlay", frozenset(cable))``. Memoised per ``(src, dst)``
        until the next :meth:`fail_cable`, so a transfer built after a cut
        crosses the re-pinned cables."""
        resources = self._resources.get((src, dst))
        if resources is None:
            path = self.overlay_path(src, dst)
            hops = list(zip(path, path[1:]))
            resources = tuple(dict.fromkeys([
                *(("overlay", frozenset(hop)) for hop in hops),
                *(("underlay", frozenset(cable)) for u, v in hops
                  for cable in self.tunnel(u, v).underlay_path),
            ]))
            self._resources[(src, dst)] = resources
        return resources

    def __repr__(self) -> str:
        return (
            f"OverlayNetwork(bridges={len(self.bridges)}, "
            f"tunnels={len(self.tunnels)}, servers={len(self.servers)})"
        )


__all__ = ["OVSBridge", "VXLANTunnel", "OverlayNetwork"]
