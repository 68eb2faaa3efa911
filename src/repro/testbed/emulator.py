"""The testbed facade: underlay + overlay + controller + traffic emulation.

:class:`Testbed` assembles the paper's Fig. 4 setup — the five hardware
switches, five servers, an AS1755 OVS/VXLAN overlay — and exposes
:meth:`Testbed.run_all` which, for each of a list of caching algorithms,
(1) runs it as a controller app, (2) installs its placement and provisions
its VMs, (3) emulates the resulting access and update traffic at flow
level, and (4) reports social cost, wall-clock runtime and transfer
metrics. Step (3) runs every algorithm's flow set in one event loop, each
set on its own clock (see :mod:`repro.testbed.flows`), so the metrics
equal those of one emulation per algorithm. :meth:`Testbed.run` is the
one-algorithm call. Each Fig. 5–7 cell is one ``run_all`` over this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.assignment import CachingAssignment
from repro.exceptions import ConfigurationError
from repro.market.market import ServiceMarket
from repro.network.topology import MECNetwork
from repro.network.zoo import as1755_mec_network
from repro.testbed.controller import CachingApp, RyuController
from repro.testbed.flows import FlowSimulator
from repro.testbed.ovs import OverlayNetwork
from repro.testbed.switch import HardwareSwitch, default_underlay
from repro.testbed.vm import Server, VMManager
from repro.utils.rng import RandomSource, as_rng

#: Capacity of one underlay cable (10GbE uplinks), Mbps.
UNDERLAY_CABLE_MBPS = 10_000.0


@dataclass
class TestbedRun:
    """Everything measured for one algorithm run on the testbed."""

    #: Not a pytest test class, despite the Test* name.
    __test__ = False

    algorithm: str
    assignment: CachingAssignment
    social_cost: float
    runtime_s: float
    flow_metrics: Dict[str, float]
    vm_utilization: Dict[str, float]
    #: Byte counters: GB carried per overlay link / underlay cable, keyed
    #: by the same resource ids the flow simulator uses.
    telemetry: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        return self.flow_metrics["makespan"]

    def hottest_links(
        self, top: int = 5, layer: str = "overlay"
    ) -> List[Tuple[Tuple[Hashable, ...], float]]:
        """The ``top`` busiest links of a layer as ``(endpoints, GB)``.

        ``layer`` is ``"overlay"`` (VXLAN tunnels) or ``"underlay"``
        (physical cables).
        """
        if layer not in ("overlay", "underlay"):
            raise ConfigurationError(f"unknown layer {layer!r}")
        rows = [
            (tuple(sorted(key[1])), volume)
            for key, volume in self.telemetry.items()
            if key[0] == layer
        ]
        rows.sort(key=lambda t: (-t[1], t[0]))
        return rows[:top]


class Testbed:
    """The emulated hardware testbed of Section IV.C.

    Parameters
    ----------
    network:
        The overlay dressed as a two-tiered MEC network; default builds the
        AS1755 overlay with the Section IV.A parameters.
    rng:
        Seeds the default network construction.
    """

    #: Not a pytest test class, despite the Test* name.
    __test__ = False

    def __init__(
        self,
        network: Optional[MECNetwork] = None,
        rng: RandomSource = None,
    ) -> None:
        self.network = network if network is not None else as1755_mec_network(as_rng(rng))
        self.switches: List[HardwareSwitch] = default_underlay()
        self.servers: List[Server] = [Server(server_id=i) for i in range(5)]
        self.vm_manager = VMManager(self.servers)
        self.overlay = OverlayNetwork(self.network.graph, self.switches, self.servers)
        self.controller = RyuController(self.overlay)

    def register_algorithm(self, name: str, app: CachingApp) -> None:
        """Expose a caching algorithm as a controller application."""
        self.controller.register_app(name, app)

    # ------------------------------------------------------------------ #
    # Traffic emulation
    # ------------------------------------------------------------------ #
    def _capacities(self) -> Dict[Hashable, float]:
        caps: Dict[Hashable, float] = {}
        for link in self.network.links():
            caps[("overlay", frozenset((link.u, link.v)))] = link.bandwidth
        cable_set = set()
        for tunnel in self.overlay.tunnels.values():
            for cable in tunnel.underlay_path:
                cable_set.add(frozenset(cable))
        for cable in cable_set:
            caps[("underlay", cable)] = UNDERLAY_CABLE_MBPS
        return caps

    def build_flow_simulator(
        self,
        assignment: CachingAssignment,
        capacities: Optional[Dict[Hashable, float]] = None,
    ) -> FlowSimulator:
        """The flow set one epoch of the assignment's traffic generates.

        Cached providers generate an access flow (users -> cache) and an
        update flow (cache -> home DC); rejected providers backhaul their
        request traffic to the remote cloud. ``capacities`` defaults to the
        testbed's current resource capacities.
        """
        simulator = FlowSimulator(
            capacities if capacities is not None else self._capacities()
        )
        market = assignment.market
        for pid, node in sorted(assignment.placement.items()):
            svc = market.provider(pid).service
            if svc.user_node != node and svc.request_traffic_gb > 0:
                simulator.add_flow(
                    svc.user_node, node, svc.request_traffic_gb,
                    self.overlay.transfer_resources(svc.user_node, node),
                )
            if node != svc.home_dc and svc.update_volume_gb > 0:
                simulator.add_flow(
                    node, svc.home_dc, svc.update_volume_gb,
                    self.overlay.transfer_resources(node, svc.home_dc),
                )
        for pid in sorted(assignment.rejected):
            svc = market.provider(pid).service
            if svc.user_node != svc.home_dc and svc.request_traffic_gb > 0:
                simulator.add_flow(
                    svc.user_node, svc.home_dc, svc.request_traffic_gb,
                    self.overlay.transfer_resources(svc.user_node, svc.home_dc),
                )
        return simulator

    def emulate_traffic(self, assignment: CachingAssignment) -> Dict[str, float]:
        """Run the flow emulation and return the summary metrics only."""
        return self.build_flow_simulator(assignment).run()

    # ------------------------------------------------------------------ #
    # Full runs
    # ------------------------------------------------------------------ #
    def run(self, algorithm: str, market: ServiceMarket) -> TestbedRun:
        """Run a registered algorithm on a market over this testbed."""
        return self.run_all([algorithm], market)[algorithm]

    def run_all(
        self, algorithms: Sequence[str], market: ServiceMarket
    ) -> Dict[str, TestbedRun]:
        """Run registered algorithms on a market, in order, and emulate
        their epoch traffic side by side.

        Each algorithm in turn gets a fresh server pool, runs as a
        controller app (timed as :meth:`RyuController.run_app` times it),
        has one VM provisioned per cached instance (capacity effects on
        the servers are reported, not enforced — the paper's servers are
        sized to fit the experiment) and builds its flow set. The flow sets
        then run in one :meth:`FlowSimulator.run` event loop, each on its
        own clock, so every algorithm's flow metrics and telemetry equal a
        run of its set alone. The testbed is left as after the last
        algorithm: its VMs and its installed paths.
        """
        if market.network is not self.network:
            raise ConfigurationError(
                "market was generated over a different network than the testbed overlay"
            )
        if len(set(algorithms)) != len(algorithms):
            raise ConfigurationError(f"algorithms repeat a name: {list(algorithms)}")
        capacities = self._capacities()
        staged: List[
            Tuple[str, CachingAssignment, float, Dict[str, float], FlowSimulator]
        ] = []
        for algorithm in algorithms:
            self.vm_manager.destroy_all()
            assignment = self.controller.run_app(algorithm, market)
            for pid in sorted(assignment.placement):
                self.vm_manager.provision(
                    cores=0.25, memory_gb=0.25, label=f"svc{pid}"
                )
            staged.append((
                algorithm,
                assignment,
                self.controller.app_runtimes[algorithm],
                self.vm_manager.utilization(),
                self.build_flow_simulator(assignment, capacities),
            ))
        if staged:
            first, *others = [simulator for *_, simulator in staged]
            first.run(*others)
        return {
            algorithm: TestbedRun(
                algorithm=algorithm,
                assignment=assignment,
                social_cost=assignment.social_cost,
                runtime_s=runtime_s,
                flow_metrics=simulator.metrics(),
                vm_utilization=utilization,
                telemetry=simulator.resource_volumes(),
            )
            for algorithm, assignment, runtime_s, utilization, simulator in staged
        }


__all__ = ["UNDERLAY_CABLE_MBPS", "Testbed", "TestbedRun"]
