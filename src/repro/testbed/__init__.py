"""A flow-level testbed emulator (the hardware-testbed substitute).

The paper's Section IV.C testbed is five hardware switches (Huawei, H3C,
Ruijie, Cisco, Centec), five i7 servers, and a VXLAN/OVS overlay following
AS1755, orchestrated by a Ryu SDN controller. None of that hardware is
available here, so this package provides a behaviourally equivalent
emulator:

* :mod:`~repro.testbed.switch` — the five switch models with port counts
  and switching latencies;
* :mod:`~repro.testbed.vm` — servers and VM provisioning;
* :mod:`~repro.testbed.ovs` — OVS bridges and VXLAN tunnels pinning the
  overlay onto the underlay;
* :mod:`~repro.testbed.flows` — flow-level transfers with max-min fair
  bandwidth sharing, stepped from event time to event time;
* :mod:`~repro.testbed.controller` — a Ryu-like controller hosting the
  caching algorithms as applications;
* :mod:`~repro.testbed.emulator` — the :class:`Testbed` facade used by the
  Fig. 5–7 experiments.

The testbed figures measure social cost and algorithm running time over the
AS1755 overlay; both are functions of topology, capacities and algorithm
behaviour, which the emulator reproduces (see DESIGN.md, substitutions).
"""

from repro.testbed.switch import HardwareSwitch, SWITCH_CATALOG
from repro.testbed.vm import Server, VirtualMachine, VMManager
from repro.testbed.ovs import OVSBridge, VXLANTunnel, OverlayNetwork
from repro.testbed.flows import Flow, FlowSimulator
from repro.testbed.controller import CachingApp, RyuController
from repro.testbed.emulator import Testbed, TestbedRun

__all__ = [
    "HardwareSwitch",
    "SWITCH_CATALOG",
    "Server",
    "VirtualMachine",
    "VMManager",
    "OVSBridge",
    "VXLANTunnel",
    "OverlayNetwork",
    "Flow",
    "FlowSimulator",
    "CachingApp",
    "RyuController",
    "Testbed",
    "TestbedRun",
]
