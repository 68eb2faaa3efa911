"""Network element types: cloudlets, data centers, switches and links.

A *cloudlet* is an edge server cluster reachable within a few hops of users;
it exposes finite computing capacity ``C(CL_i)`` (VM slots aggregated into an
abstract compute unit) and finite bandwidth capacity ``B(CL_i)``. A *data
center* hosts the original service instances; per Section II.A its capacity
is not a constraint. Plain *switch nodes* only forward traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_non_negative, check_positive


class NodeKind(enum.Enum):
    """Role of a node in the two-tiered MEC graph."""

    SWITCH = "switch"
    CLOUDLET = "cloudlet"
    DATA_CENTER = "data_center"


@dataclass(frozen=True)
class SwitchNode:
    """A pure forwarding node (GT-ITM switch or testbed hardware switch)."""

    node_id: int
    name: str = ""

    @property
    def kind(self) -> NodeKind:
        return NodeKind.SWITCH


@dataclass
class Cloudlet:
    """An edge cloudlet with finite computing and bandwidth capacities.

    Parameters
    ----------
    node_id:
        Identifier of the graph node the cloudlet is attached to.
    compute_capacity:
        ``C(CL_i)`` — aggregate computing capacity (abstract units; the
        workload generator expresses VM counts in the same unit).
    bandwidth_capacity:
        ``B(CL_i)`` — aggregate ingress/egress bandwidth (Mbps).
    alpha:
        Congestion coefficient of the computing resource, Eq. (1).
    beta:
        Congestion coefficient of the bandwidth resource, Eq. (2).
    bdw_unit_cost:
        The fixed per-provider bandwidth consumption cost ``c_i^bdw``
        *per GB of update traffic*; the cost model multiplies it by the
        provider's update volume and path factor.
    """

    node_id: int
    compute_capacity: float
    bandwidth_capacity: float
    alpha: float = 0.5
    beta: float = 0.5
    bdw_unit_cost: float = 0.08
    name: str = ""

    def __post_init__(self) -> None:
        check_positive(self.compute_capacity, "compute_capacity")
        check_positive(self.bandwidth_capacity, "bandwidth_capacity")
        check_non_negative(self.alpha, "alpha")
        check_non_negative(self.beta, "beta")
        check_non_negative(self.bdw_unit_cost, "bdw_unit_cost")
        if not self.name:
            self.name = f"CL{self.node_id}"

    @property
    def kind(self) -> NodeKind:
        return NodeKind.CLOUDLET


@dataclass
class DataCenter:
    """A remote data center. Capacity is unconstrained (Section II.A)."""

    node_id: int
    name: str = ""
    #: Per-GB processing price charged when serving from the remote cloud.
    processing_unit_cost: float = 0.18

    def __post_init__(self) -> None:
        check_non_negative(self.processing_unit_cost, "processing_unit_cost")
        if not self.name:
            self.name = f"DC{self.node_id}"

    @property
    def kind(self) -> NodeKind:
        return NodeKind.DATA_CENTER


@dataclass(frozen=True)
class Link:
    """An undirected network link with a bandwidth capacity and delay."""

    u: int
    v: int
    bandwidth: float = 1000.0  # Mbps
    delay_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ConfigurationError(f"self-loop link at node {self.u}")
        check_positive(self.bandwidth, "bandwidth")
        check_non_negative(self.delay_ms, "delay_ms")

    @property
    def endpoints(self) -> tuple:
        return (self.u, self.v)

    def other(self, node: int) -> int:
        """The endpoint opposite ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ConfigurationError(f"node {node} is not an endpoint of {self}")


__all__ = ["NodeKind", "SwitchNode", "Cloudlet", "DataCenter", "Link"]
