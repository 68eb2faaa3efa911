"""Multi-replica service caching (extension).

Section II.E defines the strategy space as ``sigma_l in 2^|CL| \\ {0}`` —
*sets* of cloudlets — although the paper's algorithms only ever pick
singletons. This module takes the set-valued reading seriously: a provider
may cache several replicas of its service, each user cluster offloads to
its *nearest* replica, and every replica pays instantiation, consistency
updates and its cloudlet's congestion share.

The placement algorithm is a greedy marginal-gain heuristic: start from the
single-replica LCF solution and repeatedly add the (provider, cloudlet)
replica with the largest social-cost reduction while capacity admits it.
Adding replicas trades extra instantiation + update traffic against shorter
access paths, so it only pays for providers with a dispersed user base —
the quantity `examples/multi_replica.py` sweeps.

It is the one module outside ``market/`` that prices through the
:class:`~repro.market.costs.CostModel`: a replica set's access cost routes each
user cluster to its nearest replica, which no (provider, cloudlet) table holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.core.assignment import Stopwatch
from repro.core.lcf import lcf
from repro.exceptions import CapacityError, ConfigurationError
from repro.market.market import ServiceMarket
from repro.market.service import ServiceProvider
from repro.utils.validation import CAPACITY_EPS

#: A multi-replica placement: provider id -> frozenset of cloudlet nodes.
ReplicaPlacement = Dict[int, FrozenSet[int]]


@dataclass
class MultiCacheAssignment:
    """Outcome of a multi-replica caching algorithm."""

    market: ServiceMarket
    placement: ReplicaPlacement
    rejected: FrozenSet[int] = frozenset()
    algorithm: str = ""
    runtime_s: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        provider_ids = {p.provider_id for p in self.market.providers}
        covered = set(self.placement) | set(self.rejected)
        if covered != provider_ids:
            raise ConfigurationError("placement+rejected must cover all providers")
        for pid, replicas in self.placement.items():
            if not replicas:
                raise ConfigurationError(f"provider {pid} has an empty replica set")
            for node in replicas:
                if not self.market.network.has_cloudlet(node):
                    raise ConfigurationError(f"no cloudlet at node {node}")

    @property
    def social_cost(self) -> float:
        return evaluate_social_cost(self.market, self.placement, self.rejected)

    @property
    def total_replicas(self) -> int:
        return sum(len(r) for r in self.placement.values())

    def replica_count(self, provider_id: int) -> int:
        return len(self.placement.get(provider_id, ()))


# --------------------------------------------------------------------- #
# Cost evaluation
# --------------------------------------------------------------------- #
def _replica_shares(
    market: ServiceMarket, provider: ServiceProvider, replicas: FrozenSet[int]
) -> Dict[int, float]:
    """Traffic share each replica serves: every user cluster routes to its
    nearest (hop-wise) replica; ties break towards the smaller node id."""
    shares: Dict[int, float] = {node: 0.0 for node in replicas}
    net = market.network
    for cluster_node, weight in provider.service.clusters:
        best = min(
            sorted(replicas),
            key=lambda node: (net.hop_count(cluster_node, node), node),
        )
        shares[best] += weight
    return shares


def _occupancy(placement: Mapping[int, FrozenSet[int]]) -> Dict[int, int]:
    """Cloudlet occupancy |sigma_i| counting each replica as one instance."""
    counts: Dict[int, int] = {}
    for replicas in placement.values():
        for node in replicas:
            counts[node] = counts.get(node, 0) + 1
    return counts


def provider_multi_cost(
    market: ServiceMarket,
    provider: ServiceProvider,
    replicas: FrozenSet[int],
    occupancy: Mapping[int, int],
) -> float:
    """The provider's cost with a replica set, at the given occupancies.

    Per replica: instantiation + the update/synchronisation traffic back to
    the original instance + the congestion share of its cloudlet. Access:
    each user cluster ships its traffic share to its nearest replica.
    Processing is charged once (the work happens wherever the requests go).
    """
    if not replicas:
        raise ConfigurationError("replica set must be non-empty")
    model = market.cost_model
    net = market.network
    svc = provider.service

    total = model.instantiation_cost(provider)  # VM+processing of the traffic
    # Extra VMs: each additional replica pays the instantiation base again.
    total += (len(replicas) - 1) * svc.instantiation_cost
    shares = _replica_shares(market, provider, replicas)
    for node in replicas:
        cloudlet = net.cloudlet_at(node)
        total += model.update_cost(provider, cloudlet)
        total += model.congestion_cost(cloudlet, occupancy[node])
    for cluster_node, weight in svc.clusters:
        nearest = min(
            sorted(replicas),
            key=lambda node: (net.hop_count(cluster_node, node), node),
        )
        hops = net.hop_count(cluster_node, nearest)
        total += model.pricing.transmission_cost(svc.request_traffic_gb * weight, hops)
    return total


def evaluate_social_cost(
    market: ServiceMarket,
    placement: Mapping[int, FrozenSet[int]],
    rejected: FrozenSet[int] = frozenset(),
) -> float:
    """Eq. (6) generalised to replica sets, plus remote costs."""
    occupancy = _occupancy(placement)
    total = 0.0
    for pid, replicas in placement.items():
        total += provider_multi_cost(
            market, market.provider(pid), replicas, occupancy
        )
    for pid in rejected:
        total += market.cost_model.remote_cost(market.provider(pid))
    return total


# --------------------------------------------------------------------- #
# Capacity accounting (replicas consume their served traffic share)
# --------------------------------------------------------------------- #
def _loads(
    market: ServiceMarket, placement: Mapping[int, FrozenSet[int]]
) -> Dict[int, List[float]]:
    loads: Dict[int, List[float]] = {
        cl.node_id: [0.0, 0.0] for cl in market.network.cloudlets
    }
    for pid, replicas in placement.items():
        provider = market.provider(pid)
        shares = _replica_shares(market, provider, replicas)
        for node, share in shares.items():
            loads[node][0] += provider.compute_demand * share
            loads[node][1] += provider.bandwidth_demand * share
    return loads


def check_multi_capacities(
    market: ServiceMarket, placement: Mapping[int, FrozenSet[int]]
) -> None:
    """Raise :class:`CapacityError` when any cloudlet is overloaded."""
    for node, (cpu, bw) in _loads(market, placement).items():
        cl = market.network.cloudlet_at(node)
        if cpu > cl.compute_capacity + CAPACITY_EPS:
            raise CapacityError(f"{cl.name}: compute {cpu:.2f} > {cl.compute_capacity}")
        if bw > cl.bandwidth_capacity + CAPACITY_EPS:
            raise CapacityError(
                f"{cl.name}: bandwidth {bw:.2f} > {cl.bandwidth_capacity}"
            )


# --------------------------------------------------------------------- #
# The greedy marginal-gain algorithm
# --------------------------------------------------------------------- #
def greedy_multicache(
    market: ServiceMarket,
    xi: float = 0.7,
    max_replicas: int = 3,
    max_additions: Optional[int] = None,
    min_gain: float = 1e-6,
) -> MultiCacheAssignment:
    """Greedy replica addition on top of the single-replica LCF solution.

    Each step evaluates every feasible (provider, cloudlet) replica
    addition and applies the one with the largest social-cost reduction;
    stops when no addition helps by more than ``min_gain``, every provider
    holds ``max_replicas``, or ``max_additions`` steps were taken.
    """
    if max_replicas < 1:
        raise ConfigurationError(f"max_replicas must be >= 1, got {max_replicas}")

    with Stopwatch() as watch:
        base = lcf(market, xi=xi, allow_remote=True).assignment
        placement: ReplicaPlacement = {
            pid: frozenset({node}) for pid, node in base.placement.items()
        }
        rejected = frozenset(base.rejected)

        additions = 0
        budget = max_additions if max_additions is not None else 10**9
        current_cost = evaluate_social_cost(market, placement, rejected)
        while additions < budget:
            occupancy = _occupancy(placement)
            loads = _loads(market, placement)
            best_gain = min_gain
            best_move: Optional[Tuple[int, int]] = None
            for pid, replicas in placement.items():
                if len(replicas) >= max_replicas:
                    continue
                provider = market.provider(pid)
                if len(provider.service.clusters) <= len(replicas):
                    # no cluster left that could be served closer.
                    continue
                old_cost = provider_multi_cost(market, provider, replicas, occupancy)
                for cl in market.network.cloudlets:
                    node = cl.node_id
                    if node in replicas:
                        continue
                    # Conservative feasibility: the new replica may attract
                    # at most the provider's full demand.
                    if (
                        loads[node][0] + provider.compute_demand
                        > cl.compute_capacity + CAPACITY_EPS
                        or loads[node][1] + provider.bandwidth_demand
                        > cl.bandwidth_capacity + CAPACITY_EPS
                    ):
                        continue
                    new_replicas = replicas | {node}
                    occupancy[node] = occupancy.get(node, 0) + 1
                    new_cost = provider_multi_cost(
                        market, provider, new_replicas, occupancy
                    )
                    # Externality: the extra instance congests co-located
                    # providers too.
                    extern = sum(
                        market.cost_model.congestion_cost(cl, occupancy[node])
                        - market.cost_model.congestion_cost(cl, occupancy[node] - 1)
                        for _ in range(occupancy[node] - 1)
                    )
                    occupancy[node] -= 1
                    if occupancy[node] == 0:
                        del occupancy[node]
                    gain = old_cost - new_cost - extern
                    if gain > best_gain:
                        best_gain = gain
                        best_move = (pid, node)
            if best_move is None:
                break
            pid, node = best_move
            placement[pid] = placement[pid] | {node}
            current_cost -= best_gain
            additions += 1

    final_cost = evaluate_social_cost(market, placement, rejected)
    return MultiCacheAssignment(
        market=market,
        placement=placement,
        rejected=rejected,
        algorithm=f"GreedyMultiCache[max={max_replicas}]",
        runtime_s=watch.elapsed,
        info={
            "base_social_cost": base.social_cost,
            "additions": additions,
            "social_cost": final_cost,
        },
    )


__all__ = [
    "ReplicaPlacement",
    "MultiCacheAssignment",
    "provider_multi_cost",
    "evaluate_social_cost",
    "check_multi_capacities",
    "greedy_multicache",
]
