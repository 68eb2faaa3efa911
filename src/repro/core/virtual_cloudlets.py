"""Virtual-cloudlet splitting and the GAP reduction (Section III.B).

Each cloudlet ``CL_i`` is split into

``n_i = min( floor(C(CL_i)/a_max), floor(B(CL_i)/b_max) )``            (Eq. 7)

virtual cloudlets, "each virtual cloudlet being restricted to be able to
only cache a single service instance" (Section III.B). Each virtual cloudlet
is one GAP knapsack of capacity ``max(a_max, b_max)``; to enforce the
one-instance restriction, every item's weight equals the slot capacity, so
the knapsack admits exactly one service. The assignment cost ignores
congestion (Eq. 9): ``alpha_i + beta_i + c_l^ins + c_i^bdw``.

Feasibility (Lemma 1) is then structural: a cloudlet receives at most
``n_i`` services, each demanding at most ``a_max`` compute and ``b_max``
bandwidth, and ``n_i * a_max <= C(CL_i)``, ``n_i * b_max <= B(CL_i)`` by
Eq. (7).

When the market holds more providers than there are virtual cloudlets — the
regime of the Fig. 7 sweeps, where growing ``a_max`` shrinks every ``n_i``
— a plain reduction is infeasible. We optionally extend the instance with a
*remote bin* of unbounded multiplicity whose cost is the provider's
remote-serving cost: services assigned there are "not cached" (the title's
other option) and count as rejected.

``delta = C(CL_i)/a_max`` and ``kappa = B(CL_i)/b_max`` (cloudlet-maximal,
per Lemma 2) and ``n'_max`` (Eq. 8) are exposed for the bound computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.instance import GAPInstance
from repro.market.market import ServiceMarket


@dataclass(frozen=True)
class VirtualCloudlet:
    """One knapsack of the reduction: slot ``k`` of real cloudlet ``CL_i``."""

    index: int  # global index (GAP bin id)
    cloudlet_node: int  # real cloudlet it belongs to
    slot: int  # 0 <= slot < n_i
    capacity: float


class VirtualCloudletSplit:
    """The Eq. (7)–(9) reduction of a market to a GAP instance.

    ``allow_remote`` appends a remote bin (one pseudo-slot per provider, so
    capacity never binds) priced at each provider's remote-serving cost;
    :meth:`merge_assignment` reports services landing there as rejected.
    """

    #: Bin index sentinel returned for remote assignments.
    REMOTE = -1

    #: Supported slot pricing modes (see ``slot_pricing``).
    PRICINGS = ("marginal", "flat")

    def __init__(
        self,
        market: ServiceMarket,
        allow_remote: bool = False,
        slot_pricing: str = "marginal",
    ) -> None:
        if slot_pricing not in self.PRICINGS:
            raise ConfigurationError(
                f"slot_pricing must be one of {self.PRICINGS}, got {slot_pricing!r}"
            )
        self.market = market
        self.allow_remote = allow_remote
        self.slot_pricing = slot_pricing
        self.a_max = market.max_compute_demand()
        self.b_max = market.max_bandwidth_demand()
        self.a_min = market.min_compute_demand()
        self.b_min = market.min_bandwidth_demand()
        if self.a_max <= 0 or self.b_max <= 0:
            raise ConfigurationError("demands must be positive")

        self.slot_capacity = max(self.a_max, self.b_max)
        self.virtual_cloudlets: List[VirtualCloudlet] = []
        self.n_i: Dict[int, int] = {}
        index = 0
        for cl in market.network.cloudlets:
            n_i = min(
                math.floor(cl.compute_capacity / self.a_max),
                math.floor(cl.bandwidth_capacity / self.b_max),
            )
            self.n_i[cl.node_id] = n_i
            for slot in range(n_i):
                self.virtual_cloudlets.append(
                    VirtualCloudlet(
                        index=index,
                        cloudlet_node=cl.node_id,
                        slot=slot,
                        capacity=self.slot_capacity,
                    )
                )
                index += 1
        if not self.virtual_cloudlets and not allow_remote:
            raise InfeasibleError(
                "every cloudlet splits into zero virtual cloudlets: the largest "
                "service demand exceeds (a capacity fraction of) every cloudlet; "
                "Lemma 1 assumes capacities far exceed maximum demands"
            )

    # ------------------------------------------------------------------ #
    # Bound ingredients
    # ------------------------------------------------------------------ #
    @property
    def delta(self) -> float:
        """``delta = max_i C(CL_i) / a_max`` (Lemma 2)."""
        return max(
            cl.compute_capacity / self.a_max for cl in self.market.network.cloudlets
        )

    @property
    def kappa(self) -> float:
        """``kappa = max_i B(CL_i) / b_max`` (Lemma 2)."""
        return max(
            cl.bandwidth_capacity / self.b_max for cl in self.market.network.cloudlets
        )

    @property
    def n_prime_max(self) -> float:
        """Eq. (8): the max number of services a virtual cloudlet could hold
        if filled with minimal-demand services."""
        cap = self.slot_capacity
        return max(cap / self.a_min, cap / self.b_min)

    # ------------------------------------------------------------------ #
    # GAP construction / solution mapping
    # ------------------------------------------------------------------ #
    def item_weight(self, provider_id: int) -> float:
        """Uniform weight = slot capacity: one service per virtual cloudlet
        (the Section III.B restriction)."""
        return self.slot_capacity

    @property
    def remote_bin(self) -> int:
        """GAP bin index of the remote ("do not cache") bin, if enabled."""
        if not self.allow_remote:
            raise ConfigurationError("split was built without a remote bin")
        return len(self.virtual_cloudlets)

    def build_gap_instance(self) -> GAPInstance:
        """Items = providers (in id order), bins = virtual cloudlets, plus
        the remote bin when ``allow_remote`` is set.

        The cost matrix is assembled from the market's cached compiled
        tables (one broadcast add per pricing mode).
        """
        cm = self.market.compile()
        n = cm.n_providers
        n_virtual = len(self.virtual_cloudlets)
        m = n_virtual + (1 if self.allow_remote else 0)
        costs = np.zeros((n, m))
        weights = np.full((n, m), self.slot_capacity)
        # GAP item j is the j-th provider in id order; after delta patches
        # the compiled rows are not id-ordered, so gather through the
        # active-row map (a no-op reindex on a dense compile).
        rows = cm.active_rows
        if n_virtual:
            cols = np.array(
                [cm.cloudlet_index[vc.cloudlet_node] for vc in self.virtual_cloudlets],
                dtype=np.int64,
            )
            if self.slot_pricing == "flat":
                # Eq. (9): (alpha_i + beta_i) + fixed, per slot column.
                costs[:, :n_virtual] = cm.coeff[cols][None, :] + cm.fixed[
                    np.ix_(rows, cols)
                ]
            else:
                # Marginal pricing: slot k of CL_i carries the marginal
                # social congestion charge
                #   (alpha_i + beta_i) * (k*g(k) - (k-1)*g(k-1)),
                # i.e. (2k - 1)(alpha_i + beta_i) under the paper's linear
                # model, so filling k slots sums to the true social
                # congestion cost (alpha_i+beta_i) * k * g(k). The GAP
                # objective then equals the social cost (Eq. 6) exactly,
                # which is what makes the coordinated placement worth
                # following.
                marg = np.empty(n_virtual)
                for t, vc in enumerate(self.virtual_cloudlets):
                    k = vc.slot + 1
                    marg[t] = cm.coeff[cols[t]] * (
                        k * cm.g_at(k) - (k - 1) * cm.g_at(k - 1)
                    )
                costs[:, :n_virtual] = marg[None, :] + cm.fixed[np.ix_(rows, cols)]
        if self.allow_remote:
            costs[:, self.remote_bin] = cm.remote[rows]
        capacities = np.array(
            [vc.capacity for vc in self.virtual_cloudlets]
            + ([n * self.slot_capacity] if self.allow_remote else [])
        )
        return GAPInstance(costs=costs, weights=weights, capacities=capacities)

    def merge_assignment(self, gap_assignment: List[int]) -> Tuple[Dict[int, int], Set[int]]:
        """Step 4 of Algorithm 1: map items -> real cloudlets by collapsing
        each cloudlet's virtual cloudlets back onto it.

        Returns ``(placement, rejected)``; ``rejected`` holds the providers
        the GAP sent to the remote bin (empty without ``allow_remote``).
        """
        providers = self.market.providers
        if len(gap_assignment) != len(providers):
            raise ConfigurationError(
                f"GAP assignment covers {len(gap_assignment)} items, "
                f"market has {len(providers)} providers"
            )
        placement: Dict[int, int] = {}
        rejected: Set[int] = set()
        n_virtual = len(self.virtual_cloudlets)
        for j, bin_index in enumerate(gap_assignment):
            pid = providers[j].provider_id
            if self.allow_remote and bin_index >= n_virtual:
                rejected.add(pid)
            else:
                placement[pid] = self.virtual_cloudlets[bin_index].cloudlet_node
        return placement, rejected


__all__ = ["VirtualCloudlet", "VirtualCloudletSplit"]
