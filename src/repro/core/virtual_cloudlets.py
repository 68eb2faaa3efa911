"""Virtual-cloudlet splitting and the GAP reduction (Section III.B).

Each cloudlet ``CL_i`` is split into

``n_i = min( floor(C(CL_i)/a_max), floor(B(CL_i)/b_max) )``            (Eq. 7)

virtual cloudlets, "each virtual cloudlet being restricted to be able to
only cache a single service instance" (Section III.B). Each virtual cloudlet
is one GAP bin with a single slot, so the split is one slot table: ``n_i``
per cloudlet and, for every slot, the cloudlet it belongs to. The
assignment cost ignores congestion (Eq. 9): ``alpha_i + beta_i + c_l^ins +
c_i^bdw``.

Feasibility (Lemma 1) is then structural: a cloudlet receives at most
``n_i`` services, each demanding at most ``a_max`` compute and ``b_max``
bandwidth, and ``n_i * a_max <= C(CL_i)``, ``n_i * b_max <= B(CL_i)`` by
Eq. (7).

When the market holds more providers than there are virtual cloudlets — the
regime of the Fig. 7 sweeps, where growing ``a_max`` shrinks every ``n_i``
— a plain reduction is infeasible. We optionally extend the instance with a
*remote bin* of ``n`` slots whose cost is the provider's remote-serving
cost: services assigned there are "not cached" (the title's other option)
and count as rejected.

``delta = C(CL_i)/a_max`` and ``kappa = B(CL_i)/b_max`` (cloudlet-maximal,
per Lemma 2) and ``n'_max`` (Eq. 8) are exposed for the bound computations.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.instance import GAPInstance
from repro.market.market import ServiceMarket


class VirtualCloudletSplit:
    """The Eq. (7)–(9) reduction of a market to a GAP instance.

    The split is kept as arrays in the network's cloudlet order, which is
    the compiled market's ``cloudlet_nodes``: ``n_i[c]`` slots for the
    cloudlet in column ``c`` (node ``cloudlet_nodes[c]``), and
    ``slot_cloudlet[s]``, the column of virtual cloudlet (GAP bin) ``s``;
    a cloudlet's slots are consecutive bins.

    ``allow_remote`` appends a remote bin (one slot per provider, so it
    never fills) priced at each provider's remote-serving cost;
    :meth:`merge_assignment` reports services landing there as rejected.
    """

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
        cloudlets = market.network.cloudlets
        self.cloudlet_nodes = np.array([cl.node_id for cl in cloudlets], dtype=np.int64)
        # Per cloudlet: C(CL_i) / a_max and B(CL_i) / b_max.
        ratios = np.array(
            [
                (cl.compute_capacity / self.a_max, cl.bandwidth_capacity / self.b_max)
                for cl in cloudlets
            ]
        ).reshape(-1, 2)
        #: ``delta`` and ``kappa`` of Lemma 2: the cloudlet-maximal ratios.
        self.delta, self.kappa = ratios.max(axis=0, initial=0.0).tolist()
        self.n_i = np.floor(ratios).min(axis=1).astype(np.int64)
        self.slot_cloudlet = np.repeat(np.arange(len(self.n_i)), self.n_i)
        if not len(self.slot_cloudlet) and not allow_remote:
            raise InfeasibleError(
                "every cloudlet splits into zero virtual cloudlets: the largest "
                "service demand exceeds (a capacity fraction of) every cloudlet; "
                "Lemma 1 assumes capacities far exceed maximum demands"
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
    @property
    def remote_bin(self) -> int:
        """GAP bin index of the remote ("do not cache") bin, if enabled."""
        if not self.allow_remote:
            raise ConfigurationError("split was built without a remote bin")
        return len(self.slot_cloudlet)

    def build_gap_instance(self) -> GAPInstance:
        """Items = providers (in id order), bins = virtual cloudlets, plus
        the remote bin when ``allow_remote`` is set.

        The cost table is assembled from the market's cached compiled
        tables (one broadcast add per pricing mode); every virtual cloudlet
        has one slot and the remote bin ``n``.
        """
        cm = self.market.compile()
        n = cm.n_providers
        n_virtual = len(self.slot_cloudlet)
        m = n_virtual + (1 if self.allow_remote else 0)
        costs = np.zeros((n, m))
        # GAP item j is the j-th provider in id order; after delta patches
        # the compiled rows are not id-ordered, so gather through the
        # active-row map (a no-op reindex on a dense compile).
        rows = cm.active_rows
        cols = self.slot_cloudlet
        if self.slot_pricing == "flat":
            # Eq. (9): (alpha_i + beta_i) + fixed, per slot column.
            price = cm.coeff[cols]
        else:
            # Marginal pricing: slot k of CL_i carries the marginal social
            # congestion charge
            #   (alpha_i + beta_i) * (k*g(k) - (k-1)*g(k-1)),
            # i.e. (2k - 1)(alpha_i + beta_i) under the paper's linear
            # model, so filling k slots sums to the true social congestion
            # cost (alpha_i+beta_i) * k * g(k). The GAP objective then
            # equals the social cost (Eq. 6) exactly, which is what makes
            # the coordinated placement worth following.
            k = np.arange(n_virtual) - (np.cumsum(self.n_i) - self.n_i)[cols] + 1
            g = np.array([cm.g_at(t) for t in range(int(self.n_i.max()) + 1)])
            price = cm.coeff[cols] * (k * g[k] - (k - 1) * g[k - 1])
        costs[:, :n_virtual] = price[None, :] + cm.fixed[np.ix_(rows, cols)]
        slots = np.ones(m, dtype=np.int64)
        if self.allow_remote:
            costs[:, n_virtual] = cm.remote[rows]
            slots[n_virtual] = n
        return GAPInstance(costs=costs, slots=slots)

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
        bins = np.asarray(gap_assignment, dtype=np.int64)
        pids = np.array([p.provider_id for p in providers], dtype=np.int64)
        remote = (bins >= len(self.slot_cloudlet)) & self.allow_remote
        cached = ~remote
        placement = dict(
            zip(
                pids[cached].tolist(),
                self.cloudlet_nodes[self.slot_cloudlet[bins[cached]]].tolist(),
            )
        )
        return placement, set(pids[remote].tolist())


__all__ = ["VirtualCloudletSplit"]
