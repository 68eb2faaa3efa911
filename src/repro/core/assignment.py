"""Caching assignments and their evaluation.

A :class:`CachingAssignment` is the common output type of every algorithm in
:mod:`repro.core`: which cloudlet hosts each provider's cached instance,
which providers were rejected (left serving from the remote cloud), and how
much the outcome costs under the market's congestion-aware model.

:func:`sequential_admission` is the step every algorithm ends with:
providers, in a fixed order, take the cheapest cloudlet that still has room,
or stay in the remote cloud.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set

import numpy as np

from repro.exceptions import CapacityError, ConfigurationError
from repro.market.compiled import CompiledMarket
from repro.market.market import ServiceMarket
from repro.utils.validation import CAPACITY_EPS


@dataclass
class CachingAssignment:
    """The outcome of a service-caching algorithm on a market.

    Parameters
    ----------
    market:
        The market the assignment refers to.
    placement:
        ``provider_id -> cloudlet node_id`` for every cached provider.
    rejected:
        Providers whose service stays in the remote cloud (capacity repair
        could not fit them). Their cost is the remote-serving cost.
    algorithm:
        Name of the producing algorithm (for reports).
    runtime_s:
        Wall-clock seconds the algorithm took (the paper's Fig. 2d/3d/5b).
    """

    market: ServiceMarket
    placement: Dict[int, int]
    rejected: FrozenSet[int] = frozenset()
    algorithm: str = ""
    runtime_s: float = 0.0
    #: Free-form diagnostics set by algorithms (iterations, bounds, ...).
    info: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        provider_ids = {p.provider_id for p in self.market.providers}
        placed = set(self.placement)
        unknown = placed - provider_ids
        if unknown:
            raise ConfigurationError(f"placement has unknown providers {sorted(unknown)}")
        overlap = placed & set(self.rejected)
        if overlap:
            raise ConfigurationError(
                f"providers {sorted(overlap)} are both placed and rejected"
            )
        uncovered = provider_ids - placed - set(self.rejected)
        if uncovered:
            raise ConfigurationError(
                f"providers {sorted(uncovered)} neither placed nor rejected"
            )
        for pid, node in self.placement.items():
            if not self.market.network.has_cloudlet(node):
                raise ConfigurationError(
                    f"provider {pid} placed at node {node} which hosts no cloudlet"
                )

    # ------------------------------------------------------------------ #
    # Costs
    # ------------------------------------------------------------------ #
    def occupancy(self) -> Dict[int, int]:
        """``|sigma_i|`` per cloudlet node, in first-appearance order."""
        return dict(Counter(self.placement.values()))

    def provider_cost(self, provider_id: int) -> float:
        """The provider's cost: Eq. (3) if cached, remote cost if rejected.

        Evaluated from the market's compiled tables (bit-equal to the
        cost-model evaluation; the blob is cached, so repeated queries are
        table lookups).
        """
        cm = self.market.compile()
        if provider_id in self.rejected:
            return cm.remote_cost(provider_id)
        return cm.provider_cost(provider_id, self.placement)

    def provider_costs(self) -> Dict[int, float]:
        """``provider_id -> cost`` for every provider: Eq. (5) if cached
        (occupancy counted once for all of them), remote cost if rejected.
        Each entry is bit-equal to :meth:`provider_cost`."""
        cm = self.market.compile()
        costs = cm.provider_costs(self.placement)
        costs.update((pid, cm.remote_cost(pid)) for pid in self.rejected)
        return costs

    @property
    def social_cost(self) -> float:
        """Eq. (6) over cached providers plus remote costs of rejected ones.

        Uses the compiled tables; ``CostModel.social_cost`` remains the
        object-graph oracle the equivalence tests compare against.
        """
        cm = self.market.compile()
        total = cm.social_cost(self.placement)
        total += sum(cm.remote_cost(pid) for pid in self.rejected)
        return total

    def cost_of(self, provider_ids: Iterable[int]) -> float:
        """Total cost of a subset of providers (Fig. 2b/2c splits)."""
        costs = self.provider_costs()
        return sum(costs[pid] for pid in provider_ids)

    @property
    def coordinated_cost(self) -> float:
        return self.cost_of(p.provider_id for p in self.market.coordinated)

    @property
    def selfish_cost(self) -> float:
        return self.cost_of(p.provider_id for p in self.market.selfish)

    @property
    def rejection_rate(self) -> float:
        return len(self.rejected) / self.market.num_providers

    # ------------------------------------------------------------------ #
    # Feasibility
    # ------------------------------------------------------------------ #
    def check_capacities(self) -> None:
        """Raise :class:`CapacityError` if any cloudlet is overloaded."""
        loads: Dict[int, List[float]] = {}
        for pid, node in self.placement.items():
            provider = self.market.provider(pid)
            cpu, bw = loads.get(node, [0.0, 0.0])
            loads[node] = [cpu + provider.compute_demand, bw + provider.bandwidth_demand]
        for node, (cpu, bw) in loads.items():
            cl = self.market.network.cloudlet_at(node)
            if cpu > cl.compute_capacity + CAPACITY_EPS:
                raise CapacityError(
                    f"{cl.name}: compute load {cpu:.3f} > capacity {cl.compute_capacity}"
                )
            if bw > cl.bandwidth_capacity + CAPACITY_EPS:
                raise CapacityError(
                    f"{cl.name}: bandwidth load {bw:.3f} > capacity {cl.bandwidth_capacity}"
                )

    def is_feasible(self) -> bool:
        try:
            self.check_capacities()
        except CapacityError:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"CachingAssignment(algorithm={self.algorithm!r}, "
            f"placed={len(self.placement)}, rejected={len(self.rejected)}, "
            f"social_cost={self.social_cost:.4g})"
        )


def sequential_admission(
    cm: CompiledMarket,
    loads: np.ndarray,
    placement: Dict[int, int],
    rejected: Set[int],
    entrants: Iterable[int],
    price: Callable[[int], np.ndarray],
    threshold: Optional[np.ndarray] = None,
) -> int:
    """Admit ``entrants``, in order, each at its cheapest cloudlet with room.

    ``price(row)`` is the entrant's cost row over the cloudlet columns (by
    physical row of ``cm``); prices do not depend on who entered before.
    Candidates fit the residual capacity (the comparison of
    :meth:`CompiledMarket.fits_mask`) and have a finite fixed cost; the
    first minimum wins iff it is strictly below ``threshold[row]`` (none:
    ``inf``), else the entrant is rejected. Updates the ``(m, 2)``
    ``loads``, ``placement`` and ``rejected`` in place; returns the number
    admitted. An unknown entrant raises before anyone is admitted.

    Each price row is ranked once by a stable sort, so ties keep column
    order, and NaN prices are moved to the front, where ``np.argmin`` would
    pick them. An entrant walks its ranking up to its ``+inf`` prices,
    which never beat a bar, and takes the first column that fits the loads
    the entrants before it left.
    """
    pids = list(entrants)
    if not pids:
        return 0
    rows = [cm.provider_row(pid) for pid in pids]
    ranked = np.where(
        np.isfinite(cm.fixed[rows]), np.stack([price(row) for row in rows]), np.inf
    )
    order = np.argsort(ranked, axis=1, kind="stable")
    nans = np.isnan(ranked).sum(axis=1)
    for r in np.flatnonzero(nans):
        order[r] = np.roll(order[r], nans[r])
    reach = ranked.shape[1] - np.isposinf(ranked).sum(axis=1)
    cap = cm.capacity.tolist()
    load = loads.tolist()
    bars = [np.inf] * len(rows) if threshold is None else threshold[rows].tolist()
    admitted = 0
    for pid, cols, prices, (cpu, bw), bar in zip(
        pids,
        [cols[:n] for cols, n in zip(order.tolist(), reach.tolist())],
        ranked.tolist(),
        cm.demand[rows].tolist(),
        bars,
    ):
        j = next(
            (
                j for j in cols
                if load[j][0] + cpu <= cap[j][0] + CAPACITY_EPS
                and load[j][1] + bw <= cap[j][1] + CAPACITY_EPS
            ),
            None,
        )
        if j is None or not prices[j] < bar:
            rejected.add(pid)
            continue
        placement[pid] = cm.cloudlet_nodes[j]
        load[j][0] += cpu
        load[j][1] += bw
        admitted += 1
    loads[:] = load
    return admitted


class Stopwatch:
    """Tiny context manager measuring wall-clock runtime of algorithms."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


__all__ = ["CachingAssignment", "Stopwatch", "sequential_admission"]
