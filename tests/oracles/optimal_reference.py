"""Exact optimal service caching by branch-and-bound: the reference optimum.

:func:`repro.core.optimal.optimal_caching` solves the integral Eq. (6)
program as one MILP on the compiled tables; this is the search it
replaced, kept as the oracle ``tests/core/test_optimal_equivalence.py``
holds the MILP's social cost to.

Branch-and-bound over full placements under the true congestion-aware cost
(Eq. 3). The bound at a partial placement is

``cost committed so far (at current occupancies)  +
  sum over free providers of their cheapest occupancy-1 cost``

which is admissible because congestion costs are non-decreasing: adding
providers never cheapens anyone. Practical to roughly 12 providers on 8
cloudlets; the social optimum is NP-hard in general, which is the whole
reason Algorithm 1 exists.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.assignment import CachingAssignment, Stopwatch
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.market.market import ServiceMarket
from repro.utils.validation import CAPACITY_EPS

_MAX_PROVIDERS = 14

#: Slack subtracted from the incumbent before pruning a branch: keeps
#: float-accumulation noise from discarding placements that tie the optimum.
_PRUNE_EPS = 1e-12


def optimal_caching(
    market: ServiceMarket,
    max_providers: int = _MAX_PROVIDERS,
) -> CachingAssignment:
    """The socially optimal placement by exhaustive branch-and-bound.

    The search tables (fixed costs, congestion coefficients and factors,
    demands and capacities) come from the market's compiled view — the
    entries are exactly the cost-model evaluations this function used to
    tabulate itself, so results are unchanged.

    Raises :class:`ConfigurationError` for markets larger than
    ``max_providers`` and :class:`InfeasibleError` when no complete feasible
    placement exists.
    """
    providers = market.providers
    n = len(providers)
    if n > max_providers:
        raise ConfigurationError(
            f"optimal_caching is limited to {max_providers} providers, got {n}"
        )
    cloudlets = market.network.cloudlets
    m = len(cloudlets)
    cm = market.compile()

    # Gather the provider-indexed tables into id order (identity on a
    # dense compile; required after delta patches tombstone/append rows).
    fixed = cm.fixed[cm.active_rows]
    shared = cm.coeff
    # congestion factors g(0..n) are shared across players and cloudlets.
    g = cm.g

    # Admissible per-provider floor: cheapest fixed cost + the cheapest
    # possible congestion charge (occupancy 1 on the least congested
    # cloudlet); suffix-summed for O(1) bound lookups during the search.
    per_provider_floor = fixed.min(axis=1) + shared.min() * g[1]
    suffix = np.zeros(n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + per_provider_floor[j]

    caps = cm.capacity
    demands = cm.demand[cm.active_rows]

    best_cost = np.inf
    best_assign: Optional[List[int]] = None
    assign = [-1] * n
    counts = np.zeros(m, dtype=int)
    loads = np.zeros((m, 2))

    def placement_cost(counts_arr: np.ndarray, assign_list: List[int]) -> float:
        total = 0.0
        for j, i in enumerate(assign_list):
            total += fixed[j, i]
        for i in range(m):
            k = counts_arr[i]
            if k:
                total += k * shared[i] * g[k]
        return total

    def partial_cost() -> float:
        # Cost of committed providers at *current* occupancies (a lower
        # bound on their final cost, since occupancies only grow).
        total = 0.0
        for i in range(m):
            k = counts[i]
            if k:
                total += k * shared[i] * g[k]
        for j in range(n):
            if assign[j] >= 0:
                total += fixed[j, assign[j]]
        return total

    def dfs(j: int) -> None:
        nonlocal best_cost, best_assign
        if partial_cost() + suffix[j] >= best_cost - _PRUNE_EPS:
            return
        if j == n:
            cost = placement_cost(counts, assign)
            if cost < best_cost:
                best_cost = cost
                best_assign = assign.copy()
            return
        order = np.argsort(fixed[j])
        for i in order:
            if np.any(loads[i] + demands[j] > caps[i] + CAPACITY_EPS):
                continue
            assign[j] = int(i)
            counts[i] += 1
            loads[i] += demands[j]
            dfs(j + 1)
            loads[i] -= demands[j]
            counts[i] -= 1
            assign[j] = -1

    with Stopwatch() as watch:
        dfs(0)

    if best_assign is None:
        raise InfeasibleError("no feasible complete placement exists")
    placement: Dict[int, int] = {
        providers[j].provider_id: cloudlets[i].node_id
        for j, i in enumerate(best_assign)
    }
    return CachingAssignment(
        market=market,
        placement=placement,
        algorithm="Optimal",
        runtime_s=watch.elapsed,
        info={"optimal_cost": best_cost},
    )


__all__ = ["optimal_caching"]
