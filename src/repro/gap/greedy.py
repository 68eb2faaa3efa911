"""A regret-based greedy heuristic for min-cost GAP.

Used as a fast fallback inside the experiment harness and as a comparator in
ablation A4. Items are assigned in order of largest *regret* (difference
between their two cheapest feasible bins): items that are most penalised by
losing their best bin commit first.

Each round evaluates the feasibility mask (finite cost, a free slot), the
cheapest and second-cheapest bins and the regrets of every unassigned item
as whole-array numpy operations. Regret ties resolve towards the lowest
item and cost ties towards the lowest bin.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import InfeasibleError
from repro.gap.instance import GAPInstance, GAPSolution


def _greedy_assignment(instance: GAPInstance) -> List[int]:
    """Regret rounds over the instance arrays: each round computes the
    feasibility mask, the cheapest and second-cheapest feasible bins and the
    regrets of *all* unassigned items at once. ``np.argmin``/``np.argmax``
    return the first extremum, so equal costs resolve to the lowest bin and
    equal regrets to the lowest item."""
    costs = instance.costs
    n = instance.n_items
    remaining = instance.slots.copy()
    finite = np.isfinite(costs)
    assignment = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rows = np.arange(n)

    for _ in range(n):
        feasible = finite & (remaining > 0)[None, :]
        feasible &= active[:, None]
        n_feasible = feasible.sum(axis=1)
        stuck = active & (n_feasible == 0)
        if stuck.any():
            j = int(np.flatnonzero(stuck)[0])
            raise InfeasibleError(f"greedy could not place item {j}")
        masked = np.where(feasible, costs, np.inf)
        cheapest = np.argmin(masked, axis=1)
        cheapest_cost = masked[rows, cheapest]
        masked[rows, cheapest] = np.inf
        second_cost = masked.min(axis=1)
        # Items with a single feasible bin get infinite regret (place them
        # now, they have no fallback).
        regret = np.full(n, np.inf)
        multi = n_feasible > 1
        regret[multi] = second_cost[multi] - cheapest_cost[multi]
        regret[~active] = -np.inf
        item = int(np.argmax(regret))
        chosen = int(cheapest[item])
        assignment[item] = chosen
        remaining[chosen] -= 1
        active[item] = False

    return [int(a) for a in assignment]


def greedy_gap(instance: GAPInstance) -> GAPSolution:
    """Greedy regret assignment; raises :class:`InfeasibleError` when it
    cannot place every item (greedy incompleteness counts as infeasible —
    callers that need certainty should use the LP-based solvers).
    """
    return GAPSolution(
        instance=instance,
        assignment=_greedy_assignment(instance),
        method="greedy",
    )


__all__ = ["greedy_gap"]
