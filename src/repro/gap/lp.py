"""LP relaxation of a slot-form GAP, solved exactly as an assignment.

Variables ``x[j, i] >= 0`` for each *allowed* (item, bin) pair:

* assignment constraints  ``sum_i x[j, i] = 1`` for every item ``j``;
* slot constraints        ``sum_j x[j, i] <= k_i`` for every bin ``i``;
* objective               ``min sum c[j, i] * x[j, i]``.

Every bin holds up to ``k_i`` items of any kind (the Eq. 7 reduction: one
slot per virtual cloudlet, ``n`` for the remote bin), so the LP is a
bipartite transportation problem whose constraint matrix is totally
unimodular: the LP optimum is integral. Expanding bin ``i`` into
``min(k_i, n)`` identical columns turns it into a rectangular assignment
problem, solved exactly by :func:`scipy.optimize.linear_sum_assignment`;
the result is a 0/1 relaxation whose value is the LP optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.exceptions import InfeasibleError
from repro.gap.instance import GAPInstance


@dataclass
class LPRelaxationResult:
    """The 0/1 optimum of the GAP LP relaxation."""

    #: ``(n_items,)`` bin of each item in the optimum.
    assignment: np.ndarray
    #: Optimal LP objective — a lower bound on (here: equal to) the
    #: integral optimum.
    value: float


def solve_lp_relaxation(instance: GAPInstance) -> LPRelaxationResult:
    """Solve the LP relaxation exactly as a rectangular assignment.

    Bin ``i`` becomes ``min(slots[i], n_items)`` identical columns, in bin
    order; forbidden pairs cost ``inf``. By total unimodularity the
    assignment optimum is the LP optimum. Raises :class:`InfeasibleError`
    when the relaxation (hence the GAP) has no solution.
    """
    n = instance.n_items
    mask = instance.allowed_mask()
    if not bool(mask.any(axis=1).all()):
        raise InfeasibleError("some item has no admissible bin")
    column_bin = np.repeat(np.arange(instance.n_bins), np.minimum(instance.slots, n))
    if column_bin.shape[0] < n:
        raise InfeasibleError(f"{n} items but only {column_bin.shape[0]} slots")
    costs = np.where(mask, instance.costs, np.inf)[:, column_bin]
    try:
        items, picked = linear_sum_assignment(costs)
    except ValueError as exc:  # no assignment avoids every forbidden pair
        raise InfeasibleError(f"GAP assignment is infeasible: {exc}") from exc
    # With no more rows than columns every item is matched, in row order.
    return LPRelaxationResult(
        assignment=column_bin[picked],
        value=float(costs[items, picked].sum()),
    )


__all__ = ["LPRelaxationResult", "solve_lp_relaxation"]
