"""LP relaxation of min-cost GAP, solved exactly on unit-slot instances.

Variables ``x[j, i] >= 0`` for each *allowed* (item, bin) pair:

* assignment constraints  ``sum_i x[j, i] = 1`` for every item ``j``;
* capacity constraints    ``sum_j w[j, i] * x[j, i] <= cap[i]``;
* objective               ``min sum c[j, i] * x[j, i]``.

The instances this module solves are *unit-slot*: every item weighs the
same ``w_i`` in bin ``i`` and each ``cap_i / w_i`` is an integer (or at
least the item count). The paper's virtual-cloudlet reduction is one
(Eq. 7: every item weighs one slot's capacity; the remote bin holds all
``n`` items), and it is the only GAP the library builds. Their capacity
rows read ``sum_j x[j, i] <= k_i``, so the LP is a bipartite
transportation problem whose constraint matrix is totally unimodular: the
LP optimum is integral. Expanding bin ``i`` into ``k_i = min(n, cap_i /
w_i)`` identical columns turns it into a rectangular assignment problem,
solved exactly by :func:`scipy.optimize.linear_sum_assignment`; the result
is a 0/1 relaxation whose value is the LP optimum.

Any other instance is refused with :class:`ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.instance import GAPInstance


@dataclass
class LPRelaxationResult:
    """Fractional optimum of the GAP LP relaxation."""

    instance: GAPInstance
    #: ``(n_items, n_bins)`` fractional assignment; rows sum to 1.
    fractions: np.ndarray
    #: Optimal LP objective — a lower bound on the integral optimum.
    value: float


#: Relative tolerance for reading ``cap_i / w_i`` as an integer.
_RATIO_RTOL = 1e-9


def _slot_multiplicities(instance: GAPInstance) -> Optional[np.ndarray]:
    """Per-bin slot counts ``k_i`` of a unit-slot instance, else ``None``.

    The instance qualifies when every item weighs the same ``w_i`` in bin
    ``i`` and each ``cap_i / w_i`` is an integer (within a relative
    ``_RATIO_RTOL``) or at least the item count; a zero-weight bin holds
    every item. ``k_i`` is that ratio capped at the item count.
    """
    weights = instance.weights
    column = weights[0]
    if not bool((weights == column).all()):
        return None
    n = instance.n_items
    with np.errstate(divide="ignore", invalid="ignore"):  # zero weights
        ratio = instance.capacities / column
        nearest = np.rint(ratio)
        integral = np.abs(ratio - nearest) <= _RATIO_RTOL * ratio
    roomy = ratio >= n
    if not bool((roomy | integral).all()):
        return None
    return np.where(roomy, n, nearest).astype(np.int64)


def _assignment_relaxation(
    instance: GAPInstance, multiplicities: np.ndarray
) -> LPRelaxationResult:
    """Solve a unit-slot instance exactly as a rectangular assignment.

    Bin ``i`` becomes ``multiplicities[i]`` identical columns; forbidden
    pairs cost ``inf``. By total unimodularity the assignment optimum is
    the LP optimum, so the relaxation returned is 0/1.
    """
    mask = instance.allowed_mask()
    if not bool(mask.any(axis=1).all()):
        raise InfeasibleError("some item has no admissible bin")
    column_bin = np.repeat(np.arange(instance.n_bins), multiplicities)
    if column_bin.shape[0] < instance.n_items:
        raise InfeasibleError(
            f"{instance.n_items} items but only {column_bin.shape[0]} slots"
        )
    costs = np.where(mask, instance.costs, np.inf)[:, column_bin]
    try:
        items, picked = linear_sum_assignment(costs)
    except ValueError as exc:  # no assignment avoids every forbidden pair
        raise InfeasibleError(f"GAP assignment is infeasible: {exc}") from exc

    fractions = np.zeros((instance.n_items, instance.n_bins))
    fractions[items, column_bin[picked]] = 1.0
    return LPRelaxationResult(
        instance=instance,
        fractions=fractions,
        value=float(costs[items, picked].sum()),
    )


def solve_lp_relaxation(instance: GAPInstance) -> LPRelaxationResult:
    """Solve the LP relaxation of a unit-slot GAP instance exactly, as an
    assignment problem (see the module docstring).

    Raises :class:`ConfigurationError` when the instance is not unit-slot
    and :class:`InfeasibleError` when the relaxation (hence the GAP) has
    no solution.
    """
    multiplicities = _slot_multiplicities(instance)
    if multiplicities is None:
        raise ConfigurationError(
            f"{instance!r} is not unit-slot: each bin needs one item weight "
            "and an integral capacity-to-weight ratio"
        )
    return _assignment_relaxation(instance, multiplicities)


__all__ = ["LPRelaxationResult", "solve_lp_relaxation"]
