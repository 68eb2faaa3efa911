"""LP relaxation of min-cost GAP.

Variables ``x[j, i] >= 0`` for each *allowed* (item, bin) pair:

* assignment constraints  ``sum_i x[j, i] = 1`` for every item ``j``;
* capacity constraints    ``sum_j w[j, i] * x[j, i] <= cap[i]``;
* objective               ``min sum c[j, i] * x[j, i]``.

Two solvers share this entry point.

*Unit-slot instances* — every item weighs the same ``w_i`` in bin ``i``
and each ``cap_i / w_i`` is an integer (or at least the item count) — are
the paper's virtual-cloudlet reduction (Eq. 7: every item weighs one slot's
capacity; the remote bin holds all ``n`` items). Their capacity rows read
``sum_j x[j, i] <= k_i``, so the LP is a bipartite transportation problem
whose constraint matrix is totally unimodular: the LP optimum is integral.
Expanding bin ``i`` into ``k_i = min(n, cap_i / w_i)`` identical columns
turns it into a rectangular assignment problem, solved exactly by
:func:`scipy.optimize.linear_sum_assignment`; the result is a 0/1
relaxation whose value is the LP optimum.

*Every other instance* goes to HiGHS through :func:`scipy.optimize.linprog`.
Only allowed pairs get a column, which keeps the LP small for sparse
instances. The constraint matrices are assembled from the instance arrays
in bulk, one column per allowed pair in row-major (item, bin) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix

from repro.exceptions import InfeasibleError, SolverError
from repro.gap.instance import GAPInstance


@dataclass
class LPRelaxationResult:
    """Fractional optimum of the GAP LP relaxation."""

    instance: GAPInstance
    #: ``(n_items, n_bins)`` fractional assignment; rows sum to 1.
    fractions: np.ndarray
    #: Optimal LP objective — a lower bound on the integral optimum.
    value: float

    def support(self, item: int, atol: float = 1e-9) -> List[int]:
        """Bins with positive fraction for ``item``."""
        return np.flatnonzero(self.fractions[item] > atol).tolist()


def _assemble(
    instance: GAPInstance,
) -> Tuple[np.ndarray, np.ndarray, csr_matrix, csr_matrix, np.ndarray, np.ndarray]:
    """Build the constraint matrices from the instance arrays in bulk.

    ``np.nonzero`` walks the allowed-mask in row-major order, so column
    ``k`` is the ``k``-th allowed (item, bin) pair in (item, bin) order.
    """
    mask = instance.allowed_mask()
    if not bool(mask.any(axis=1).all()):
        raise InfeasibleError("some item has no admissible bin")

    rows, cols = np.nonzero(mask)
    n_cols = rows.shape[0]
    arange = np.arange(n_cols)

    c = instance.costs[rows, cols]
    a_eq = csr_matrix(
        (np.ones(n_cols), (rows, arange)), shape=(instance.n_items, n_cols)
    )
    a_ub = csr_matrix(
        (instance.weights[rows, cols], (cols, arange)),
        shape=(instance.n_bins, n_cols),
    )
    return rows, cols, a_eq, a_ub, c, np.ones(instance.n_items)


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


def _highs_relaxation(instance: GAPInstance) -> LPRelaxationResult:
    """Solve the LP with HiGHS."""
    rows, cols, a_eq, a_ub, c, b_eq = _assemble(instance)
    b_ub = instance.capacities

    result = linprog(
        c,
        A_eq=a_eq,
        b_eq=b_eq,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleError("GAP LP relaxation is infeasible")
    if not result.success:
        raise SolverError(f"linprog failed: {result.message}")

    fractions = np.zeros((instance.n_items, instance.n_bins))
    fractions[rows, cols] = np.maximum(0.0, result.x)
    # Normalise tiny numerical drift so each row sums to exactly 1.
    row_sums = fractions.sum(axis=1, keepdims=True)
    fractions = fractions / row_sums

    return LPRelaxationResult(
        instance=instance, fractions=fractions, value=float(result.fun)
    )


def solve_lp_relaxation(instance: GAPInstance) -> LPRelaxationResult:
    """Solve the GAP LP relaxation; raises :class:`InfeasibleError` when the
    relaxation (hence the GAP) has no solution, and :class:`SolverError`
    when HiGHS stops for any other reason (an iteration limit included).

    A unit-slot instance (see the module docstring) is solved exactly as an
    assignment problem; every other instance goes to HiGHS.
    """
    multiplicities = _slot_multiplicities(instance)
    if multiplicities is not None:
        return _assignment_relaxation(instance, multiplicities)
    return _highs_relaxation(instance)


__all__ = ["LPRelaxationResult", "solve_lp_relaxation"]
