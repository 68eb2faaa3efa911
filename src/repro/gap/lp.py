"""LP relaxation of min-cost GAP, solved with :func:`scipy.optimize.linprog`.

Variables ``x[j, i] >= 0`` for each *allowed* (item, bin) pair:

* assignment constraints  ``sum_i x[j, i] = 1`` for every item ``j``;
* capacity constraints    ``sum_j w[j, i] * x[j, i] <= cap[i]``;
* objective               ``min sum c[j, i] * x[j, i]``.

Only allowed pairs get a column, which keeps the LP small for sparse
instances (each virtual cloudlet admits every service in the paper's
reduction, but the library is generic). The constraint matrices are
assembled from the instance arrays in bulk, one column per allowed pair in
row-major (item, bin) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.exceptions import (
    ConfigurationError,
    InfeasibleError,
    SolverError,
    SolverTimeout,
)
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
        return [i for i in range(self.instance.n_bins) if self.fractions[item, i] > atol]


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


def solve_lp_relaxation(
    instance: GAPInstance,
    time_limit_s: Optional[float] = None,
) -> LPRelaxationResult:
    """Solve the GAP LP relaxation; raises :class:`InfeasibleError` when the
    relaxation (hence the GAP) has no solution.

    ``time_limit_s`` bounds the HiGHS solve; exceeding it raises
    :class:`~repro.exceptions.SolverTimeout` (the degradation ladder in
    :mod:`repro.gap.ladder` catches this and falls back to greedy).
    """
    if time_limit_s is not None and time_limit_s <= 0:
        raise ConfigurationError(
            f"time_limit_s must be positive, got {time_limit_s}"
        )
    rows, cols, a_eq, a_ub, c, b_eq = _assemble(instance)
    b_ub = instance.capacities

    options = {} if time_limit_s is None else {"time_limit": float(time_limit_s)}
    result = linprog(
        c,
        A_eq=a_eq,
        b_eq=b_eq,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
        options=options,
    )
    if result.status == 1:
        # HiGHS reports hitting the time (or iteration) limit as status 1.
        raise SolverTimeout(
            f"GAP LP relaxation exceeded its {time_limit_s}s budget: "
            f"{result.message}"
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


__all__ = ["LPRelaxationResult", "solve_lp_relaxation"]
