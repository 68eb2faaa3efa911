"""The Eq. (6) program on the compiled tables, and its LP lower bound.

One program, read off the market's
:class:`~repro.market.compiled.CompiledMarket`, serves both the bound and
the exact optimum: :func:`social_cost_lower_bound` solves it relaxed, and
:func:`repro.core.optimal.optimal_caching` solves it with every variable
binary. Its columns and rows (:func:`solve_eq6_program`):

* ``x[l, i]`` — provider ``l`` cached on cloudlet ``i``, one column per
  pair with a finite fixed cost (latency-budget violations get no column),
  priced at that fixed cost;
* ``y[i, k] in [0, 1]`` — how full slot ``k`` of cloudlet ``i`` is, for
  ``k <= K_i = min(n, floor(C_i / a_min), floor(B_i / b_min))``, priced at
  the marginal congestion charge
  ``(alpha_i + beta_i) * (k*g(k) - (k-1)*g(k-1))``;
* ``r[l]`` — provider ``l`` served remotely (only with ``allow_remote``);
* rows ``sum_i x[l, i] + r[l] = 1``, ``sum_l x[l, i] = sum_k y[i, k]``,
  the true compute / bandwidth capacities on ``sum_l x[l, i]``, and the
  ordering ``y[i, k+1] <= y[i, k]``.

Filling the first ``k_i`` slots bills exactly the social cost
``(alpha_i + beta_i) * k_i * g(k_i) + fixed`` of an integral placement
(the telescoping identity of the marginal-priced reduction), and the
ordering rows force every integral point to fill a prefix, so the integral
program is Eq. (6) exactly, for any congestion function. Every integral
feasible placement is thus a feasible LP point of equal objective, hence
``LP* <= OPT``.

Where the marginals rise (the paper's linear ``g``, and every convex
``k*g(k)``) the relaxation fills the cheapest slots first anyway, so the
ordering rows are slack and the relaxation is the slotted LP with one
column per (provider, cloudlet, slot) aggregated over the slots: any
``(x, y)`` with equal per-cloudlet totals splits back into a slotted
``x[l, i, k]`` (a transportation problem with equal totals), so both have
the same optimum. The slotted form is kept as the test oracle. The bound is what the benchmarks report as the
*optimality gap* of Appro/LCF at scale.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, OptimizeResult, milp
from scipy.sparse import csr_matrix

from repro.exceptions import InfeasibleError, SolverError
from repro.market.compiled import CompiledMarket
from repro.market.market import ServiceMarket


def solve_eq6_program(
    cm: CompiledMarket,
    allow_remote: bool,
    integral: bool,
) -> Tuple[OptimizeResult, np.ndarray, np.ndarray]:
    """Assemble and solve the Eq. (6) program (see module docstring).

    Returns the HiGHS result and the ``(provider, cloudlet)`` position of
    each ``x`` column (in ``active_rows`` order); the ``x`` columns come
    first in ``result.x``. ``integral`` makes every variable binary and
    closes the MIP gap to zero. Raises :class:`InfeasibleError` when a
    provider has no finite pair and no remote option, or when the program
    itself is infeasible.
    """
    rows = cm.active_rows
    fixed = cm.fixed[rows]
    demand = cm.demand[rows]
    n, m = fixed.shape

    # Slots per cloudlet: bounded by the provider count and by capacity
    # over the smallest demand (a zero demand leaves that axis unbounded).
    smallest = demand.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        by_cap = np.where(smallest > 0, np.floor(cm.capacity / smallest), n)
    slots = np.maximum(0, np.minimum(n, by_cap.min(axis=1))).astype(np.int64)

    pair_l, pair_i = np.nonzero(np.isfinite(fixed) & (slots > 0))
    placeable = np.bincount(pair_l, minlength=n) > 0
    if not allow_remote and not placeable.all():
        raise InfeasibleError(
            f"{int((~placeable).sum())} provider(s) have no finite placement "
            "and no remote option"
        )

    # Slot k of cloudlet i, cloudlet-major: k runs 1..K_i within each block.
    slot_i = np.repeat(np.arange(m), slots)
    slot_k = np.arange(slot_i.size) - np.repeat(np.cumsum(slots) - slots, slots) + 1
    g = np.array([cm.g_at(k) for k in range(int(slots.max(initial=0)) + 1)])
    marginal = cm.coeff[slot_i] * (slot_k * g[slot_k] - (slot_k - 1) * g[slot_k - 1])

    remote = cm.remote[rows] if allow_remote else np.empty(0)
    n_x, n_y, n_r = pair_l.size, slot_i.size, remote.size
    x_cols = np.arange(n_x)
    y_cols = n_x + np.arange(n_y)
    r_cols = n_x + n_y + np.arange(n_r)
    c = np.concatenate([fixed[pair_l, pair_i], marginal, remote])

    # Equalities: one assignment row per provider, then one balance row per
    # cloudlet (placed mass equals filled slot mass).
    a_eq = csr_matrix(
        (
            np.concatenate([np.ones(2 * n_x), -np.ones(n_y), np.ones(n_r)]),
            (
                np.concatenate([pair_l, n + pair_i, n + slot_i, np.arange(n_r)]),
                np.concatenate([x_cols, x_cols, y_cols, r_cols]),
            ),
        ),
        shape=(n + m, c.size),
    )
    b_eq = np.concatenate([np.ones(n), np.zeros(m)])
    # Inequalities: the compute rows, then the bandwidth rows, then one
    # ordering row y[i, k] - y[i, k-1] <= 0 per slot past each first.
    later = y_cols[slot_k > 1]
    order_rows = 2 * m + np.arange(later.size)
    a_ub = csr_matrix(
        (
            np.concatenate([
                demand[pair_l, 0], demand[pair_l, 1],
                np.ones(later.size), -np.ones(later.size),
            ]),
            (
                np.concatenate([pair_i, m + pair_i, order_rows, order_rows]),
                np.concatenate([x_cols, x_cols, later, later - 1]),
            ),
        ),
        shape=(2 * m + later.size, c.size),
    )
    b_ub = np.concatenate([cm.capacity.T.ravel(), np.zeros(later.size)])

    result = milp(
        c,
        integrality=np.full(c.size, int(integral)),
        bounds=Bounds(0.0, 1.0),
        constraints=[
            LinearConstraint(a_eq, b_eq, b_eq),
            LinearConstraint(a_ub, -np.inf, b_ub),
        ],
        options={"mip_rel_gap": 0.0} if integral else {},
    )
    if result.status == 2:
        raise InfeasibleError("the Eq. 6 program is infeasible")
    if not result.success:
        raise SolverError(f"milp failed: {result.message}")
    return result, pair_l, pair_i


def social_cost_lower_bound(
    market: ServiceMarket,
    allow_remote: bool = False,
) -> float:
    """Solve the Eq. (6) program relaxed (see module docstring).

    ``allow_remote`` adds each provider's remote-serving option, matching
    algorithms run with their remote fallback enabled. Raises
    :class:`InfeasibleError` when not even the relaxation can place
    everyone (and remote is off).
    """
    result, _, _ = solve_eq6_program(market.compile(), allow_remote, integral=False)
    return float(result.fun)


__all__ = ["social_cost_lower_bound", "solve_eq6_program"]
