"""Exact optimal service caching: the Eq. (6) program solved integral.

:func:`optimal_caching` solves the program of
:mod:`repro.core.lower_bound` with every variable binary, as one HiGHS
MILP closed to a zero gap. The ordering rows make the integral program
Eq. (6) exactly for any congestion function, so its optimum is the social
optimum the empirical approximation-ratio and PoA studies (ablation A1)
measure against. The social optimum is NP-hard in general (the whole
reason Algorithm 1 exists), but HiGHS solves paper-scale markets in
seconds. The branch-and-bound search this replaced is the test oracle
``tests/oracles/optimal_reference.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.assignment import CachingAssignment, Stopwatch
from repro.core.lower_bound import solve_eq6_program
from repro.exceptions import ConfigurationError, SolverError
from repro.market.market import ServiceMarket
from repro.utils.validation import CAPACITY_EPS

_MAX_PROVIDERS = 300

#: Relative disagreement tolerated between the MILP objective and the
#: placement's social cost recomputed from the tables.
_OBJECTIVE_RTOL = 1e-9


def optimal_caching(
    market: ServiceMarket,
    max_providers: int = _MAX_PROVIDERS,
) -> CachingAssignment:
    """The socially optimal placement, every provider cached.

    The placement is read off ``x > 0.5``, re-checked against the
    capacities at ``CAPACITY_EPS`` (HiGHS has its own primal tolerance) and
    re-costed with the compiled tables; ``info["optimal_cost"]`` is that
    recomputed cost. Raises :class:`ConfigurationError` for markets larger
    than ``max_providers``, :class:`InfeasibleError` when no complete
    feasible placement exists, and :class:`SolverError` when the read-off
    placement overloads a cloudlet or its cost differs from the MILP
    objective by more than ``1e-9`` relative.
    """
    n = market.num_providers
    if n > max_providers:
        raise ConfigurationError(
            f"optimal_caching is limited to {max_providers} providers, got {n}"
        )
    cm = market.compile()
    with Stopwatch() as watch:
        result, pair_l, pair_i = solve_eq6_program(cm, allow_remote=False, integral=True)
    chosen = result.x[: pair_l.size] > 0.5
    placement = {
        cm.provider_ids[row]: cm.cloudlet_nodes[col]
        for row, col in zip(pair_l[chosen].tolist(), pair_i[chosen].tolist())
    }
    if np.any(cm.load_matrix(placement) > cm.capacity + CAPACITY_EPS):
        raise SolverError("the MILP placement overloads a cloudlet")
    cost = cm.social_cost(placement)
    if not math.isclose(cost, result.fun, rel_tol=_OBJECTIVE_RTOL):
        raise SolverError(
            f"the MILP objective {result.fun!r} is not the placement's "
            f"social cost {cost!r}"
        )
    return CachingAssignment(
        market=market,
        placement=placement,
        algorithm="Optimal",
        runtime_s=watch.elapsed,
        info={"optimal_cost": cost},
    )


__all__ = ["optimal_caching"]
