"""Generalized Assignment Problem (GAP) solvers.

Algorithm ``Appro`` (Algorithm 1) reduces service caching to GAP and invokes
the Shmoys–Tardos approximation [34]. This package implements that pipeline
from scratch: the instance model, the LP relaxation (exact as an assignment
problem on unit-slot instances — every Eq. 7 reduction is one — and HiGHS
through scipy ``linprog`` on the rest), the Shmoys–Tardos rounding (cost <=
LP optimum, per-bin load <= capacity + max item weight, i.e. a
2-approximation in the regime used by the paper), plus a greedy heuristic
and an exact branch-and-bound for small instances used to measure empirical
ratios. Each solver runs to completion: none takes a time budget.
"""

from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.lp import solve_lp_relaxation, LPRelaxationResult
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.gap.greedy import greedy_gap
from repro.gap.exact import exact_gap

__all__ = [
    "GAPInstance",
    "GAPSolution",
    "solve_lp_relaxation",
    "LPRelaxationResult",
    "shmoys_tardos",
    "greedy_gap",
    "exact_gap",
]
