"""Generalized Assignment Problem (GAP) solvers.

Algorithm ``Appro`` (Algorithm 1) reduces service caching to GAP and invokes
the Shmoys–Tardos approximation [34]. This package implements that pipeline
from scratch: the instance model, the LP relaxation (scipy ``linprog``), the
Shmoys–Tardos rounding (cost <= LP optimum, per-bin load <= capacity + max
item weight, i.e. a 2-approximation in the regime used by the paper), plus a
greedy heuristic and an exact branch-and-bound for small instances used to
measure empirical ratios.
"""

from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.lp import solve_lp_relaxation, LPRelaxationResult
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.gap.greedy import greedy_gap
from repro.gap.exact import exact_gap
from repro.gap.ladder import DegradationEvent, solve_with_degradation

__all__ = [
    "DegradationEvent",
    "GAPInstance",
    "GAPSolution",
    "solve_lp_relaxation",
    "LPRelaxationResult",
    "shmoys_tardos",
    "solve_with_degradation",
    "greedy_gap",
    "exact_gap",
]
