"""Generalized Assignment Problem (GAP) solvers.

Algorithm ``Appro`` (Algorithm 1) reduces service caching to GAP and invokes
the Shmoys–Tardos approximation [34]. This package implements that pipeline
from scratch for the instances the reduction produces: the slot-form
instance (a cost table and a slot count per bin — every Eq. 7 reduction is
one), its LP relaxation solved exactly as an assignment problem, and the
Shmoys–Tardos step, whose rounding is the identity on the resulting 0/1
relaxation — it returns the exact GAP optimum. A regret greedy heuristic
serves as the comparator of ablation A4. Each solver runs to completion:
none takes a time budget.
"""

from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.lp import solve_lp_relaxation, LPRelaxationResult
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.gap.greedy import greedy_gap

__all__ = [
    "GAPInstance",
    "GAPSolution",
    "solve_lp_relaxation",
    "LPRelaxationResult",
    "shmoys_tardos",
    "greedy_gap",
]
