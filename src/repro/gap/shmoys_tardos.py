"""The Shmoys–Tardos algorithm for min-cost GAP [34], on slot-form instances.

Shmoys & Tardos (1993) solve the GAP LP relaxation, split each bin's
fractional load into unit slots and round the resulting fractional
item–slot matching to an integral one: the cost is at most the LP optimum
and each bin's load at most its capacity plus one item — the
"2-approximation" the paper cites.

On the paper's reduction the rounding step is the identity. The
virtual-cloudlet split gives every bin a slot count, and
:mod:`repro.gap.lp` solves that relaxation exactly as an assignment
problem, so the relaxation is 0/1: every slot holds one whole item and the
matching is forced. Each item goes to the bin its relaxation picks, the
solution is the exact optimum of the GAP, and its cost equals the LP value.
"""

from __future__ import annotations

from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.lp import solve_lp_relaxation


def shmoys_tardos(instance: GAPInstance) -> GAPSolution:
    """Read the integral assignment off the 0/1 LP optimum (see module doc).

    Raises :class:`repro.exceptions.InfeasibleError` when the LP
    relaxation is infeasible.
    """
    relaxation = solve_lp_relaxation(instance)
    return GAPSolution(
        instance=instance,
        assignment=relaxation.assignment.tolist(),
        method="shmoys_tardos",
        lower_bound=relaxation.value,
    )


__all__ = ["shmoys_tardos"]
