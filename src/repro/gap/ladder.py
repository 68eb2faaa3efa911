"""The GAP solver degradation ladder: LP timeout → greedy fallback.

A production sweep cannot afford one pathological LP hanging a whole grid
cell, but silently swapping solvers would corrupt the experiment — a
figure averaging Shmoys–Tardos points with greedy points is measuring
neither. :func:`solve_with_degradation` makes the trade explicit: it runs
the requested rung with a time budget, steps down one rung on
:class:`~repro.exceptions.SolverTimeout`, and stamps the substitution on
the returned :class:`~repro.gap.instance.GAPSolution` as a
:class:`DegradationEvent` so callers (and their reports) can count and
surface degraded cells instead of discovering them in the curves.

The ladder today has two rungs — ``shmoys_tardos`` (LP + rounding, the
paper's choice) over ``greedy`` (regret-ordered, no LP, effectively
bounded running time) — matching the two solvers Algorithm 1 accepts.

Only the HiGHS LP honours the budget. A unit-slot instance — Appro's own
virtual-cloudlet reduction among them — is solved exactly as an
assignment problem (see :mod:`repro.gap.lp`), which is polynomial but not
interruptible: the budget cannot fire there and no degradation event is
emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import SolverTimeout
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.shmoys_tardos import shmoys_tardos


@dataclass(frozen=True)
class DegradationEvent:
    """A solver substitution, stamped on the solution that carries it."""

    #: The rung the caller asked for (e.g. ``"shmoys_tardos"``).
    requested: str
    #: The rung that actually produced the solution (e.g. ``"greedy"``).
    used: str
    #: Why the ladder stepped down (e.g. ``"timeout"``).
    reason: str
    #: Human-readable detail (the triggering error message).
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DegradationEvent({self.requested} -> {self.used}: "
            f"{self.reason})"
        )


def solve_with_degradation(
    instance: GAPInstance,
    time_limit_s: Optional[float] = None,
) -> GAPSolution:
    """Solve with Shmoys–Tardos under a time budget, degrading to greedy.

    Without ``time_limit_s`` this is plain :func:`~repro.gap.
    shmoys_tardos.shmoys_tardos`. With one, a :class:`~repro.exceptions.
    SolverTimeout` from the LP falls through to :func:`~repro.gap.greedy.
    greedy_gap` and the returned solution carries a
    :class:`DegradationEvent` (``solution.degradation``); an untimed
    solve always returns ``degradation=None``. Infeasibility is *not*
    degraded — an infeasible relaxation means the GAP itself has no
    solution, and greedy would only dress that up.
    """
    try:
        return shmoys_tardos(instance, time_limit_s=time_limit_s)
    except SolverTimeout as exc:
        solution = greedy_gap(instance)
        return GAPSolution(
            instance=solution.instance,
            assignment=solution.assignment,
            method=solution.method,
            lower_bound=solution.lower_bound,
            degradation=DegradationEvent(
                requested="shmoys_tardos",
                used="greedy",
                reason="timeout",
                detail=str(exc),
            ),
        )


__all__ = ["DegradationEvent", "solve_with_degradation"]
