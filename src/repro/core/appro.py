"""Algorithm 1 — ``Appro``: the approximation for non-selfish players.

Steps (Section III.B):

1. split each cloudlet into ``n_i`` virtual cloudlets (Eq. 7);
2. build the GAP instance with the congestion-free cost (Eq. 9);
3. solve GAP with the Shmoys–Tardos approximation [34] (the reduction is a
   unit-slot instance, whose relaxation :mod:`repro.gap.lp` solves exactly
   as an assignment problem, so the rounding has nothing to round);
4. move every service assigned to a virtual cloudlet of ``CL_i`` onto the
   real ``CL_i``.

Step 4 can overload a real cloudlet (the split floors may not tile the
capacity exactly), so we finish with the *adjustment procedure* the
paper's Fig. 7 discussion refers to: overflow services are moved to the
cheapest cloudlet with residual room, and rejected (left in the remote
cloud) when no cloudlet fits them. Under the paper's standing assumption
that capacities far exceed individual demands, the repair is a no-op.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.assignment import CachingAssignment, Stopwatch
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.exceptions import ConfigurationError
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.market.compiled import CompiledMarket
from repro.market.market import ServiceMarket
from repro.utils.contracts import invariant_capacity_feasible
from repro.utils.validation import CAPACITY_EPS

_GAP_SOLVERS: Dict[str, Callable[[GAPInstance], GAPSolution]] = {
    "shmoys_tardos": shmoys_tardos,
    "greedy": greedy_gap,
}


@invariant_capacity_feasible()
def _repair_capacities(
    market: ServiceMarket, placement: Dict[int, int], cm: CompiledMarket
) -> Tuple[Dict[int, int], Set[int], int]:
    """Evict overflow services and re-place (or reject) them.

    Within an overloaded cloudlet, the largest services leave first — they
    free the most capacity per eviction, keeping the approximate solution's
    structure as intact as possible. An evicted service re-enters at its
    cheapest cloudlet among those that fit it and have a finite Eq. (9)
    cost (an infinite cost marks a pair outside the latency budget); with
    none, it is rejected. Returns (placement, rejected, moves).

    The per-cloudlet loads of ``market`` live in one ``(m, 2)`` array of
    its compiled tables ``cm``, built once and maintained incrementally
    through both the eviction and the re-placement phase; candidate
    filtering and the cheapest-cloudlet pick are vectorised over the
    gap-cost table.
    """
    loads = cm.load_matrix(placement)
    gap = cm.gap_costs()
    evicted: List[int] = []
    for col, node in enumerate(cm.cloudlet_nodes):
        members = sorted(
            (pid for pid, n in placement.items() if n == node),
            key=lambda pid: -max(
                float(cm.demand[cm.provider_index[pid], 0]),
                float(cm.demand[cm.provider_index[pid], 1]),
            ),
        )
        k = 0
        while (
            loads[col, 0] > cm.capacity[col, 0] + CAPACITY_EPS
            or loads[col, 1] > cm.capacity[col, 1] + CAPACITY_EPS
        ) and k < len(members):
            pid = members[k]
            k += 1
            loads[col] -= cm.demand[cm.provider_index[pid]]
            del placement[pid]
            evicted.append(pid)

    rejected: Set[int] = set()
    moves = 0
    for pid in evicted:
        row = cm.provider_index[pid]
        candidates = np.flatnonzero(cm.fits_mask(row, loads) & np.isfinite(gap[row]))
        if candidates.size == 0:
            rejected.add(pid)
            continue
        # First minimum among the candidates in cloudlet order.
        best = int(candidates[np.argmin(gap[row, candidates])])
        placement[pid] = cm.cloudlet_nodes[best]
        loads[best] += cm.demand[row]
        moves += 1
    return placement, rejected, moves


def _enter_newcomers(
    market: ServiceMarket,
    cm: CompiledMarket,
    placement: Dict[int, int],
    newcomers: List[int],
    rejected: Set[int],
    allow_remote: bool,
) -> int:
    """Place each newcomer, in order, at its cheapest feasible Eq. (9) cost.

    Same candidate filter, cost and first-minimum tie-break as the repair's
    re-placement phase; with ``allow_remote`` a newcomer whose remote cost
    beats that cloudlet stays remote. Updates ``placement`` and
    ``rejected`` of ``market`` in place and returns the number placed.
    """
    loads = cm.load_matrix(placement)
    gap = cm.gap_costs()
    entered = 0
    for pid in newcomers:
        row = cm.provider_row(pid)
        candidates = np.flatnonzero(cm.fits_mask(row, loads) & np.isfinite(gap[row]))
        if candidates.size == 0:
            rejected.add(pid)
            continue
        best = int(candidates[np.argmin(gap[row, candidates])])
        if allow_remote and cm.remote[row] < gap[row, best]:
            rejected.add(pid)
            continue
        placement[pid] = cm.cloudlet_nodes[best]
        loads[best] += cm.demand[row]
        entered += 1
    return entered


def _warm_appro(
    market: ServiceMarket,
    seed_placement: Dict[int, int],
    seed_rejected: Set[int],
    allow_remote: bool,
    cm: CompiledMarket,
) -> CachingAssignment:
    """Warm-start Algorithm 1 from a previous run's assignment.

    Survivors keep their seeded strategy (a cloudlet, or "do not cache"
    when ``allow_remote``); the capacity repair then restores feasibility
    (capacities may have shrunk under them), and only the *newcomers* are
    placed — greedily at their cheapest feasible Eq. (9) cost, the same
    candidate filter, cost and first-minimum tie-break as the repair's
    re-placement phase. No virtual-cloudlet split, no GAP relaxation: the
    previous rounding seed replaces the LP, which is what makes warm
    epochs an order of magnitude cheaper than cold ones.

    A warm run on an *unchanged* market reproduces its seed exactly.
    """
    with Stopwatch() as watch:
        present = set(p.provider_id for p in market.providers)
        valid_nodes = {cl.node_id for cl in market.network.cloudlets}
        placement = {
            pid: node
            for pid, node in seed_placement.items()
            if pid in present and node in valid_nodes
        }
        # A remote ("do not cache") strategy only exists with the remote
        # bin open; otherwise previously rejected survivors re-enter.
        rejected: Set[int] = (
            {pid for pid in seed_rejected if pid in present}
            if allow_remote
            else set()
        )
        newcomers = sorted(
            pid for pid in present if pid not in placement and pid not in rejected
        )
        placement, repair_rejected, moves = _repair_capacities(
            market, placement, cm
        )
        rejected |= repair_rejected
        entered = _enter_newcomers(
            market, cm, placement, newcomers, rejected, allow_remote
        )

    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(rejected),
        algorithm="Appro[warm]",
        runtime_s=watch.elapsed,
        info={
            "warm_start": True,
            "repair_moves": moves,
            "warm_entries": entered,
            "warm_survivors": len(placement) - entered,
        },
    )


def appro(
    market: ServiceMarket,
    gap_solver: str = "shmoys_tardos",
    allow_remote: bool = False,
    slot_pricing: str = "marginal",
    warm_start: Optional[CachingAssignment] = None,
) -> CachingAssignment:
    """Run Algorithm 1 on a market.

    Parameters
    ----------
    gap_solver:
        ``"shmoys_tardos"`` (the paper's choice, exact on the unit-slot
        reduction) or ``"greedy"`` — the comparator of ablation A4.
    allow_remote:
        Give the GAP a remote ("do not cache") bin: services for which
        remote serving is genuinely cheaper — or that no virtual cloudlet
        can host — are left in the remote cloud and count as rejected.
        Default off, matching the paper's Algorithm 1 whose strategy space
        is cloudlets only; enable for the "to cache or not to cache"
        extension studied in the examples.
    slot_pricing:
        ``"marginal"`` (default) prices slot ``k`` of a cloudlet at its
        marginal social congestion cost so the GAP objective equals Eq. (6)
        exactly; ``"flat"`` uses the paper's literal Eq. (9) cost
        ``alpha_i + beta_i + c_l^ins + c_i^bdw`` (used by the Lemma 2
        empirical-ratio study). See DESIGN.md for the rationale.
    warm_start:
        A previous assignment on an earlier version of this market (any
        object with ``placement`` and ``rejected``). Surviving providers
        keep their seeded strategies, only newcomers are placed, and the
        split/GAP solve is skipped entirely — see :func:`_warm_appro`.
        The result is a repaired greedy continuation of the seed, not a
        re-run of the LP rounding.

    The GAP build, the capacity repair and the warm entry all read the
    market's cached :class:`~repro.market.compiled.CompiledMarket`
    (``market.compile()``).

    Returns a :class:`CachingAssignment` whose ``info`` carries
    ``gap_lower_bound``, ``delta``/``kappa``, the Lemma 2 ratio bound, and
    repair stats. ``gap_lower_bound`` is the optimum of Appro's own
    slotted GAP (flat Eq. 9 or marginal slot costs, per ``slot_pricing``;
    the Shmoys–Tardos relaxation is exact on this unit-slot instance;
    ``"greedy"`` reports ``None``). It bounds that GAP, not the Eq. 6
    social optimum.
    """
    try:
        solve = _GAP_SOLVERS[gap_solver]
    except KeyError:
        raise ValueError(
            f"unknown gap_solver {gap_solver!r}; choose from {sorted(_GAP_SOLVERS)}"
        ) from None
    if slot_pricing not in VirtualCloudletSplit.PRICINGS:
        raise ConfigurationError(
            f"slot_pricing must be one of {VirtualCloudletSplit.PRICINGS}, "
            f"got {slot_pricing!r}"
        )
    cm = market.compile()
    if warm_start is not None:
        return _warm_appro(
            market,
            seed_placement=dict(warm_start.placement),
            seed_rejected=set(warm_start.rejected),
            allow_remote=allow_remote,
            cm=cm,
        )

    with Stopwatch() as watch:
        split = VirtualCloudletSplit(
            market, allow_remote=allow_remote, slot_pricing=slot_pricing
        )
        instance = split.build_gap_instance()
        solution: GAPSolution = solve(instance)
        placement, gap_rejected = split.merge_assignment(solution.assignment)
        placement, repair_rejected, moves = _repair_capacities(
            market, placement, cm
        )

    return CachingAssignment(
        market=market,
        placement=placement,
        rejected=frozenset(gap_rejected | repair_rejected),
        algorithm=f"Appro[{gap_solver}]",
        runtime_s=watch.elapsed,
        info={
            "gap_cost": solution.cost,
            "gap_lower_bound": solution.lower_bound,
            "delta": split.delta,
            "kappa": split.kappa,
            "n_prime_max": split.n_prime_max,
            "virtual_cloudlets": len(split.virtual_cloudlets),
            "repair_moves": moves,
            "ratio_bound": 2.0 * split.delta * split.kappa,
        },
    )


__all__ = ["appro"]
