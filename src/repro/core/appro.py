"""Algorithm 1 — ``Appro``: the approximation for non-selfish players.

Steps (Section III.B):

1. split each cloudlet into ``n_i`` virtual cloudlets (Eq. 7);
2. build the GAP instance with the congestion-free cost (Eq. 9);
3. solve GAP with the Shmoys–Tardos approximation [34];
4. move every service assigned to a virtual cloudlet of ``CL_i`` onto the
   real ``CL_i``.

Step 4 can overload a real cloudlet (the Shmoys–Tardos rounding may exceed a
virtual cloudlet's capacity by one item, and the split floors may not tile
the capacity exactly), so we finish with the *adjustment procedure* the
paper's Fig. 7 discussion refers to: overflow services are moved to the
cheapest cloudlet with residual room, and rejected (left in the remote
cloud) when no cloudlet fits them. Under the paper's standing assumption
that capacities far exceed individual demands, the repair is a no-op.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.assignment import CachingAssignment, Stopwatch
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.ladder import solve_with_degradation
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.gap.exact import exact_gap
from repro.market.compiled import CompiledMarket, resolve_compiled
from repro.market.market import ServiceMarket
from repro.utils.contracts import invariant_capacity_feasible
from repro.utils.validation import CAPACITY_EPS

_GAP_SOLVERS: Dict[str, Callable[[GAPInstance], GAPSolution]] = {
    "shmoys_tardos": shmoys_tardos,
    "greedy": greedy_gap,
    "exact": exact_gap,
}


def _loads(market: ServiceMarket, placement: Dict[int, int]) -> Dict[int, List[float]]:
    loads: Dict[int, List[float]] = {
        cl.node_id: [0.0, 0.0] for cl in market.network.cloudlets
    }
    for pid, node in placement.items():
        p = market.provider(pid)
        loads[node][0] += p.compute_demand
        loads[node][1] += p.bandwidth_demand
    return loads


def _fits(market: ServiceMarket, node: int, load: List[float], pid: int) -> bool:
    cl = market.network.cloudlet_at(node)
    p = market.provider(pid)
    return (
        load[0] + p.compute_demand <= cl.compute_capacity + CAPACITY_EPS
        and load[1] + p.bandwidth_demand <= cl.bandwidth_capacity + CAPACITY_EPS
    )


@invariant_capacity_feasible()
def _repair_capacities(
    market: ServiceMarket,
    placement: Dict[int, int],
    compiled: Optional[CompiledMarket] = None,
) -> Tuple[Dict[int, int], Set[int], int]:
    """Evict overflow services and re-place (or reject) them.

    Within an overloaded cloudlet, the largest services leave first — they
    free the most capacity per eviction, keeping the approximate solution's
    structure as intact as possible. An evicted service re-enters at its
    cheapest cloudlet among those that fit it and have a finite Eq. (9)
    cost (an infinite cost marks a pair outside the latency budget); with
    none, it is rejected. Returns (placement, rejected, moves).

    With a :class:`CompiledMarket` the per-cloudlet loads live in one
    ``(m, 2)`` array, built once and maintained incrementally through both
    the eviction and the re-placement phase; candidate filtering and the
    cheapest-cloudlet pick are vectorised over the gap-cost table. Eviction
    order, feasibility comparisons and tie-breaking match the object path
    exactly.
    """
    if compiled is not None:
        return _repair_capacities_compiled(market, placement, compiled)
    loads = _loads(market, placement)
    evicted: List[int] = []
    for cl in market.network.cloudlets:
        node = cl.node_id
        members = sorted(
            (pid for pid, n in placement.items() if n == node),
            key=lambda pid: -max(
                market.provider(pid).compute_demand,
                market.provider(pid).bandwidth_demand,
            ),
        )
        k = 0
        while (
            loads[node][0] > cl.compute_capacity + CAPACITY_EPS
            or loads[node][1] > cl.bandwidth_capacity + CAPACITY_EPS
        ) and k < len(members):
            pid = members[k]
            k += 1
            p = market.provider(pid)
            loads[node][0] -= p.compute_demand
            loads[node][1] -= p.bandwidth_demand
            del placement[pid]
            evicted.append(pid)

    rejected: Set[int] = set()
    moves = 0
    model = market.cost_model
    for pid in evicted:
        provider = market.provider(pid)
        candidates = [
            cl.node_id
            for cl in market.network.cloudlets
            if _fits(market, cl.node_id, loads[cl.node_id], pid)
            and math.isfinite(model.gap_cost(provider, cl))
        ]
        if not candidates:
            rejected.add(pid)
            continue
        best = min(
            candidates,
            key=lambda n: model.gap_cost(provider, market.network.cloudlet_at(n)),
        )
        placement[pid] = best
        loads[best][0] += provider.compute_demand
        loads[best][1] += provider.bandwidth_demand
        moves += 1
    return placement, rejected, moves


def _repair_capacities_compiled(
    market: ServiceMarket, placement: Dict[int, int], cm: CompiledMarket
) -> Tuple[Dict[int, int], Set[int], int]:
    """Array-state twin of :func:`_repair_capacities` (same moves)."""
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
        # First minimum among the candidates in cloudlet order — the same
        # pick as min(candidates, key=gap_cost) on the object path.
        best = int(candidates[np.argmin(gap[row, candidates])])
        placement[pid] = cm.cloudlet_nodes[best]
        loads[best] += cm.demand[row]
        moves += 1
    return placement, rejected, moves


def _warm_appro(
    market: ServiceMarket,
    seed_placement: Dict[int, int],
    seed_rejected: Set[int],
    allow_remote: bool,
    cm: Optional[CompiledMarket],
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

    The object and compiled arms decide identically (same floats, same
    scan order), so warm runs stay differential-testable; a warm run on an
    *unchanged* market reproduces its seed exactly.
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
            market, placement, compiled=cm
        )
        rejected |= repair_rejected

        entered = 0
        if cm is not None:
            loads = cm.load_matrix(placement)
            gap = cm.gap_costs()
            for pid in newcomers:
                row = cm.provider_row(pid)
                candidates = np.flatnonzero(
                    cm.fits_mask(row, loads) & np.isfinite(gap[row])
                )
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
        else:
            model = market.cost_model
            obj_loads = _loads(market, placement)
            for pid in newcomers:
                provider = market.provider(pid)
                candidates_o = [
                    cl.node_id
                    for cl in market.network.cloudlets
                    if _fits(market, cl.node_id, obj_loads[cl.node_id], pid)
                    and math.isfinite(model.gap_cost(provider, cl))
                ]
                if not candidates_o:
                    rejected.add(pid)
                    continue
                best_node = min(
                    candidates_o,
                    key=lambda n: model.gap_cost(
                        provider, market.network.cloudlet_at(n)
                    ),
                )
                best_cost = model.gap_cost(
                    provider, market.network.cloudlet_at(best_node)
                )
                if allow_remote and model.remote_cost(provider) < best_cost:
                    rejected.add(pid)
                    continue
                placement[pid] = best_node
                obj_loads[best_node][0] += provider.compute_demand
                obj_loads[best_node][1] += provider.bandwidth_demand
                entered += 1

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
    representation: str = "compiled",
    compiled: Optional[CompiledMarket] = None,
    warm_start: Optional[CachingAssignment] = None,
    lp_time_limit_s: Optional[float] = None,
) -> CachingAssignment:
    """Run Algorithm 1 on a market.

    Parameters
    ----------
    gap_solver:
        ``"shmoys_tardos"`` (the paper's choice), ``"greedy"`` or
        ``"exact"`` — the latter two support ablation A4.
    representation:
        ``"compiled"`` (default) builds the GAP instance and runs the
        repair from the market's array-backed
        :class:`~repro.market.compiled.CompiledMarket` and assembles the
        GAP LP from the instance arrays in bulk; ``"object"`` queries the
        cost model object graph and keeps the per-pair LP assembly — the
        reference path the differential tests compare against. Both
        produce the identical assignment.
    compiled:
        An explicit precompiled market (e.g. shipped to a sweep worker);
        default compiles on demand and caches on the market instance.
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
    lp_time_limit_s:
        Time budget for the Shmoys–Tardos LP solve. When set, the solve
        runs through the degradation ladder (:func:`repro.gap.ladder.
        solve_with_degradation`): a timeout falls back to the greedy
        solver and the substitution is surfaced as
        ``info["degradation"]`` (a :class:`~repro.gap.ladder.
        DegradationEvent`) instead of silently swapping. Only meaningful
        with ``gap_solver="shmoys_tardos"``.

    Returns a :class:`CachingAssignment` whose ``info`` carries the LP lower
    bound, ``delta``/``kappa``, the Lemma 2 ratio bound, and repair stats.
    """
    try:
        solve = _GAP_SOLVERS[gap_solver]
    except KeyError:
        raise ValueError(
            f"unknown gap_solver {gap_solver!r}; choose from {sorted(_GAP_SOLVERS)}"
        ) from None
    cm = resolve_compiled(market, representation, compiled)
    if warm_start is not None:
        return _warm_appro(
            market,
            seed_placement=dict(warm_start.placement),
            seed_rejected=set(warm_start.rejected),
            allow_remote=allow_remote,
            cm=cm,
        )
    if gap_solver == "shmoys_tardos":
        # The object representation keeps the whole pre-compiled pipeline,
        # including the per-pair LP assembly; the relaxation (and hence the
        # rounding) is bit-identical either way.
        assemble = "vectorized" if cm is not None else "scalar"
        if lp_time_limit_s is not None:
            solve = partial(
                solve_with_degradation,
                time_limit_s=lp_time_limit_s,
                assemble=assemble,
            )
        else:
            solve = partial(shmoys_tardos, assemble=assemble)
    elif gap_solver == "greedy":
        # Same split for the greedy heuristic: whole-array regret rounds on
        # the compiled path, the per-item reference loop on the object path.
        solve = partial(
            greedy_gap, mode="vectorized" if cm is not None else "scalar"
        )

    with Stopwatch() as watch:
        split = VirtualCloudletSplit(
            market, allow_remote=allow_remote, slot_pricing=slot_pricing
        )
        instance = split.build_gap_instance(compiled=cm)
        solution: GAPSolution = solve(instance)
        placement, gap_rejected = split.merge_assignment(solution.assignment)
        placement, repair_rejected, moves = _repair_capacities(
            market, placement, compiled=cm
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
            "degradation": solution.degradation,
        },
    )


__all__ = ["appro"]
