"""General-GAP reference: weighted instances, their relaxation, rounding and exact search.

The library solves one kind of GAP instance: the slot form of the Eq. (7)
virtual-cloudlet reduction (:class:`repro.gap.instance.GAPInstance`, a
cost table and a slot count per bin), whose relaxation
:mod:`repro.gap.lp` solves exactly as one assignment problem, so that
:func:`repro.gap.shmoys_tardos.shmoys_tardos` only reads the 0/1
relaxation off. The weighted general GAP it replaced lives here, with its
own instance type, as the reference the ``tests/gap`` suites and the
Appro differentials hold the library to:

* :class:`WeightedGAPInstance` — costs, per-pair weights and per-bin
  capacities; :func:`weighted_view` restates a slot-form instance in it;
* :func:`solve_lp_relaxation` — unit-slot instances (read off the weights
  by :func:`_slot_multiplicities`) by this module's own assignment
  (:func:`_assignment_relaxation`), every other instance by HiGHS
  (:func:`_highs_relaxation` over the bulk :func:`_assemble`);
* :func:`shmoys_tardos` — the full Shmoys–Tardos rounding of a
  fractional relaxation (:func:`_build_slots`, :func:`_match_slots`);
* :func:`greedy_gap` — the regret greedy on weights and capacities;
* :func:`exact_gap` — branch-and-bound for small instances;
* the instance and solution helpers the library does not call
  (:func:`allowed`, :func:`allowed_bins`, :func:`trivially_infeasible`,
  :func:`bin_loads`, :func:`max_load_ratio`, :func:`is_feasible`,
  :func:`items_in_bin`, :func:`support`).

The unit-slot path raises the library's infeasibility messages, so a
differential can compare exceptions by type and message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix

from repro.exceptions import ConfigurationError, InfeasibleError, SolverError
from repro.gap.instance import GAPInstance, GAPSolution
from repro.utils.validation import CAPACITY_EPS


class WeightedGAPInstance:
    """A minimisation GAP instance with per-pair weights.

    Parameters
    ----------
    costs:
        ``(n_items, n_bins)`` array; ``costs[j, i]`` is the assignment cost.
        ``numpy.inf`` marks a forbidden (item, bin) pair.
    weights:
        ``(n_items, n_bins)`` array of non-negative weights.
    capacities:
        ``(n_bins,)`` array of positive knapsack capacities.

    :class:`~repro.gap.instance.GAPSolution` holds its solutions too.
    """

    def __init__(
        self,
        costs: np.ndarray,
        weights: np.ndarray,
        capacities: np.ndarray,
    ) -> None:
        costs = np.asarray(costs, dtype=float)
        weights = np.asarray(weights, dtype=float)
        capacities = np.asarray(capacities, dtype=float)

        if costs.ndim != 2:
            raise ConfigurationError(f"costs must be 2-D, got shape {costs.shape}")
        if weights.shape != costs.shape:
            raise ConfigurationError(
                f"weights shape {weights.shape} != costs shape {costs.shape}"
            )
        if capacities.ndim != 1 or capacities.shape[0] != costs.shape[1]:
            raise ConfigurationError(
                f"capacities must have one entry per bin ({costs.shape[1]}), "
                f"got shape {capacities.shape}"
            )
        if costs.shape[0] == 0 or costs.shape[1] == 0:  # reprolint: ok[R2] array shapes are exact ints
            raise ConfigurationError("instance needs at least one item and one bin")
        if np.any(weights < 0) or np.any(np.isnan(weights)):
            raise ConfigurationError("weights must be non-negative numbers")
        if np.any(capacities <= 0):  # reprolint: ok[R2] sign guard, not a feasibility test
            raise ConfigurationError("capacities must be positive")
        if np.any(np.isnan(costs)):
            raise ConfigurationError("costs must not contain NaN")

        self.costs = costs
        self.weights = weights
        self.capacities = capacities

    @property
    def n_items(self) -> int:
        return self.costs.shape[0]

    @property
    def n_bins(self) -> int:
        return self.costs.shape[1]

    def allowed_mask(self) -> np.ndarray:
        """Which (item, bin) pairs are assignable — finite cost and the
        weight fits the bin's capacity — as one ``(n_items, n_bins)``
        boolean table."""
        return np.isfinite(self.costs) & (
            self.weights <= self.capacities[None, :] + CAPACITY_EPS
        )

    def __repr__(self) -> str:
        return f"WeightedGAPInstance(items={self.n_items}, bins={self.n_bins})"


def weighted_view(instance: GAPInstance) -> Tuple[WeightedGAPInstance, np.ndarray]:
    """A slot-form instance as a weighted one: unit weights and capacity
    ``slots[i]`` per bin. A zero-slot bin admits no item and is left out;
    the second value lists the slot-form bin of each weighted bin.

    Raises :class:`InfeasibleError` when no bin has a slot.
    """
    bins = np.flatnonzero(instance.slots > 0)
    if bins.size == 0:
        raise InfeasibleError("some item has no admissible bin")
    costs = instance.costs[:, bins]
    return (
        WeightedGAPInstance(
            costs, np.ones(costs.shape), instance.slots[bins].astype(float)
        ),
        bins,
    )


@dataclass
class LPRelaxationResult:
    """Fractional optimum of the GAP LP relaxation."""

    instance: WeightedGAPInstance
    #: ``(n_items, n_bins)`` fractional assignment; rows sum to 1.
    fractions: np.ndarray
    #: Optimal LP objective — a lower bound on the integral optimum.
    value: float


# --------------------------------------------------------------------- #
# Instance, solution and relaxation helpers
# --------------------------------------------------------------------- #
def allowed(instance: WeightedGAPInstance, item: int, bin_: int) -> bool:
    """Whether (item, bin) is assignable: finite cost and weight fits."""
    return bool(
        np.isfinite(instance.costs[item, bin_])
        and instance.weights[item, bin_] <= instance.capacities[bin_] + CAPACITY_EPS
    )


def allowed_bins(instance: WeightedGAPInstance, item: int) -> List[int]:
    return [i for i in range(instance.n_bins) if allowed(instance, item, i)]


def trivially_infeasible(instance: WeightedGAPInstance) -> bool:
    """True when some item has no admissible bin at all (a cheap
    necessary check; full feasibility is decided by the LP)."""
    return any(not allowed_bins(instance, j) for j in range(instance.n_items))


def bin_loads(solution: GAPSolution) -> np.ndarray:
    """Per-bin accumulated weight."""
    loads = np.zeros(solution.instance.n_bins)
    for j, i in enumerate(solution.assignment):
        loads[i] += solution.instance.weights[j, i]
    return loads


def max_load_ratio(solution: GAPSolution) -> float:
    """Max over bins of load/capacity — <= 1 means strictly feasible,
    <= 2 is the Shmoys–Tardos guarantee when all weights fit alone."""
    return float(np.max(bin_loads(solution) / solution.instance.capacities))


def is_feasible(solution: GAPSolution, slack: float = CAPACITY_EPS) -> bool:
    """Strict feasibility: every bin within its capacity."""
    return bool(np.all(bin_loads(solution) <= solution.instance.capacities + slack))


def items_in_bin(solution: GAPSolution, bin_: int) -> List[int]:
    return [j for j, i in enumerate(solution.assignment) if i == bin_]


def support(relaxation: LPRelaxationResult, item: int, atol: float = 1e-9) -> List[int]:
    """Bins with positive fraction for ``item``."""
    return np.flatnonzero(relaxation.fractions[item] > atol).tolist()


# --------------------------------------------------------------------- #
# The LP relaxation of any GAP instance
# --------------------------------------------------------------------- #
def _assemble(
    instance: WeightedGAPInstance,
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


def _highs_relaxation(instance: WeightedGAPInstance) -> LPRelaxationResult:
    """Solve the LP with HiGHS: variables ``x[j, i] >= 0`` for each allowed
    pair, ``sum_i x[j, i] = 1`` per item, ``sum_j w[j, i] * x[j, i] <=
    cap[i]`` per bin, minimising ``sum c[j, i] * x[j, i]``."""
    rows, cols, a_eq, a_ub, c, b_eq = _assemble(instance)
    b_ub = instance.capacities

    result = linprog(
        c,
        A_eq=a_eq,
        b_eq=b_eq,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
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


#: Relative tolerance for reading ``cap_i / w_i`` as an integer.
_RATIO_RTOL = 1e-9


def _slot_multiplicities(instance: WeightedGAPInstance) -> Optional[np.ndarray]:
    """Per-bin slot counts ``k_i`` of a unit-slot instance, else ``None``.

    The instance qualifies when every item weighs the same ``w_i`` in bin
    ``i`` and each ``cap_i / w_i`` is an integer (within a relative
    ``_RATIO_RTOL``) or at least the item count; a zero-weight bin holds
    every item. ``k_i`` is that ratio capped at the item count.
    """
    weights = instance.weights
    column = weights[0]
    if not bool((weights == column).all()):
        return None
    n = instance.n_items
    with np.errstate(divide="ignore", invalid="ignore"):  # zero weights
        ratio = instance.capacities / column
        nearest = np.rint(ratio)
        integral = np.abs(ratio - nearest) <= _RATIO_RTOL * ratio
    roomy = ratio >= n
    if not bool((roomy | integral).all()):
        return None
    return np.where(roomy, n, nearest).astype(np.int64)


def _assignment_relaxation(
    instance: WeightedGAPInstance, multiplicities: np.ndarray
) -> LPRelaxationResult:
    """Solve a unit-slot instance exactly as a rectangular assignment.

    Bin ``i`` becomes ``multiplicities[i]`` identical columns, item ``j``
    the ``j``-th row; forbidden pairs cost ``inf``. By total unimodularity
    the assignment optimum is the LP optimum, so the relaxation returned
    is 0/1, and its value sums the chosen costs in item order.
    """
    n = instance.n_items
    mask = instance.allowed_mask()
    if not all(mask[j].any() for j in range(n)):
        raise InfeasibleError("some item has no admissible bin")
    column_bin = [i for i in range(instance.n_bins) for _ in range(multiplicities[i])]
    if len(column_bin) < n:
        raise InfeasibleError(f"{n} items but only {len(column_bin)} slots")
    costs = np.array(
        [[instance.costs[j, i] if mask[j, i] else np.inf for i in column_bin]
         for j in range(n)]
    ).reshape(n, len(column_bin))
    try:
        items, picked = linear_sum_assignment(costs)
    except ValueError as exc:  # no assignment avoids every forbidden pair
        raise InfeasibleError(f"GAP assignment is infeasible: {exc}") from exc

    fractions = np.zeros((n, instance.n_bins))
    for j, column in zip(items.tolist(), picked.tolist()):
        fractions[j, column_bin[column]] = 1.0
    return LPRelaxationResult(
        instance=instance,
        fractions=fractions,
        value=float(costs[items, picked].sum()),
    )


def solve_lp_relaxation(instance: WeightedGAPInstance) -> LPRelaxationResult:
    """Solve the GAP LP relaxation of any instance; raises
    :class:`InfeasibleError` when the relaxation (hence the GAP) has no
    solution, and :class:`SolverError` when HiGHS stops for any other
    reason (an iteration limit included).

    A unit-slot instance is solved exactly as an assignment problem;
    every other instance goes to HiGHS.
    """
    multiplicities = _slot_multiplicities(instance)
    if multiplicities is not None:
        return _assignment_relaxation(instance, multiplicities)
    return _highs_relaxation(instance)


# --------------------------------------------------------------------- #
# The Shmoys–Tardos rounding [34]
# --------------------------------------------------------------------- #
_EPS = 1e-9


def _build_slots(
    relaxation: LPRelaxationResult,
) -> List[Tuple[int, List[Tuple[int, float]]]]:
    """Split each bin's fractional load into unit slots.

    For each bin ``i``, ``ceil(sum_j x[j, i])`` slots; the items
    fractionally assigned to ``i``, in non-increasing weight order, pour
    their fractions into the slots in order, splitting an item across two
    consecutive slots when a slot fills up. Returns a list of slots; each
    slot is ``(bin_index, [(item, fraction)])`` with the slot's fractions
    summing to at most 1.
    """
    inst = relaxation.instance
    x = relaxation.fractions
    slots: List[Tuple[int, List[Tuple[int, float]]]] = []

    for i in range(inst.n_bins):
        members = np.flatnonzero(x[:, i] > _EPS)
        if members.size == 0:
            continue
        # Non-increasing weight order is what bounds the per-slot weight;
        # ties go to the lower item index.
        members = members[np.lexsort((members, -inst.weights[members, i]))]
        items = list(zip(members.tolist(), x[members, i].tolist()))
        total = sum(f for _, f in items)
        n_slots = max(1, math.ceil(total - _EPS))

        current: List[Tuple[int, float]] = []
        current_fill = 0.0
        made = 0
        for j, frac in items:
            remaining = frac
            while remaining > _EPS:
                room = 1.0 - current_fill
                take = min(remaining, room)
                current.append((j, take))
                current_fill += take
                remaining -= take
                if current_fill >= 1.0 - _EPS and made < n_slots - 1:
                    slots.append((i, current))
                    made += 1
                    current = []
                    current_fill = 0.0
        if current:
            slots.append((i, current))
            made += 1
    return slots


def _match_slots(relaxation: LPRelaxationResult) -> List[int]:
    """Each item's bin under a min-cost item–slot matching: the slot
    fractions form a fractional perfect matching, so a minimum-weight
    integral one (networkx bipartite matching on the positive-fraction
    edges) exists; each item goes to the bin owning its matched slot."""
    instance = relaxation.instance
    slots = _build_slots(relaxation)

    graph = nx.Graph()
    item_nodes = [("item", j) for j in range(instance.n_items)]
    graph.add_nodes_from(item_nodes, bipartite=0)
    for s, (bin_i, members) in enumerate(slots):
        slot_node = ("slot", s)
        graph.add_node(slot_node, bipartite=1)
        for j, frac in members:
            if frac > _EPS:
                graph.add_edge(
                    ("item", j), slot_node, weight=float(instance.costs[j, bin_i])
                )

    try:
        matching = nx.bipartite.minimum_weight_full_matching(
            graph, top_nodes=item_nodes, weight="weight"
        )
    except ValueError as exc:  # no full matching — should be impossible
        raise SolverError(f"Shmoys–Tardos matching failed: {exc}") from exc

    assignment: List[int] = []
    for j in range(instance.n_items):
        node = matching.get(("item", j))
        if node is None:
            raise SolverError(f"item {j} left unmatched by the rounding")
        _, slot_idx = node
        assignment.append(slots[slot_idx][0])
    return assignment


def shmoys_tardos(instance: WeightedGAPInstance) -> GAPSolution:
    """Round the GAP LP optimum to an integral assignment.

    Guarantees (Shmoys & Tardos 1993): the rounded cost is at most the LP
    optimum, and each bin's load is at most its capacity plus the largest
    single item weight placed there. An integral relaxation forces the
    matching (each slot holds one whole item) and is read off directly.

    Raises :class:`InfeasibleError` when the LP relaxation is infeasible
    and :class:`SolverError` if the matching step fails.
    """
    relaxation = solve_lp_relaxation(instance)
    x = relaxation.fractions
    if bool(((x == 0.0) | (x == 1.0)).all()):
        # Each slot holds one whole item: the matching is forced.
        assignment = x.argmax(axis=1).tolist()
    else:
        assignment = _match_slots(relaxation)

    return GAPSolution(
        instance=instance,
        assignment=assignment,
        method="shmoys_tardos",
        lower_bound=relaxation.value,
    )


# --------------------------------------------------------------------- #
# The regret greedy on weights and capacities
# --------------------------------------------------------------------- #
def greedy_gap(instance: WeightedGAPInstance) -> GAPSolution:
    """Regret greedy: each round places the unassigned item with the
    largest regret (second-cheapest minus cheapest feasible bin; infinite
    with one feasible bin) at its cheapest feasible bin. ``np.argmin`` /
    ``np.argmax`` return the first extremum, so equal costs resolve to the
    lowest bin and equal regrets to the lowest item. Raises
    :class:`InfeasibleError` when an item has no feasible bin left."""
    costs = instance.costs
    weights = instance.weights
    n = instance.n_items
    remaining = instance.capacities.astype(float).copy()
    finite = np.isfinite(costs)
    assignment = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rows = np.arange(n)

    for _ in range(n):
        feasible = finite & (weights <= remaining[None, :] + CAPACITY_EPS)
        feasible &= active[:, None]
        n_feasible = feasible.sum(axis=1)
        stuck = active & (n_feasible == 0)
        if stuck.any():
            j = int(np.flatnonzero(stuck)[0])
            raise InfeasibleError(f"greedy could not place item {j}")
        masked = np.where(feasible, costs, np.inf)
        cheapest = np.argmin(masked, axis=1)
        cheapest_cost = masked[rows, cheapest]
        masked[rows, cheapest] = np.inf
        second_cost = masked.min(axis=1)
        regret = np.full(n, np.inf)
        multi = n_feasible > 1
        regret[multi] = second_cost[multi] - cheapest_cost[multi]
        regret[~active] = -np.inf
        item = int(np.argmax(regret))
        chosen = int(cheapest[item])
        assignment[item] = chosen
        remaining[chosen] -= weights[item, chosen]
        active[item] = False

    return GAPSolution(
        instance=instance, assignment=assignment.tolist(), method="greedy"
    )


# --------------------------------------------------------------------- #
# Exact branch-and-bound
# --------------------------------------------------------------------- #
_MAX_ITEMS = 20

#: Slack subtracted from the incumbent before pruning a branch: keeps
#: float-accumulation noise from discarding assignments that tie the optimum.
_PRUNE_EPS = 1e-12


def exact_gap(instance: WeightedGAPInstance, max_items: int = _MAX_ITEMS) -> GAPSolution:
    """Optimal GAP assignment by branch-and-bound.

    Items branch in order of decreasing minimum weight (hard items first);
    the bound at each node is the sum of committed costs plus, for every
    free item, its cheapest *capacity-ignoring* cost.

    Raises :class:`ConfigurationError` for instances larger than
    ``max_items`` (the search is exponential) and :class:`InfeasibleError`
    when no complete assignment exists.
    """
    if instance.n_items > max_items:
        raise ConfigurationError(
            f"exact_gap is limited to {max_items} items, got {instance.n_items}"
        )

    n, m = instance.n_items, instance.n_bins
    # Cheapest cost per item ignoring capacity — admissible lower bound.
    min_costs = np.array(
        [
            min(
                (instance.costs[j, i] for i in range(m) if allowed(instance, j, i)),
                default=np.inf,
            )
            for j in range(n)
        ]
    )
    if np.any(np.isinf(min_costs)):
        raise InfeasibleError("some item has no admissible bin")

    # Branch hard items (largest min weight across bins) first.
    order = sorted(
        range(n), key=lambda j: -float(np.min(instance.weights[j, :]))
    )
    suffix_bound = np.zeros(n + 1)
    for pos in range(n - 1, -1, -1):
        suffix_bound[pos] = suffix_bound[pos + 1] + min_costs[order[pos]]

    best_cost = np.inf
    best_assignment: Optional[List[int]] = None
    assignment: List[int] = [-1] * n
    remaining = instance.capacities.astype(float).copy()

    def dfs(pos: int, cost_so_far: float) -> None:
        nonlocal best_cost, best_assignment
        if cost_so_far + suffix_bound[pos] >= best_cost - _PRUNE_EPS:
            return
        if pos == n:
            best_cost = cost_so_far
            best_assignment = assignment.copy()
            return
        j = order[pos]
        bins = sorted(
            (i for i in range(m) if allowed(instance, j, i)),
            key=lambda i: instance.costs[j, i],
        )
        for i in bins:
            w = instance.weights[j, i]
            if w <= remaining[i] + CAPACITY_EPS:
                assignment[j] = i
                remaining[i] -= w
                dfs(pos + 1, cost_so_far + instance.costs[j, i])
                remaining[i] += w
                assignment[j] = -1

    dfs(0, 0.0)
    if best_assignment is None:
        raise InfeasibleError("no feasible complete assignment exists")
    return GAPSolution(
        instance=instance,
        assignment=best_assignment,
        method="exact",
        lower_bound=best_cost,
    )
