"""The Shmoys–Tardos rounding for min-cost GAP [34].

Pipeline:

1. solve the LP relaxation (:mod:`repro.gap.lp`);
2. for each bin ``i``, create ``ceil(sum_j x[j, i])`` *slots*; sort the items
   fractionally assigned to ``i`` by non-increasing weight ``w[j, i]`` and
   pour their fractions into the slots in order, splitting an item across
   two consecutive slots when a slot fills up;
3. the fractions now form a fractional perfect matching between items and
   slots; extract a minimum-weight integral matching (networkx bipartite
   matching on the positive-fraction edges);
4. each item is assigned to the bin owning its matched slot.

Guarantees (Shmoys & Tardos 1993): the rounded cost is at most the LP
optimum (hence at most the integral optimum), and each bin's load is at most
its capacity plus the largest single item weight placed there. When every
item fits in a bin on its own — exactly the situation in the paper's
virtual-cloudlet reduction, where slot capacity is ``max(a_max, b_max)`` —
the load is below twice the capacity: the "2-approximation" the paper cites.

On the paper's own instances the rounding has nothing to round: the
virtual-cloudlet reduction is a unit-slot instance, which
:mod:`repro.gap.lp` solves exactly as an assignment problem, and a 0/1
relaxation forces the slot matching (every slot holds one whole item). An
integral relaxation is therefore read off directly; the slot matching
serves every fractional one.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import SolverError
from repro.gap.instance import GAPInstance, GAPSolution
from repro.gap.lp import LPRelaxationResult, solve_lp_relaxation

_EPS = 1e-9


def _build_slots(
    relaxation: LPRelaxationResult,
) -> List[Tuple[int, List[Tuple[int, float]]]]:
    """Split each bin's fractional load into unit slots.

    Returns a list of slots; each slot is ``(bin_index, [(item, fraction)])``
    with the slot's fractions summing to at most 1.
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
    """Steps 2–4: each item's bin under a min-cost item–slot matching."""
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


def shmoys_tardos(instance: GAPInstance) -> GAPSolution:
    """Round the GAP LP optimum to an integral assignment (see module doc).

    Raises :class:`repro.exceptions.InfeasibleError` when the LP relaxation
    is infeasible and :class:`SolverError` if the matching step fails (which
    would indicate a bug — the fractional matching guarantees existence).
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


__all__ = ["shmoys_tardos"]
