"""GAP instance and solution types, in slot form.

A min-cost GAP instance (Section III.A of the paper, after [34]): ``n``
items and ``m`` bins; assigning item ``j`` to bin ``i`` costs ``c[j, i]``;
every item must be assigned; total cost is minimised. The Eq. (7)
reduction limits each virtual cloudlet to a single service instance
(Section III.B), so every instance the library builds is *unit-slot*: bin
``i`` holds at most ``k_i`` items, whatever they are. The instance stores
that slot count per bin instead of a weight matrix and capacities; the
weighted general GAP is a test oracle (``tests/oracles/gap_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError


class GAPInstance:
    """A minimisation GAP instance with a slot count per bin.

    Parameters
    ----------
    costs:
        ``(n_items, n_bins)`` array; ``costs[j, i]`` is the assignment cost.
        ``numpy.inf`` marks a forbidden (item, bin) pair.
    slots:
        ``(n_bins,)`` array of non-negative integers: bin ``i`` holds at
        most ``slots[i]`` items.
    """

    def __init__(self, costs: np.ndarray, slots: np.ndarray) -> None:
        costs = np.asarray(costs, dtype=float)
        slots = np.asarray(slots)

        if costs.ndim != 2:
            raise ConfigurationError(f"costs must be 2-D, got shape {costs.shape}")
        if slots.ndim != 1 or slots.shape[0] != costs.shape[1]:
            raise ConfigurationError(
                f"slots must have one entry per bin ({costs.shape[1]}), "
                f"got shape {slots.shape}"
            )
        if costs.shape[0] == 0 or costs.shape[1] == 0:  # reprolint: ok[R2] array shapes are exact ints
            raise ConfigurationError("instance needs at least one item and one bin")
        if slots.dtype.kind not in "iu" or np.any(slots < 0):
            raise ConfigurationError("slots must be non-negative integers")
        if np.any(np.isnan(costs)):
            raise ConfigurationError("costs must not contain NaN")

        self.costs = costs
        self.slots = slots.astype(np.int64)

    @property
    def n_items(self) -> int:
        return self.costs.shape[0]

    @property
    def n_bins(self) -> int:
        return self.costs.shape[1]

    def allowed_mask(self) -> np.ndarray:
        """Which (item, bin) pairs are assignable — finite cost and a bin
        with at least one slot — as one ``(n_items, n_bins)`` boolean
        table."""
        return np.isfinite(self.costs) & (self.slots > 0)

    def __repr__(self) -> str:
        return f"GAPInstance(items={self.n_items}, bins={self.n_bins})"


@dataclass
class GAPSolution:
    """An integral assignment: ``assignment[j]`` is item ``j``'s bin."""

    instance: GAPInstance
    assignment: List[int]
    #: Informational: name of the algorithm that produced the solution.
    method: str = ""
    #: Optimal LP value when the method solved a relaxation (lower bound).
    lower_bound: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.assignment) != self.instance.n_items:
            raise ConfigurationError(
                f"assignment covers {len(self.assignment)} items, "
                f"instance has {self.instance.n_items}"
            )
        for j, i in enumerate(self.assignment):
            if not 0 <= i < self.instance.n_bins:
                raise ConfigurationError(f"item {j} assigned to unknown bin {i}")

    @property
    def cost(self) -> float:
        """Total assignment cost."""
        return float(
            sum(self.instance.costs[j, i] for j, i in enumerate(self.assignment))
        )


__all__ = ["GAPInstance", "GAPSolution"]
