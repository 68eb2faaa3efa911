"""Tests for the greedy GAP heuristic."""

import numpy as np

from repro.utils.rng import as_rng
import pytest

from repro.exceptions import InfeasibleError
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance

from tests.oracles.gap_reference import bin_loads, is_feasible


class TestGreedyGAP:
    def test_assigns_all_items(self):
        rng = as_rng(1)
        inst = GAPInstance(
            costs=rng.uniform(1, 10, size=(6, 3)),
            weights=rng.uniform(0.2, 1.0, size=(6, 3)),
            capacities=np.full(3, 3.0),
        )
        sol = greedy_gap(inst)
        assert len(sol.assignment) == 6
        assert is_feasible(sol)
        assert sol.method == "greedy"

    def test_respects_capacities_strictly(self):
        inst = GAPInstance(
            costs=np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]),
            weights=np.ones((3, 2)),
            capacities=np.array([2.0, 2.0]),
        )
        sol = greedy_gap(inst)
        assert is_feasible(sol)
        loads = bin_loads(sol)
        assert loads[0] <= 2.0 and loads[1] <= 2.0

    def test_picks_cheapest_when_unconstrained(self):
        inst = GAPInstance(
            costs=np.array([[5.0, 1.0], [1.0, 5.0]]),
            weights=np.full((2, 2), 0.1),
            capacities=np.full(2, 10.0),
        )
        sol = greedy_gap(inst)
        assert sol.assignment == [1, 0]

    def test_regret_prioritises_constrained_items(self):
        # Item 1 only fits bin 0; greedy must not give bin 0's capacity away.
        inst = GAPInstance(
            costs=np.array([[1.0, 1.1], [1.0, np.inf]]),
            weights=np.array([[1.0, 1.0], [1.0, 5.0]]),
            capacities=np.array([1.0, 1.0]),
        )
        sol = greedy_gap(inst)
        assert sol.assignment[1] == 0
        assert sol.assignment[0] == 1
        assert is_feasible(sol)

    def test_infeasible_raises(self):
        inst = GAPInstance(
            costs=np.ones((2, 1)),
            weights=np.ones((2, 1)),
            capacities=np.array([1.0]),
        )
        with pytest.raises(InfeasibleError):
            greedy_gap(inst)
