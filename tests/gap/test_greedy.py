"""Tests for the greedy GAP heuristic on slot-form instances."""

import numpy as np

from repro.utils.rng import as_rng
import pytest

from repro.exceptions import InfeasibleError
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance


def assert_within_slots(inst, sol):
    counts = np.bincount(sol.assignment, minlength=inst.n_bins)
    assert np.all(counts <= inst.slots)


class TestGreedyGAP:
    def test_assigns_all_items(self):
        rng = as_rng(1)
        inst = GAPInstance(
            costs=rng.uniform(1, 10, size=(6, 3)),
            slots=np.array([2, 1, 3]),
        )
        sol = greedy_gap(inst)
        assert len(sol.assignment) == 6
        assert_within_slots(inst, sol)
        assert sol.method == "greedy"

    def test_respects_capacities_strictly(self):
        inst = GAPInstance(
            costs=np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]),
            slots=np.array([2, 2]),
        )
        sol = greedy_gap(inst)
        assert_within_slots(inst, sol)
        assert sorted(sol.assignment) == [0, 0, 1]

    def test_picks_cheapest_when_unconstrained(self):
        inst = GAPInstance(
            costs=np.array([[5.0, 1.0], [1.0, 5.0]]),
            slots=np.array([10, 10]),
        )
        sol = greedy_gap(inst)
        assert sol.assignment == [1, 0]

    def test_regret_prioritises_constrained_items(self):
        # Item 1 only fits bin 0; greedy must not give bin 0's slot away.
        inst = GAPInstance(
            costs=np.array([[1.0, 1.1], [1.0, np.inf]]),
            slots=np.array([1, 1]),
        )
        sol = greedy_gap(inst)
        assert sol.assignment[1] == 0
        assert sol.assignment[0] == 1
        assert_within_slots(inst, sol)

    def test_infeasible_raises(self):
        inst = GAPInstance(costs=np.ones((2, 1)), slots=np.array([1]))
        with pytest.raises(InfeasibleError, match="greedy could not place item"):
            greedy_gap(inst)
