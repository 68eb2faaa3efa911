"""Tests for repro.gap.instance (slot form) and the reference's weighted
instance (``tests/oracles/gap_reference.py``)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.instance import GAPInstance, GAPSolution

from tests.oracles.gap_reference import (
    WeightedGAPInstance,
    allowed,
    allowed_bins,
    bin_loads,
    is_feasible,
    items_in_bin,
    max_load_ratio,
    trivially_infeasible,
    weighted_view,
)


def small_instance() -> WeightedGAPInstance:
    costs = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]])
    weights = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    capacities = np.array([2.0, 2.0])
    return WeightedGAPInstance(costs, weights, capacities)


class TestGAPInstance:
    def test_shape_accessors(self):
        inst = GAPInstance(np.ones((3, 2)), np.array([2, 2]))
        assert inst.n_items == 3
        assert inst.n_bins == 2
        assert inst.slots.dtype == np.int64
        weighted = small_instance()
        assert (weighted.n_items, weighted.n_bins) == (3, 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            GAPInstance(np.zeros((2, 2)), np.ones(3, dtype=int))
        with pytest.raises(ConfigurationError):
            WeightedGAPInstance(np.zeros((2, 2)), np.zeros((2, 3)), np.ones(2))

    def test_capacity_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            GAPInstance(np.zeros((2, 2)), np.ones((2, 1), dtype=int))
        with pytest.raises(ConfigurationError):
            WeightedGAPInstance(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(3))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            GAPInstance(np.zeros((0, 2)), np.ones(2, dtype=int))
        with pytest.raises(ConfigurationError):
            WeightedGAPInstance(np.zeros((0, 2)), np.zeros((0, 2)), np.ones(2))

    def test_negative_weight_rejected(self):
        # The slot form's counterpart: a negative or fractional slot count.
        for slots in (np.array([-1]), np.array([1.5]), np.array([1.0])):
            with pytest.raises(ConfigurationError):
                GAPInstance(np.zeros((1, 1)), slots)
        with pytest.raises(ConfigurationError):
            WeightedGAPInstance(np.zeros((1, 1)), np.array([[-1.0]]), np.ones(1))

    def test_nan_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            GAPInstance(np.array([[np.nan]]), np.ones(1, dtype=int))
        with pytest.raises(ConfigurationError):
            WeightedGAPInstance(np.array([[np.nan]]), np.zeros((1, 1)), np.ones(1))

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            WeightedGAPInstance(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1))
        # A bin without slots is allowed in the slot form; it admits no item.
        inst = GAPInstance(np.zeros((1, 2)), np.array([0, 1]))
        assert inst.allowed_mask().tolist() == [[False, True]]

    def test_allowed_respects_inf_cost_and_weight(self):
        costs = np.array([[np.inf, 1.0]])
        weights = np.array([[0.5, 5.0]])
        inst = WeightedGAPInstance(costs, weights, np.array([1.0, 1.0]))
        assert not allowed(inst, 0, 0)  # inf cost
        assert not allowed(inst, 0, 1)  # weight over capacity
        assert allowed_bins(inst, 0) == []
        assert trivially_infeasible(inst)
        assert not inst.allowed_mask().any()
        # The slot form: inf cost, and a bin with no slot.
        slotted = GAPInstance(costs, np.array([1, 0]))
        assert not slotted.allowed_mask().any()
        with pytest.raises(InfeasibleError):
            weighted_view(GAPInstance(costs, np.array([0, 0])))

    def test_1d_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            GAPInstance(np.zeros(3), np.ones(1, dtype=int))
        with pytest.raises(ConfigurationError):
            WeightedGAPInstance(np.zeros(3), np.zeros(3), np.ones(1))


class TestGAPSolution:
    def test_cost_and_loads(self):
        inst = small_instance()
        sol = GAPSolution(inst, [0, 1, 0])
        assert sol.cost == pytest.approx(1.0 + 1.0 + 2.0)
        assert bin_loads(sol).tolist() == [2.0, 1.0]
        assert is_feasible(sol)
        assert items_in_bin(sol, 0) == [0, 2]
        slotted = GAPSolution(GAPInstance(inst.costs, np.array([2, 2])), [0, 1, 0])
        assert slotted.cost == sol.cost

    def test_infeasible_load_detected(self):
        inst = small_instance()
        sol = GAPSolution(inst, [0, 0, 0])
        assert not is_feasible(sol)
        assert max_load_ratio(sol) == pytest.approx(1.5)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            GAPSolution(small_instance(), [0, 1])
        with pytest.raises(ConfigurationError):
            GAPSolution(GAPInstance(np.ones((3, 2)), np.array([2, 2])), [0, 1])

    def test_unknown_bin_rejected(self):
        with pytest.raises(ConfigurationError):
            GAPSolution(small_instance(), [0, 1, 5])
        with pytest.raises(ConfigurationError):
            GAPSolution(GAPInstance(np.ones((3, 2)), np.array([2, 2])), [0, 1, 5])


def test_weighted_view_keeps_the_bins_with_slots():
    costs = np.array([[1.0, 2.0, 3.0], [4.0, np.inf, 6.0]])
    weighted, bins = weighted_view(GAPInstance(costs, np.array([2, 0, 1])))
    assert bins.tolist() == [0, 2]
    np.testing.assert_array_equal(weighted.costs, costs[:, [0, 2]])
    np.testing.assert_array_equal(weighted.weights, np.ones((2, 2)))
    assert weighted.capacities.tolist() == [2.0, 1.0]
