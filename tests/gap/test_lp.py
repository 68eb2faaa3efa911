"""Tests for the general-GAP LP relaxation of the reference
(``tests/oracles/gap_reference.py``)."""

import numpy as np

from repro.utils.rng import as_rng
import pytest

from repro.exceptions import InfeasibleError

from tests.oracles.gap_reference import (
    WeightedGAPInstance,
    exact_gap,
    solve_lp_relaxation,
    support,
)


class TestLPRelaxation:
    def test_rows_sum_to_one(self):
        inst = WeightedGAPInstance(
            costs=np.array([[1.0, 2.0], [2.0, 1.0]]),
            weights=np.ones((2, 2)),
            capacities=np.array([2.0, 2.0]),
        )
        result = solve_lp_relaxation(inst)
        assert np.allclose(result.fractions.sum(axis=1), 1.0)

    def test_capacities_respected(self):
        inst = WeightedGAPInstance(
            costs=np.array([[1.0, 5.0], [1.0, 5.0], [1.0, 5.0]]),
            weights=np.ones((3, 2)),
            capacities=np.array([2.0, 2.0]),
        )
        result = solve_lp_relaxation(inst)
        loads = (result.fractions * inst.weights).sum(axis=0)
        assert np.all(loads <= inst.capacities + 1e-8)

    def test_value_is_lower_bound_of_any_integral_solution(self):
        rng = as_rng(1)
        inst = WeightedGAPInstance(
            costs=rng.uniform(1, 10, size=(4, 3)),
            weights=rng.uniform(0.2, 1.0, size=(4, 3)),
            capacities=np.full(3, 2.0),
        )
        result = solve_lp_relaxation(inst)
        optimum = exact_gap(inst)
        assert result.value <= optimum.cost + 1e-8

    def test_unconstrained_lp_picks_cheapest_bins(self):
        inst = WeightedGAPInstance(
            costs=np.array([[1.0, 3.0], [4.0, 2.0]]),
            weights=np.full((2, 2), 0.1),
            capacities=np.array([10.0, 10.0]),
        )
        result = solve_lp_relaxation(inst)
        assert result.value == pytest.approx(3.0)
        assert result.fractions[0, 0] == pytest.approx(1.0)
        assert result.fractions[1, 1] == pytest.approx(1.0)

    def test_infeasible_capacity_raises(self):
        inst = WeightedGAPInstance(
            costs=np.ones((3, 1)),
            weights=np.ones((3, 1)),
            capacities=np.array([2.0]),
        )
        with pytest.raises(InfeasibleError):
            solve_lp_relaxation(inst)

    def test_item_without_bin_raises(self):
        inst = WeightedGAPInstance(
            costs=np.array([[np.inf]]),
            weights=np.ones((1, 1)),
            capacities=np.ones(1),
        )
        with pytest.raises(InfeasibleError):
            solve_lp_relaxation(inst)

    def test_support_lists_positive_bins(self):
        inst = WeightedGAPInstance(
            costs=np.array([[1.0, 1.0]]),
            weights=np.ones((1, 2)),
            capacities=np.ones(2),
        )
        result = solve_lp_relaxation(inst)
        support_ = support(result, 0)
        assert support_ and all(b in (0, 1) for b in support_)

    def test_forbidden_pairs_get_zero_fraction(self):
        inst = WeightedGAPInstance(
            costs=np.array([[np.inf, 1.0], [1.0, 1.0]]),
            weights=np.ones((2, 2)),
            capacities=np.array([2.0, 2.0]),
        )
        result = solve_lp_relaxation(inst)
        assert result.fractions[0, 0] == 0.0
