"""Tests for the exact GAP branch-and-bound of the general-GAP reference
(``tests/oracles/gap_reference.py``)."""

import itertools

import numpy as np

from repro.utils.rng import as_rng
import pytest

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.gap.instance import GAPSolution

from tests.oracles.gap_reference import (
    WeightedGAPInstance,
    allowed,
    exact_gap,
    is_feasible,
)


def brute_force(inst: WeightedGAPInstance) -> float:
    best = np.inf
    for combo in itertools.product(range(inst.n_bins), repeat=inst.n_items):
        sol = GAPSolution(inst, list(combo))
        ok = all(allowed(inst, j, i) for j, i in enumerate(combo))
        if ok and is_feasible(sol):
            best = min(best, sol.cost)
    return best


class TestExactGAP:
    def test_matches_brute_force(self):
        for seed in range(6):
            rng = as_rng(seed)
            inst = WeightedGAPInstance(
                costs=rng.uniform(1, 10, size=(5, 3)),
                weights=rng.uniform(0.3, 1.0, size=(5, 3)),
                capacities=np.full(3, 1.6),
            )
            try:
                sol = exact_gap(inst)
            except InfeasibleError:
                assert brute_force(inst) == np.inf
                continue
            assert sol.cost == pytest.approx(brute_force(inst))
            assert is_feasible(sol)

    def test_respects_forbidden_pairs(self):
        inst = WeightedGAPInstance(
            costs=np.array([[np.inf, 2.0], [1.0, 5.0]]),
            weights=np.ones((2, 2)),
            capacities=np.array([1.0, 1.0]),
        )
        sol = exact_gap(inst)
        assert sol.assignment == [1, 0]

    def test_infeasible_raises(self):
        inst = WeightedGAPInstance(
            costs=np.ones((3, 1)),
            weights=np.ones((3, 1)),
            capacities=np.array([2.0]),
        )
        with pytest.raises(InfeasibleError):
            exact_gap(inst)

    def test_size_limit(self):
        inst = WeightedGAPInstance(
            costs=np.ones((25, 2)),
            weights=np.ones((25, 2)) * 0.01,
            capacities=np.ones(2),
        )
        with pytest.raises(ConfigurationError):
            exact_gap(inst, max_items=20)

    def test_item_without_bin_raises(self):
        inst = WeightedGAPInstance(
            costs=np.array([[np.inf]]),
            weights=np.ones((1, 1)),
            capacities=np.ones(1),
        )
        with pytest.raises(InfeasibleError):
            exact_gap(inst)
