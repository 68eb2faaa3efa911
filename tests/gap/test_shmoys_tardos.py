"""Tests for the Shmoys–Tardos GAP rounding of the general-GAP reference
(``tests/oracles/gap_reference.py``)."""

import numpy as np

from repro.utils.rng import as_rng
import pytest

from repro.exceptions import InfeasibleError
from repro.gap.instance import GAPInstance

from tests.oracles.gap_reference import (
    bin_loads,
    exact_gap,
    is_feasible,
    items_in_bin,
    max_load_ratio,
    shmoys_tardos,
    solve_lp_relaxation,
)


def random_instance(rng, n_items, n_bins, cap=2.0):
    return GAPInstance(
        costs=rng.uniform(1.0, 10.0, size=(n_items, n_bins)),
        weights=rng.uniform(0.2, min(1.0, cap), size=(n_items, n_bins)),
        capacities=np.full(n_bins, cap),
    )


class TestShmoysTardos:
    def test_assigns_every_item(self):
        rng = as_rng(1)
        inst = random_instance(rng, 8, 3)
        sol = shmoys_tardos(inst)
        assert len(sol.assignment) == 8
        assert sol.method == "shmoys_tardos"

    def test_cost_at_most_lp_value(self):
        # The ST guarantee: rounded cost <= LP optimum.
        for seed in range(8):
            rng = as_rng(seed)
            inst = random_instance(rng, 10, 4)
            sol = shmoys_tardos(inst)
            lp = solve_lp_relaxation(inst)
            assert sol.cost <= lp.value + 1e-6
            assert sol.lower_bound == pytest.approx(lp.value)

    def test_cost_at_most_integral_optimum(self):
        for seed in range(5):
            rng = as_rng(100 + seed)
            inst = random_instance(rng, 8, 3)
            sol = shmoys_tardos(inst)
            opt = exact_gap(inst)
            assert sol.cost <= opt.cost + 1e-6

    def test_load_below_capacity_plus_max_weight(self):
        # The ST capacity guarantee (the "2" of the paper's ratio).
        for seed in range(8):
            rng = as_rng(200 + seed)
            inst = random_instance(rng, 12, 4)
            sol = shmoys_tardos(inst)
            loads = bin_loads(sol)
            for i in range(inst.n_bins):
                items = items_in_bin(sol, i)
                if not items:
                    continue
                max_w = max(inst.weights[j, i] for j in items)
                assert loads[i] <= inst.capacities[i] + max_w + 1e-9
            assert max_load_ratio(sol) <= 2.0 + 1e-9

    def test_unit_weight_instance_is_exactly_feasible(self):
        # weight == capacity => one item per bin slot, no 2x violation.
        rng = as_rng(3)
        inst = GAPInstance(
            costs=rng.uniform(1, 5, size=(4, 6)),
            weights=np.ones((4, 6)),
            capacities=np.ones(6),
        )
        sol = shmoys_tardos(inst)
        assert is_feasible(sol)
        assert max(np.bincount(sol.assignment, minlength=6)) == 1

    def test_unit_weight_matches_exact_optimum(self):
        # With one item per slot the reduction is an assignment problem,
        # which ST solves exactly.
        rng = as_rng(4)
        inst = GAPInstance(
            costs=rng.uniform(1, 9, size=(5, 7)),
            weights=np.ones((5, 7)),
            capacities=np.ones(7),
        )
        sol = shmoys_tardos(inst)
        opt = exact_gap(inst)
        assert sol.cost == pytest.approx(opt.cost)

    def test_infeasible_raises(self):
        inst = GAPInstance(
            costs=np.ones((3, 1)),
            weights=np.ones((3, 1)),
            capacities=np.array([1.5]),
        )
        with pytest.raises(InfeasibleError):
            shmoys_tardos(inst)

    def test_single_item(self):
        inst = GAPInstance(
            costs=np.array([[3.0, 1.0]]),
            weights=np.array([[1.0, 1.0]]),
            capacities=np.array([1.0, 1.0]),
        )
        sol = shmoys_tardos(inst)
        assert sol.assignment == [1]
        assert sol.cost == pytest.approx(1.0)

    def test_deterministic(self):
        rng = as_rng(5)
        inst = random_instance(rng, 9, 3)
        assert shmoys_tardos(inst).assignment == shmoys_tardos(inst).assignment
