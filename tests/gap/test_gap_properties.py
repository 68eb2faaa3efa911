"""Property-based tests (hypothesis) for the GAP solver suite: the library's
greedy and the general-GAP reference (``tests/oracles/gap_reference.py``)."""

import numpy as np

from repro.utils.rng import as_rng
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleError
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance

from tests.oracles.gap_reference import (
    exact_gap,
    is_feasible,
    max_load_ratio,
    shmoys_tardos,
    solve_lp_relaxation,
)


@st.composite
def gap_instances(draw, max_items=7, max_bins=4):
    """Random feasibility-friendly GAP instances (weights fit in one bin)."""
    n_items = draw(st.integers(1, max_items))
    n_bins = draw(st.integers(1, max_bins))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = as_rng(seed)
    cap = float(draw(st.floats(1.0, 4.0)))
    costs = rng.uniform(0.5, 10.0, size=(n_items, n_bins))
    weights = rng.uniform(0.1, cap, size=(n_items, n_bins))
    capacities = np.full(n_bins, cap)
    return GAPInstance(costs, weights, capacities)


COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSTProperties:
    @given(inst=gap_instances())
    @settings(**COMMON)
    def test_st_cost_below_lp_and_load_below_double(self, inst):
        try:
            sol = shmoys_tardos(inst)
        except InfeasibleError:
            return
        lp = solve_lp_relaxation(inst)
        assert sol.cost <= lp.value + 1e-6
        # every item fits a bin alone, so the ST load bound gives <= 2x cap.
        assert max_load_ratio(sol) <= 2.0 + 1e-9
        assert len(sol.assignment) == inst.n_items

    @given(inst=gap_instances(max_items=6, max_bins=3))
    @settings(**COMMON)
    def test_lp_lower_bounds_exact_and_st_upper_bounded_by_lp(self, inst):
        # The LP lower-bounds the strict integral optimum; the ST rounding
        # is upper-bounded by the LP (it may even undercut it, because its
        # slot relaxation can exceed bin capacities by one item).
        try:
            sol = shmoys_tardos(inst)
            opt = exact_gap(inst)
        except InfeasibleError:
            return
        lp = solve_lp_relaxation(inst)
        assert lp.value <= opt.cost + 1e-6
        assert sol.cost <= lp.value + 1e-6


class TestGreedyProperties:
    @given(inst=gap_instances())
    @settings(**COMMON)
    def test_greedy_solutions_are_strictly_feasible(self, inst):
        try:
            sol = greedy_gap(inst)
        except InfeasibleError:
            return
        assert is_feasible(sol)
        assert len(sol.assignment) == inst.n_items

    @given(inst=gap_instances(max_items=6, max_bins=3))
    @settings(**COMMON)
    def test_greedy_never_beats_exact(self, inst):
        try:
            greedy = greedy_gap(inst)
            opt = exact_gap(inst)
        except InfeasibleError:
            return
        assert greedy.cost >= opt.cost - 1e-9


class TestExactProperties:
    @given(inst=gap_instances(max_items=5, max_bins=3))
    @settings(**COMMON)
    def test_exact_is_feasible_and_bounded_by_lp(self, inst):
        try:
            opt = exact_gap(inst)
        except InfeasibleError:
            return
        assert is_feasible(opt)
        lp = solve_lp_relaxation(inst)
        assert opt.cost >= lp.value - 1e-6
