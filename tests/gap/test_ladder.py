"""Tests for the GAP solver degradation ladder (LP timeout -> greedy)."""

from unittest import mock

import numpy as np
import pytest

from repro.core.appro import appro
from repro.exceptions import InfeasibleError, SolverTimeout
from repro.gap.greedy import greedy_gap
from repro.gap.instance import GAPInstance
from repro.gap.ladder import DegradationEvent, solve_with_degradation
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.rng import as_rng

#: Where the rounding looks the LP up; patching it forces a timeout.
LP_SITE = "repro.gap.shmoys_tardos.solve_lp_relaxation"


def random_instance(seed, n_items=10, n_bins=4, cap=2.0):
    rng = as_rng(seed)
    return GAPInstance(
        costs=rng.uniform(1.0, 10.0, size=(n_items, n_bins)),
        weights=rng.uniform(0.2, 1.0, size=(n_items, n_bins)),
        capacities=np.full(n_bins, cap),
    )


def timing_out(instance, time_limit_s=None):
    raise SolverTimeout(f"forced after {time_limit_s}s")


class TestLadder:
    def test_untimed_solve_is_plain_shmoys_tardos(self):
        inst = random_instance(1)
        solution = solve_with_degradation(inst)
        assert solution.degradation is None
        assert solution.method == "shmoys_tardos"
        assert solution.assignment == shmoys_tardos(inst).assignment

    def test_timed_solve_within_budget_is_not_degraded(self):
        inst = random_instance(2)
        solution = solve_with_degradation(inst, time_limit_s=60.0)
        assert solution.degradation is None
        assert solution.assignment == shmoys_tardos(inst).assignment

    def test_budget_reaches_the_lp(self):
        seen = []

        def recording(instance, time_limit_s=None):
            seen.append(time_limit_s)
            return timing_out(instance, time_limit_s)

        with mock.patch(LP_SITE, recording):
            solve_with_degradation(random_instance(3), time_limit_s=0.5)
        assert seen == [0.5]

    def test_timeout_falls_back_to_greedy(self):
        inst = random_instance(4)
        expected = greedy_gap(inst)
        with mock.patch(LP_SITE, timing_out):
            solution = solve_with_degradation(inst, time_limit_s=0.5)
        assert solution.assignment == expected.assignment
        assert solution.method == "greedy"
        assert solution.degradation == DegradationEvent(
            requested="shmoys_tardos",
            used="greedy",
            reason="timeout",
            detail="forced after 0.5s",
        )

    def test_infeasible_relaxation_is_not_degraded(self):
        # Every item fits a bin on its own, but three unit items cannot
        # share one unit of capacity: the relaxation itself is infeasible.
        inst = GAPInstance(
            costs=np.ones((3, 1)),
            weights=np.ones((3, 1)),
            capacities=np.ones(1),
        )

        def no_greedy(instance):
            raise AssertionError("an infeasible GAP must not be degraded")

        with mock.patch("repro.gap.ladder.greedy_gap", no_greedy):
            with pytest.raises(InfeasibleError):
                solve_with_degradation(inst, time_limit_s=60.0)


class TestApproSurfacesDegradation:
    def test_untimed_appro_reports_no_degradation(self, small_market):
        assert appro(small_market).info["degradation"] is None

    def test_timeout_surfaces_in_info(self, small_market):
        greedy = appro(small_market, gap_solver="greedy")
        with mock.patch(LP_SITE, timing_out):
            result = appro(small_market, lp_time_limit_s=0.5)
        event = result.info["degradation"]
        assert isinstance(event, DegradationEvent)
        assert (event.requested, event.used, event.reason) == (
            "shmoys_tardos",
            "greedy",
            "timeout",
        )
        # The fallback is the greedy GAP on the same instance.
        assert result.placement == greedy.placement
        assert result.rejected == greedy.rejected

    def test_budget_cannot_fire_on_a_unit_slot_market(self):
        # Appro's GAP is a unit-slot instance: the exact assignment solve
        # ignores the LP budget, so even a 1 us budget degrades nothing.
        market = generate_market(random_mec_network(150, rng=1), 60, rng=2)
        untimed = appro(market, allow_remote=True)
        timed = appro(market, allow_remote=True, lp_time_limit_s=1e-6)
        assert timed.info["degradation"] is None
        assert timed.placement == untimed.placement
        assert timed.rejected == untimed.rejected
