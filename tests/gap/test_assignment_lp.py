"""The unit-slot GAP relaxation solved as an assignment problem.

``repro.gap.lp`` solves a unit-slot instance (every item weighs the same in
a bin, integral capacity ratio) with ``linear_sum_assignment`` and refuses
every other instance. The general-GAP reference
(``tests/oracles/gap_reference.py``) sends those to HiGHS. These tests hold
the assignment path to the HiGHS LP and slot-matching rounding it
replaces, and check that each path fires where it should.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from repro.core.appro import appro
from repro.core.lcf import lcf
from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.dynamics.population import PopulationProcess
from repro.exceptions import InfeasibleError, SolverError
from repro.gap import lp
from repro.gap.instance import GAPInstance
from repro.gap.lp import _slot_multiplicities, solve_lp_relaxation
from repro.gap.shmoys_tardos import shmoys_tardos
from repro.market.delta import MarketDelta
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.utils.rng import as_rng

from tests.oracles import gap_reference
from tests.oracles.gap_reference import (
    _build_slots,
    _highs_relaxation,
    _match_slots,
    exact_gap,
)

_EPS = 1e-9


def unit_slot_instance(seed, n_items=12, n_slots=8, remote=True, p_forbid=0.2):
    """Eq. 7-shaped instance: unit slots, ``inf`` entries, a remote bin."""
    rng = as_rng(seed)
    n_bins = n_slots + (1 if remote else 0)
    costs = rng.uniform(1.0, 10.0, size=(n_items, n_bins))
    costs[rng.random((n_items, n_bins)) < p_forbid] = np.inf
    capacities = np.full(n_bins, 2.5)
    if remote:
        costs[:, -1] = rng.uniform(5.0, 15.0, size=n_items)
        capacities[-1] = n_items * 2.5
    weights = np.full((n_items, n_bins), 2.5)
    return GAPInstance(costs=costs, weights=weights, capacities=capacities)


def count_calls(module, target):
    """Patch ``module.<target>`` with a call-counting passthrough."""
    original = getattr(module, target)
    calls = []

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    return mock.patch.object(module, target, counted), calls


def assert_exact_relaxation(instance):
    """The assignment path fires, is 0/1, and matches the HiGHS value."""
    lsa_patch, lsa_calls = count_calls(lp, "linear_sum_assignment")
    with lsa_patch:
        fast = solve_lp_relaxation(instance)
    assert lsa_calls
    reference = _highs_relaxation(instance)
    assert np.all((fast.fractions == 0.0) | (fast.fractions == 1.0))
    assert np.all(fast.fractions.sum(axis=1) == 1.0)
    assert fast.value == pytest.approx(reference.value, rel=1e-9)
    loads = (fast.fractions * instance.weights).sum(axis=0)
    assert np.all(loads <= instance.capacities + _EPS)


class TestSlotMultiplicities:
    def test_unit_slots_and_remote_bin(self):
        inst = unit_slot_instance(1, n_items=5, n_slots=3)
        assert _slot_multiplicities(inst).tolist() == [1, 1, 1, 5]

    def test_zero_weight_bin_holds_every_item(self):
        inst = GAPInstance(
            costs=np.ones((4, 2)),
            weights=np.array([[0.0, 1.0]] * 4),
            capacities=np.array([1.0, 2.0]),
        )
        assert _slot_multiplicities(inst).tolist() == [4, 2]

    def test_near_integral_ratio_rounds(self):
        inst = GAPInstance(
            costs=np.ones((4, 1)),
            weights=np.full((4, 1), 1.0 / 3.0),
            capacities=np.array([1.0]),
        )
        assert _slot_multiplicities(inst).tolist() == [3]

    def test_fractional_ratio_or_varying_column_declines(self):
        half = GAPInstance(
            costs=np.ones((3, 1)), weights=np.ones((3, 1)), capacities=np.array([1.5])
        )
        assert _slot_multiplicities(half) is None
        varying = GAPInstance(
            costs=np.ones((2, 1)),
            weights=np.array([[1.0], [0.5]]),
            capacities=np.array([2.0]),
        )
        assert _slot_multiplicities(varying) is None


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", range(12))
    def test_unit_slot_instances(self, seed):
        assert_exact_relaxation(unit_slot_instance(seed, n_items=6 + seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_slot_without_remote_bin(self, seed):
        inst = unit_slot_instance(seed, n_items=6, n_slots=9, remote=False, p_forbid=0.1)
        assert_exact_relaxation(inst)

    @pytest.mark.parametrize("ratio", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_capacity_ratios(self, ratio, seed):
        rng = as_rng(50 + seed)
        n_items, n_bins = 10, 6
        weights = np.tile(rng.uniform(0.5, 2.0, size=n_bins), (n_items, 1))
        inst = GAPInstance(
            costs=rng.uniform(1.0, 10.0, size=(n_items, n_bins)),
            weights=weights,
            capacities=ratio * weights[0],
        )
        assert _slot_multiplicities(inst).tolist() == [ratio] * n_bins
        assert_exact_relaxation(inst)

    def test_too_few_slots_raise_like_highs(self):
        inst = unit_slot_instance(3, n_items=9, n_slots=8, remote=False, p_forbid=0.0)
        with pytest.raises(InfeasibleError):
            _highs_relaxation(inst)
        with pytest.raises(InfeasibleError):
            solve_lp_relaxation(inst)

    def test_forbidden_pairs_that_block_a_matching_raise(self):
        # Two items that only admit bin 0, which has one slot.
        costs = np.array([[1.0, np.inf], [2.0, np.inf], [3.0, 1.0]])
        inst = GAPInstance(costs=costs, weights=np.ones((3, 2)), capacities=np.ones(2))
        with pytest.raises(InfeasibleError):
            _highs_relaxation(inst)
        with pytest.raises(InfeasibleError):
            solve_lp_relaxation(inst)


# --------------------------------------------------------------------- #
# Paper-scale markets: the placement Appro ships is unchanged.
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def paper_market(size, seed, latency_budget_ms=None):
    return generate_market(
        random_mec_network(size, rng=seed),
        60,
        rng=seed + 1,
        latency_budget_ms=latency_budget_ms,
    )


def highs_rounding(instance):
    """The HiGHS LP followed by the full slot-matching rounding."""
    return _match_slots(_highs_relaxation(instance))


@pytest.mark.parametrize("size", [50, 100, 150, 200, 250])
def test_paper_markets_place_as_highs_rounding(size):
    compared = 0
    for seed in range(1, 6):
        market = paper_market(size, seed)
        for pricing in ("marginal", "flat"):
            for allow_remote in (True, False):
                split = VirtualCloudletSplit(
                    market, allow_remote=allow_remote, slot_pricing=pricing
                )
                instance = split.build_gap_instance()
                try:
                    expected = highs_rounding(instance)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        shmoys_tardos(instance)
                    continue
                solution = shmoys_tardos(instance)
                assert split.merge_assignment(solution.assignment) == (
                    split.merge_assignment(expected)
                )
                compared += 1
    assert compared > 0


# --------------------------------------------------------------------- #
# Each path fires where it should.
# --------------------------------------------------------------------- #
class TestPathGuards:
    def fractional_reaches_highs(self, inst):
        lp_patch, lp_calls = count_calls(gap_reference, "linprog")
        lsa_patch, lsa_calls = count_calls(lp, "linear_sum_assignment")
        with lp_patch, lsa_patch:
            result = gap_reference.solve_lp_relaxation(inst)
        assert lp_calls and not lsa_calls
        return result

    def test_non_uniform_columns_reach_highs(self):
        rng = as_rng(7)
        inst = GAPInstance(
            costs=rng.uniform(1.0, 10.0, size=(6, 3)),
            weights=rng.uniform(0.2, 1.0, size=(6, 3)),
            capacities=np.full(3, 2.0),
        )
        result = self.fractional_reaches_highs(inst)
        assert result.value <= exact_gap(inst).cost + 1e-8

    def test_fractional_capacity_ratio_reaches_highs(self):
        # Three unit items, bins of capacity 1.5: the LP pours 1.5 units
        # into the cheap bin, which no integral assignment can.
        costs = np.array([[1.0, 10.0, 10.0]] * 3)
        inst = GAPInstance(
            costs=costs, weights=np.ones((3, 3)), capacities=np.full(3, 1.5)
        )
        result = self.fractional_reaches_highs(inst)
        assert result.value < exact_gap(inst).cost - 1.0

    def test_highs_iteration_limit_raises_solver_error(self):
        # HiGHS stopping short (status 1) is a solver failure, not a result.
        costs = np.array([[1.0, 10.0, 10.0]] * 3)
        inst = GAPInstance(
            costs=costs, weights=np.ones((3, 3)), capacities=np.full(3, 1.5)
        )
        stopped = OptimizeResult(
            status=1, success=False, message="Iteration limit reached."
        )
        with mock.patch.object(gap_reference, "linprog", return_value=stopped):
            with pytest.raises(SolverError, match="Iteration limit"):
                gap_reference.solve_lp_relaxation(inst)

    def guarded_solves(self, market, solve):
        """Run ``solve(market, slot_pricing=, allow_remote=)`` on every
        option pair; each run must take the assignment path exactly once
        and never reach HiGHS, which the library's LP module does not
        import. Returns the number of feasible runs."""
        assert not hasattr(lp, "linprog")
        solved = 0
        for pricing in ("flat", "marginal"):
            for allow_remote in (False, True):
                relax_patch, relax_calls = count_calls(lp, "_assignment_relaxation")
                lsa_patch, lsa_calls = count_calls(lp, "linear_sum_assignment")
                with relax_patch, lsa_patch:
                    try:
                        solve(market, slot_pricing=pricing, allow_remote=allow_remote)
                    except InfeasibleError:
                        # Too few slots, or a provider with no cloudlet in
                        # budget: raised by the assignment path itself. The
                        # remote bin always admits everyone.
                        assert not allow_remote
                    else:
                        assert len(lsa_calls) == 1
                        solved += 1
                assert len(relax_calls) == 1
        return solved

    @staticmethod
    def guard_markets():
        """Paper markets at 50/150/250 nodes, seeds 1-3, with no latency
        budget and with a 3 ms one: 18 markets."""
        for size in (50, 150, 250):
            for seed in (1, 2, 3):
                for budget in (None, 3.0):
                    yield paper_market(size, seed, latency_budget_ms=budget)

    def test_appro_on_paper_market_uses_the_assignment(self):
        # The invariant that makes a solve-time budget pointless: on every
        # paper market and option, Appro's GAP is a unit-slot instance
        # solved by one assignment.
        solved = sum(self.guarded_solves(m, appro) for m in self.guard_markets())
        assert solved >= 18 * 2  # every allow_remote run at least

    def test_lcf_on_paper_markets_uses_the_assignment(self):
        def leader(market, **options):
            return lcf(market, xi=0.7, **options)

        solved = sum(self.guarded_solves(m, leader) for m in self.guard_markets())
        assert solved >= 18 * 2

    def test_appro_on_a_delta_patched_market_uses_the_assignment(self):
        network = random_mec_network(150, rng=4)
        population = PopulationProcess(
            network, arrival_rate=8.0, mean_lifetime=4.0, rng=5,
            initial_population=60,
        )
        market = ServiceMarket(network, population.present, pricing=Pricing())
        cm = market.compile()
        churn = 0
        for _ in range(3):
            event = population.step()
            churn += event.churn
            by_id = {p.provider_id: p for p in population.present}
            market.apply(
                MarketDelta(
                    arrivals=tuple(by_id[pid] for pid in event.arrived),
                    departures=event.departed,
                )
            )
            assert market.compile() is cm  # patched in place, not rebuilt
            assert self.guarded_solves(market, appro) >= 2
        assert churn > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_integral_relaxation_skips_an_equal_matching(self, seed):
        # The reference reads an integral relaxation off without matching;
        # the library always reads it off. Both equal the full matching.
        inst = unit_slot_instance(seed)
        relaxation = solve_lp_relaxation(inst)
        with mock.patch.object(gap_reference, "_match_slots") as matching:
            reference = gap_reference.shmoys_tardos(inst)
        matching.assert_not_called()
        solution = shmoys_tardos(inst)
        assert solution.assignment == reference.assignment
        assert solution.assignment == _match_slots(relaxation)
        assert solution.lower_bound == relaxation.value


# --------------------------------------------------------------------- #
# The reference's vectorised slot builder against the per-item loop it
# replaced.
# --------------------------------------------------------------------- #
def reference_build_slots(relaxation):
    inst = relaxation.instance
    x = relaxation.fractions
    slots = []
    for i in range(inst.n_bins):
        items = [(j, x[j, i]) for j in range(inst.n_items) if x[j, i] > _EPS]
        if not items:
            continue
        items.sort(key=lambda t: (-inst.weights[t[0], i], t[0]))
        total = sum(f for _, f in items)
        n_slots = max(1, int(np.ceil(total - _EPS)))
        current, current_fill, made = [], 0.0, 0
        for j, frac in items:
            remaining = frac
            while remaining > _EPS:
                take = min(remaining, 1.0 - current_fill)
                current.append((j, take))
                current_fill += take
                remaining -= take
                if current_fill >= 1.0 - _EPS and made < n_slots - 1:
                    slots.append((i, current))
                    made += 1
                    current, current_fill = [], 0.0
        if current:
            slots.append((i, current))
    return slots


@pytest.mark.parametrize("seed", range(10))
def test_build_slots_matches_the_item_loop(seed):
    rng = as_rng(300 + seed)
    n_items, n_bins = 15, 5
    # Few distinct weights, so the (-weight, item) tie-break is exercised.
    weights = rng.choice([0.3, 0.6, 0.9], size=(n_items, n_bins))
    inst = GAPInstance(
        costs=rng.uniform(1.0, 10.0, size=(n_items, n_bins)),
        weights=weights,
        capacities=np.full(n_bins, 2.0),
    )
    relaxation = gap_reference.solve_lp_relaxation(inst)
    assert not np.all((relaxation.fractions == 0.0) | (relaxation.fractions == 1.0))
    assert _build_slots(relaxation) == reference_build_slots(relaxation)
