"""Tests for Algorithm 1 (Appro)."""

import re

import pytest

from repro.core.appro import appro
from repro.core.lcf import lcf
from repro.core.optimal import optimal_caching
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing

from tests.conftest import build_line_network, build_provider


def make_market(n_providers=4, compute=10.0, bandwidth=500.0):
    net = build_line_network(compute=compute, bandwidth=bandwidth)
    providers = [build_provider(i) for i in range(n_providers)]
    return ServiceMarket(net, providers, pricing=Pricing())


class TestFeasibility:
    def test_places_every_provider(self, small_market):
        result = appro(small_market)
        assert len(result.placement) + len(result.rejected) == small_market.num_providers

    def test_lemma1_capacities_respected(self, small_market):
        result = appro(small_market)
        result.check_capacities()

    def test_line_market_feasible(self):
        result = appro(make_market())
        assert not result.rejected
        result.check_capacities()

    def test_deterministic(self, small_market):
        a = appro(small_market)
        b = appro(small_market)
        assert a.placement == b.placement

    def test_oversubscribed_without_remote_raises(self):
        # 2 cloudlets x 2 slots = 4 slots < 5 providers
        market = make_market(n_providers=5, compute=2.0, bandwidth=25.0)
        with pytest.raises(InfeasibleError):
            appro(market, allow_remote=False)

    def test_oversubscribed_with_remote_rejects_overflow(self):
        market = make_market(n_providers=5, compute=2.0, bandwidth=25.0)
        result = appro(market, allow_remote=True)
        assert len(result.placement) + len(result.rejected) == 5
        assert result.rejected  # at least the overflow went remote
        result.check_capacities()


class TestQuality:
    def test_info_carries_bounds(self, small_market):
        result = appro(small_market)
        info = result.info
        assert info["ratio_bound"] == pytest.approx(2 * info["delta"] * info["kappa"])
        assert info["virtual_cloudlets"] > 0
        assert info["gap_lower_bound"] is not None

    def test_lemma2_ratio_holds_empirically(self, tiny_market):
        """Appro (flat Eq. 9 pricing, as analysed) within 2*delta*kappa of
        the exact optimum."""
        result = appro(tiny_market, slot_pricing="flat")
        optimum = optimal_caching(tiny_market)
        ratio = result.social_cost / optimum.social_cost
        assert ratio <= result.info["ratio_bound"] + 1e-9
        assert ratio >= 1.0 - 1e-9

    def test_marginal_pricing_not_worse_than_flat(self, tiny_market):
        flat = appro(tiny_market, slot_pricing="flat")
        marginal = appro(tiny_market, slot_pricing="marginal")
        assert marginal.social_cost <= flat.social_cost + 1e-6

    def test_marginal_pricing_near_optimal_on_tiny(self, tiny_market):
        marginal = appro(tiny_market, slot_pricing="marginal")
        optimum = optimal_caching(tiny_market)
        # the GAP with marginal prices minimises the true social cost; the
        # only slack is the ST rounding, so stay within a few percent.
        assert marginal.social_cost <= 1.25 * optimum.social_cost

    def test_gap_solver_variants_run(self, small_market):
        for solver in ("shmoys_tardos", "greedy"):
            result = appro(small_market, gap_solver=solver)
            result.check_capacities()

    def test_unknown_solver_rejected(self, small_market):
        # "exact" is gone too: on the unit-slot reduction the default
        # already returns the GAP optimum.
        choices = re.escape("choose from ['greedy', 'shmoys_tardos']")
        for solver in ("nope", "exact"):
            with pytest.raises(ValueError, match=choices):
                appro(small_market, gap_solver=solver)

    def test_runtime_recorded(self, small_market):
        assert appro(small_market).runtime_s > 0.0

    def test_algorithm_label(self, small_market):
        assert appro(small_market).algorithm == "Appro[shmoys_tardos]"


class TestOptionValidation:
    """Options appro cannot honour raise up front, warm start included,
    instead of being silently ignored. The tiny line market keeps a
    regression (an option accepted and a solve run) fast.

    ``lp_time_limit_s`` is gone: Appro's GAP is a unit-slot instance,
    solved by an assignment that no budget can interrupt. The tests that
    validated its values keep their names and now check that the keyword
    itself is rejected, whatever its value, solver or warm start."""

    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_non_positive_lp_time_limit_rejected(self, limit):
        market = make_market()
        with pytest.raises(TypeError):
            appro(market, lp_time_limit_s=limit)

    def test_non_positive_lp_time_limit_rejected_on_warm_start(self):
        market = make_market()
        previous = appro(market)
        with pytest.raises(TypeError):
            appro(market, lp_time_limit_s=-1.0, warm_start=previous)

    @pytest.mark.parametrize(
        "gap_solver,limit",
        [("greedy", -1.0), ("greedy", 5.0), ("shmoys_tardos", 0.0)],
    )
    def test_lp_time_limit_needs_the_lp_solver(self, gap_solver, limit):
        market = make_market()
        with pytest.raises(TypeError):
            appro(market, gap_solver=gap_solver, lp_time_limit_s=limit)

    def test_lcf_forwards_the_lp_time_limit_check(self):
        market = make_market()
        with pytest.raises(TypeError):
            lcf(market, xi=0.5, gap_solver="greedy", lp_time_limit_s=-5.0)

    def test_unknown_slot_pricing_rejected_on_warm_start(self):
        market = make_market()
        previous = appro(market)
        with pytest.raises(ConfigurationError):
            appro(market, slot_pricing="bogus", warm_start=previous)

    def test_positive_lp_time_limit_rejected_cold_and_warm(self):
        # Even a generous budget is refused: no solve path reads one.
        market = make_market()
        previous = appro(market)
        with pytest.raises(TypeError):
            appro(market, lp_time_limit_s=60.0)
        with pytest.raises(TypeError):
            appro(market, lp_time_limit_s=60.0, warm_start=previous)
        with pytest.raises(TypeError):
            lcf(market, xi=0.5, lp_time_limit_s=60.0, warm_start=previous)
