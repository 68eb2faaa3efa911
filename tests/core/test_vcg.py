"""Tests for VCG/Clarke payments."""

import numpy as np
import pytest

from repro.core.appro import appro
from repro.core.vcg import _submarket, vcg_payments
from repro.exceptions import ConfigurationError
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from tests.conftest import build_line_network, build_provider


@pytest.fixture(scope="module")
def market():
    network = random_mec_network(60, rng=1)
    return generate_market(network, 10, rng=2)


class TestSubmarket:
    def test_excludes_one_provider(self, market):
        sub = _submarket(market, exclude=3)
        assert sub.num_providers == market.num_providers - 1
        assert 3 not in {p.provider_id for p in sub.providers}

    def test_shares_pricing_and_network(self, market):
        sub = _submarket(market, exclude=0)
        assert sub.network is market.network
        assert sub.cost_model.pricing == market.cost_model.pricing

    def test_cannot_empty_the_market(self):
        net = build_line_network()
        market = ServiceMarket(net, [build_provider(0)], pricing=Pricing())
        with pytest.raises(ConfigurationError):
            _submarket(market, exclude=0)


class TestVCGPayments:
    def test_everyone_gets_a_payment(self, market):
        outcome = vcg_payments(market)
        assert set(outcome.payments) == {p.provider_id for p in market.providers}

    def test_payments_nonnegative(self, market):
        outcome = vcg_payments(market)
        assert all(p >= 0.0 for p in outcome.payments.values())

    def test_total_payments_bounded_by_social_cost_scale(self, market):
        """Clarke payments are externalities; with linear congestion each
        provider's externality is at most ~the congestion it adds, so the
        total stays well below the social cost itself."""
        outcome = vcg_payments(market)
        assert outcome.total_payments < outcome.social_cost

    def test_separated_providers_pay_little(self):
        """Two providers placed on different cloudlets impose at most the
        tiny slot-competition externality (who got the cheaper cloudlet),
        far below the congestion externality of the crowding case below."""
        net = build_line_network(compute=50.0, bandwidth=5000.0)
        # user at node 1 prefers CL2; user at node 4 sits on CL4.
        a = build_provider(0, user_node=1)
        b = build_provider(1, user_node=4)
        market = ServiceMarket(net, [a, b], pricing=Pricing())
        outcome = vcg_payments(market, allow_remote=False)
        assert len(set(outcome.assignment.placement.values())) == 2
        cl = net.cloudlets[0]
        assert outcome.total_payments < (cl.alpha + cl.beta)

    def test_crowding_provider_pays(self):
        """Identical providers forced onto one cloudlet each pay roughly
        the congestion they inflict on the others."""
        net = build_line_network(n_cloudlets=1, compute=50.0, bandwidth=5000.0)
        providers = [build_provider(i, user_node=1) for i in range(4)]
        market = ServiceMarket(net, providers, pricing=Pricing())
        outcome = vcg_payments(market, allow_remote=False)
        cl = net.cloudlets[0]
        # removing one provider saves the 3 others (alpha+beta) each.
        expected = 3 * (cl.alpha + cl.beta)
        for pid, payment in outcome.payments.items():
            assert payment == pytest.approx(expected, rel=0.05)

    def test_needs_two_providers(self):
        net = build_line_network()
        market = ServiceMarket(net, [build_provider(0)], pricing=Pricing())
        with pytest.raises(ConfigurationError):
            vcg_payments(market)

    def test_outcome_accessors(self, market):
        outcome = vcg_payments(market)
        pid = market.providers[0].provider_id
        assert outcome.payment(pid) == outcome.payments[pid]
        with pytest.raises(ConfigurationError):
            outcome.payment(10**9)
        assert outcome.truthful is False
        assert outcome.runtime_s > 0


def _settings(market):
    model = market.cost_model
    return dict(
        pricing=model.pricing,
        congestion=model.congestion,
        latency_budget_ms=model.latency_budget_ms,
        remote_premium=model.remote_premium,
    )


def _reference_payments(market):
    """Clarke payments with every counterfactual built from scratch with
    all four market settings."""
    allocation = appro(market, allow_remote=True)
    own = allocation.provider_costs()
    payments = {}
    for provider in market.providers:
        pid = provider.provider_id
        others = [p for p in market.providers if p.provider_id != pid]
        without = ServiceMarket(market.network, others, **_settings(market))
        without_l = appro(without, allow_remote=True).social_cost
        payments[pid] = max(0.0, allocation.social_cost - own[pid] - without_l)
    return payments


class TestCounterfactualSettings:
    """Each counterfactual market keeps the parent's latency budget and
    remote premium, not only its pricing and congestion."""

    @pytest.fixture(
        scope="class",
        params=[{"latency_budget_ms": 4.0}, {"remote_premium": 5.0}],
        ids=["budget-4ms", "premium-5"],
    )
    def settled_market(self, request):
        return generate_market(
            random_mec_network(100, rng=1), 30, rng=2, **request.param
        )

    def test_submarket_carries_every_setting(self, settled_market):
        pid = settled_market.providers[0].provider_id
        sub = _submarket(settled_market, exclude=pid)
        assert _settings(sub) == _settings(settled_market)
        parent, child = settled_market.compile(), sub.compile()
        keep = [settled_market.compile().provider_row(p) for p in child.provider_ids]
        np.testing.assert_array_equal(child.fixed, parent.fixed[keep])
        np.testing.assert_array_equal(child.remote, parent.remote[keep])

    def test_payments_match_full_setting_counterfactuals(self, settled_market):
        outcome = vcg_payments(settled_market)
        assert outcome.payments == _reference_payments(settled_market)
