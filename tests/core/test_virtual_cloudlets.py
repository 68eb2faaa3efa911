"""Tests for the Eq. (7)–(9) virtual-cloudlet reduction.

Every GAP instance is built twice: by the library (from the compiled
tables) and by the object-graph oracle of
``tests/oracles/object_graph_reference.py`` (the split recomputed per
cloudlet, per-pair cost-model queries). The two must agree bit for bit
before any property is checked.
"""

import math

import numpy as np
import pytest

from repro.core.virtual_cloudlets import VirtualCloudletSplit
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.market.market import ServiceMarket
from repro.market.pricing import Pricing

from tests.conftest import build_line_network, build_provider
from tests.oracles.object_graph_reference import (
    object_build_gap_instance,
    object_virtual_cloudlets,
)


def make_market(n_providers=4, compute=10.0, bandwidth=500.0):
    net = build_line_network(compute=compute, bandwidth=bandwidth)
    providers = [build_provider(i) for i in range(n_providers)]
    return ServiceMarket(net, providers, pricing=Pricing())


def build_instance(split):
    """The split's GAP instance, pinned bit for bit to the object-graph
    oracle's."""
    inst = split.build_gap_instance()
    oracle = object_build_gap_instance(split)
    np.testing.assert_array_equal(inst.costs, oracle.costs)
    np.testing.assert_array_equal(inst.slots, oracle.slots)
    return inst


def slots_of(split):
    """``(cloudlet node, slot)`` of every virtual cloudlet, in bin order,
    read off the split's arrays and pinned to the oracle's per-cloudlet
    split."""
    nodes = split.cloudlet_nodes[split.slot_cloudlet]
    first = np.cumsum(split.n_i) - split.n_i
    ranks = np.arange(len(split.slot_cloudlet)) - first[split.slot_cloudlet]
    slots = list(zip(nodes.tolist(), ranks.tolist()))
    assert slots == object_virtual_cloudlets(split)
    return slots


class TestSplitCounts:
    def test_eq7_slot_counts(self):
        # each provider: compute demand 1.0, bandwidth demand 10.0
        market = make_market(compute=10.0, bandwidth=55.0)
        split = VirtualCloudletSplit(market)
        # a_max = 1.0 -> floor(10/1)=10; b_max = 10 -> floor(55/10)=5
        assert split.cloudlet_nodes.tolist() == market.compile().cloudlet_nodes
        assert split.n_i.tolist() == [5] * len(market.network.cloudlets)
        assert split.slot_cloudlet.tolist() == [0] * 5 + [1] * 5
        assert len(slots_of(split)) == 10

    def test_slot_capacity_is_max_demand(self):
        market = make_market()
        split = VirtualCloudletSplit(market)
        assert split.slot_capacity == pytest.approx(10.0)  # bandwidth demand

    def test_delta_kappa(self):
        market = make_market(compute=10.0, bandwidth=55.0)
        split = VirtualCloudletSplit(market)
        assert split.delta == pytest.approx(10.0)
        assert split.kappa == pytest.approx(5.5)

    def test_n_prime_max_eq8(self):
        market = make_market()
        split = VirtualCloudletSplit(market)
        expected = max(
            split.slot_capacity / split.a_min, split.slot_capacity / split.b_min
        )
        assert split.n_prime_max == pytest.approx(expected)

    def test_zero_slots_without_remote_raises(self):
        # capacity below the largest demand -> zero virtual cloudlets
        net = build_line_network(compute=0.5)
        providers = [build_provider(0)]
        market = ServiceMarket(net, providers)
        with pytest.raises(InfeasibleError):
            VirtualCloudletSplit(market)

    def test_zero_slots_with_remote_allowed(self):
        net = build_line_network(compute=0.5)
        providers = [build_provider(0)]
        market = ServiceMarket(net, providers)
        split = VirtualCloudletSplit(market, allow_remote=True)
        inst = build_instance(split)
        assert inst.n_bins == 1  # just the remote bin
        assert split.n_i.tolist() == [0] * len(market.network.cloudlets)
        assert inst.slots.tolist() == [1]  # one slot per provider

    def test_bad_pricing_mode_rejected(self):
        market = make_market()
        with pytest.raises(ConfigurationError):
            VirtualCloudletSplit(market, slot_pricing="bogus")


class TestGAPInstance:
    def test_one_service_per_slot(self):
        market = make_market()
        split = VirtualCloudletSplit(market)
        inst = build_instance(split)
        # One slot per virtual cloudlet: exactly one item fits a bin.
        assert inst.slots.tolist() == [1] * len(split.slot_cloudlet)
        remote = build_instance(VirtualCloudletSplit(market, allow_remote=True))
        assert remote.slots.tolist() == [1] * len(split.slot_cloudlet) + [4]

    def test_flat_pricing_is_eq9(self):
        market = make_market()
        split = VirtualCloudletSplit(market, slot_pricing="flat")
        inst = build_instance(split)
        model = market.cost_model
        for j, provider in enumerate(market.providers):
            for index, (node, _) in enumerate(slots_of(split)):
                cl = market.network.cloudlet_at(node)
                assert inst.costs[j, index] == pytest.approx(model.gap_cost(provider, cl))

    def test_flat_pricing_equal_across_slots(self):
        market = make_market()
        split = VirtualCloudletSplit(market, slot_pricing="flat")
        inst = build_instance(split)
        by_cloudlet = {}
        for index, (node, _) in enumerate(slots_of(split)):
            by_cloudlet.setdefault(node, []).append(inst.costs[0, index])
        for costs in by_cloudlet.values():
            assert len(set(np.round(costs, 12))) == 1

    def test_marginal_pricing_increases_with_slot(self):
        market = make_market()
        split = VirtualCloudletSplit(market, slot_pricing="marginal")
        inst = build_instance(split)
        slots = slots_of(split)
        for node in sorted({node for node, _ in slots}):
            costs = [
                inst.costs[0, index]
                for index, (at, _) in enumerate(slots)
                if at == node
            ]
            assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_marginal_prices_telescope_to_social_congestion(self):
        """Filling the first k slots of a cloudlet must charge exactly the
        social congestion cost k * (alpha+beta) * g(k) = (alpha+beta)k^2."""
        market = make_market()
        split = VirtualCloudletSplit(market, slot_pricing="marginal")
        inst = build_instance(split)
        model = market.cost_model
        provider = market.providers[0]
        node, _ = slots_of(split)[0]
        cl = market.network.cloudlet_at(node)
        bins = [index for index, (at, _) in enumerate(slots_of(split)) if at == node]
        fixed = model.fixed_cost(provider, cl)
        for k in range(1, len(bins) + 1):
            charged = sum(inst.costs[0, bins[j]] - fixed for j in range(k))
            assert charged == pytest.approx((cl.alpha + cl.beta) * k * k)

    def test_remote_bin_costs(self):
        market = make_market()
        split = VirtualCloudletSplit(market, allow_remote=True)
        inst = build_instance(split)
        model = market.cost_model
        for j, provider in enumerate(market.providers):
            assert inst.costs[j, split.remote_bin] == pytest.approx(
                model.remote_cost(provider)
            )

    def test_remote_bin_property_requires_flag(self):
        market = make_market()
        split = VirtualCloudletSplit(market)
        with pytest.raises(ConfigurationError):
            _ = split.remote_bin


class TestMergeAssignment:
    def test_merge_maps_to_real_cloudlets(self):
        market = make_market()
        split = VirtualCloudletSplit(market)
        n_first = int(split.n_i[0])  # bins [0, n_first) belong to CL2
        assignment = [0, 1, n_first, n_first + 1]
        placement, rejected = split.merge_assignment(assignment)
        assert not rejected
        assert list(placement) == [0, 1, 2, 3]
        assert all(type(node) is int for node in placement.values())
        cl_nodes = sorted({node for node, _ in slots_of(split)})
        assert placement[0] in cl_nodes and placement[2] in cl_nodes
        assert placement[0] == placement[1]
        assert placement[2] == placement[3]
        assert placement[0] != placement[2]

    def test_merge_remote_as_rejection(self):
        market = make_market()
        split = VirtualCloudletSplit(market, allow_remote=True)
        assignment = [split.remote_bin, 0, 1, 2]
        placement, rejected = split.merge_assignment(assignment)
        assert rejected == {0}
        assert 0 not in placement
        assert list(placement) == [1, 2, 3]

    def test_wrong_length_rejected(self):
        market = make_market()
        split = VirtualCloudletSplit(market)
        with pytest.raises(ConfigurationError):
            split.merge_assignment([0])
