"""Tests for repro.network.elements."""

import pytest

from repro.exceptions import ConfigurationError
from repro.network.elements import Cloudlet, DataCenter, Link, NodeKind, SwitchNode


class TestSwitchNode:
    def test_kind(self):
        assert SwitchNode(node_id=1).kind is NodeKind.SWITCH

    def test_default_name_empty(self):
        assert SwitchNode(node_id=1, name="SW1").name == "SW1"


class TestCloudlet:
    def make(self, **kwargs) -> Cloudlet:
        base = dict(node_id=3, compute_capacity=10.0, bandwidth_capacity=100.0)
        base.update(kwargs)
        return Cloudlet(**base)

    def test_kind_and_default_name(self):
        cl = self.make()
        assert cl.kind is NodeKind.CLOUDLET
        assert cl.name == "CL3"

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            self.make(compute_capacity=0.0)
        with pytest.raises(ConfigurationError):
            self.make(bandwidth_capacity=-1.0)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ConfigurationError):
            self.make(alpha=-0.1)
        with pytest.raises(ConfigurationError):
            self.make(beta=-0.1)


class TestDataCenter:
    def test_kind_and_name(self):
        dc = DataCenter(node_id=2)
        assert dc.kind is NodeKind.DATA_CENTER
        assert dc.name == "DC2"

    def test_rejects_negative_price(self):
        with pytest.raises(ConfigurationError):
            DataCenter(node_id=1, processing_unit_cost=-0.1)


class TestLink:
    def test_endpoints_and_other(self):
        link = Link(u=1, v=2)
        assert link.endpoints == (1, 2)
        assert link.other(1) == 2
        assert link.other(2) == 1

    def test_other_unknown_node_raises(self):
        with pytest.raises(ConfigurationError):
            Link(u=1, v=2).other(3)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Link(u=1, v=1)

    def test_non_positive_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            Link(u=1, v=2, bandwidth=0.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            Link(u=1, v=2, delay_ms=-1.0)
