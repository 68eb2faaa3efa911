"""Tests for repro.network.topology (MECNetwork)."""

import pytest

from repro.exceptions import ConfigurationError, TopologyError
from repro.network.elements import Cloudlet, DataCenter
from repro.network.topology import MECNetwork

from tests.conftest import build_line_network


def make_triangle() -> MECNetwork:
    net = MECNetwork()
    for i in range(3):
        net.add_switch(i)
    net.add_link(0, 1, delay_ms=1.0)
    net.add_link(1, 2, delay_ms=1.0)
    net.add_link(0, 2, delay_ms=5.0)
    return net


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = MECNetwork()
        net.add_switch(0)
        with pytest.raises(ConfigurationError):
            net.add_switch(0)

    def test_link_unknown_node_rejected(self):
        net = MECNetwork()
        net.add_switch(0)
        with pytest.raises(ConfigurationError):
            net.add_link(0, 1)

    def test_attach_cloudlet_to_unknown_node(self):
        net = MECNetwork()
        with pytest.raises(ConfigurationError):
            net.attach_cloudlet(Cloudlet(node_id=9, compute_capacity=1, bandwidth_capacity=1))

    def test_double_cloudlet_rejected(self):
        net = make_triangle()
        net.attach_cloudlet(Cloudlet(node_id=0, compute_capacity=1, bandwidth_capacity=1))
        with pytest.raises(ConfigurationError):
            net.attach_cloudlet(Cloudlet(node_id=0, compute_capacity=1, bandwidth_capacity=1))

    def test_cloudlet_and_dc_conflict(self):
        net = make_triangle()
        net.attach_data_center(DataCenter(node_id=0))
        with pytest.raises(ConfigurationError):
            net.attach_cloudlet(Cloudlet(node_id=0, compute_capacity=1, bandwidth_capacity=1))
        net.attach_cloudlet(Cloudlet(node_id=1, compute_capacity=1, bandwidth_capacity=1))
        with pytest.raises(ConfigurationError):
            net.attach_data_center(DataCenter(node_id=1))


class TestAccessors:
    def test_cloudlets_sorted_by_node(self):
        net = make_triangle()
        net.attach_cloudlet(Cloudlet(node_id=2, compute_capacity=1, bandwidth_capacity=1))
        net.attach_cloudlet(Cloudlet(node_id=0, compute_capacity=1, bandwidth_capacity=1))
        assert [c.node_id for c in net.cloudlets] == [0, 2]

    def test_cloudlet_at_missing_raises(self):
        net = make_triangle()
        with pytest.raises(TopologyError):
            net.cloudlet_at(0)

    def test_has_helpers(self, line_network):
        assert line_network.has_data_center(0)
        assert line_network.has_cloudlet(2)
        assert not line_network.has_cloudlet(1)

    def test_counts(self, line_network):
        assert line_network.num_nodes == 5
        assert line_network.num_links == 4
        assert len(list(line_network.links())) == 4


class TestRoutingQueries:
    def test_hop_count_line(self, line_network):
        assert line_network.hop_count(0, 4) == 4
        assert line_network.hop_count(2, 2) == 0

    def test_path_delay_prefers_cheap_route(self):
        net = make_triangle()
        # direct 0-2 link has delay 5; 0-1-2 costs 2.
        assert net.path_delay(0, 2) == pytest.approx(2.0)
        assert net.shortest_path(0, 2) == [0, 1, 2]

    def test_routing_invalidated_by_new_link(self):
        net = make_triangle()
        assert net.path_delay(0, 2) == pytest.approx(2.0)
        net.add_link(0, 2, delay_ms=0.5)  # parallel edge replaces attribute
        # networkx Graph: the new edge overwrites; delay should now be 0.5.
        assert net.path_delay(0, 2) == pytest.approx(0.5)


class TestValidation:
    def test_validate_passes_on_line(self, line_network):
        line_network.validate()

    def test_validate_empty(self):
        with pytest.raises(ConfigurationError):
            MECNetwork().validate()

    def test_validate_disconnected(self):
        net = MECNetwork()
        net.add_switch(0)
        net.add_switch(1)
        with pytest.raises(ConfigurationError):
            net.validate()

    def test_validate_requires_cloudlet_and_dc(self):
        net = make_triangle()
        with pytest.raises(ConfigurationError):
            net.validate()
        net.attach_cloudlet(Cloudlet(node_id=0, compute_capacity=1, bandwidth_capacity=1))
        with pytest.raises(ConfigurationError):
            net.validate()
        net.attach_data_center(DataCenter(node_id=1))
        net.validate()

    def test_repr_mentions_counts(self, line_network):
        text = repr(line_network)
        assert "cloudlets=2" in text and "data_centers=1" in text
