"""Tests for underlay cable faults and VXLAN re-pinning."""

import networkx as nx
import pytest

from repro.exceptions import EmulationError, TopologyError
from repro.testbed.emulator import Testbed
from repro.testbed.ovs import OverlayNetwork
from repro.testbed.switch import default_underlay
from repro.testbed.vm import Server


def make_overlay(n_nodes=10):
    g = nx.cycle_graph(n_nodes)
    return OverlayNetwork(
        g, default_underlay(), [Server(server_id=i) for i in range(5)]
    )


class TestFailCable:
    def test_unknown_cable_rejected(self):
        overlay = make_overlay()
        with pytest.raises(TopologyError):
            overlay.fail_cable(0, 3)  # ring+chords: 0-3 is not a cable

    def test_survives_single_failure(self):
        overlay = make_overlay()
        repinned = overlay.fail_cable(0, 1)
        # the underlay stays connected and routes still resolve.
        for sw in overlay.switches:
            for dst in range(5):
                if dst != sw.switch_id:
                    sw.next_hop(dst)
        # every repinned tunnel avoids the dead cable.
        for tunnel in repinned:
            assert frozenset((0, 1)) not in {
                frozenset(c) for c in tunnel.underlay_path
            }

    def test_tunnels_map_updated_in_place(self):
        overlay = make_overlay()
        crossing_before = [
            key
            for key, t in overlay.tunnels.items()
            if frozenset((0, 1)) in {frozenset(c) for c in t.underlay_path}
        ]
        assert crossing_before  # the ring cable 0-1 carries something
        overlay.fail_cable(0, 1)
        for key in crossing_before:
            tunnel = overlay.tunnels[key]
            assert frozenset((0, 1)) not in {
                frozenset(c) for c in tunnel.underlay_path
            }

    def test_partitioning_failure_rejected_atomically(self):
        overlay = make_overlay()
        # degree-2 survivability: cut enough cables and the next cut would
        # partition; the call must refuse and leave state intact.
        overlay.fail_cable(0, 1)
        overlay.fail_cable(0, 2)
        with pytest.raises(EmulationError):
            overlay.fail_cable(0, 4)  # switch 0's last cable
        # state unchanged: 0 still reachable.
        for dst in range(1, 5):
            overlay.switches[0].next_hop(dst)

    def test_repinned_paths_are_walks(self):
        overlay = make_overlay()
        repinned = overlay.fail_cable(1, 2)
        for tunnel in repinned:
            path = tunnel.underlay_path
            for (a, b), (c, d) in zip(path, path[1:]):
                assert b == c  # consecutive cables share an endpoint

    def test_vni_preserved_across_repin(self):
        overlay = make_overlay()
        before = {key: t.vni for key, t in overlay.tunnels.items()}
        overlay.fail_cable(0, 1)
        after = {key: t.vni for key, t in overlay.tunnels.items()}
        assert before == after


def forwarding_walk(overlay, tunnel):
    """The cables the switches' tables forward tunnel ``u -> v`` over."""
    switches = overlay.switches
    here = switches[overlay.bridges[tunnel.u].server.server_id % len(switches)]
    there = switches[overlay.bridges[tunnel.v].server.server_id % len(switches)]
    walk = []
    while here is not there:
        hop = here.next_hop(there.switch_id)
        walk.append((here.switch_id, hop))
        here = switches[hop]
    return tuple(walk)


#: The seven cables of ``default_underlay``: a ring plus two chords.
CABLES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]


class TestTunnelsFollowForwarding:
    def test_uncut_tunnels_follow_tables(self):
        overlay = Testbed(rng=1).overlay
        for tunnel in overlay.tunnels.values():
            assert tunnel.underlay_path == forwarding_walk(overlay, tunnel)

    @pytest.mark.parametrize("cable", CABLES)
    def test_repinned_tunnels_follow_tables(self, cable):
        overlay = Testbed(rng=1).overlay
        cut = frozenset(cable)
        crossing = {
            key for key, t in overlay.tunnels.items()
            if cut in {frozenset(c) for c in t.underlay_path}
        }
        repinned = overlay.fail_cable(*cable)
        assert {t.endpoints for t in repinned} == crossing
        for tunnel in overlay.tunnels.values():
            assert tunnel.underlay_path == forwarding_walk(overlay, tunnel)
            assert cut not in {frozenset(c) for c in tunnel.underlay_path}

    def test_transfer_resources_follow_the_cut(self):
        overlay = Testbed(rng=1).overlay
        key, tunnel = next(
            (key, t) for key, t in overlay.tunnels.items()
            if frozenset((1, 3)) in {frozenset(c) for c in t.underlay_path}
        )
        before = overlay.transfer_resources(tunnel.u, tunnel.v)
        assert ("underlay", frozenset((1, 3))) in before
        overlay.fail_cable(1, 3)
        after = overlay.transfer_resources(tunnel.u, tunnel.v)
        assert ("underlay", frozenset((1, 3))) not in after
        assert after == (("overlay", key),) + tuple(
            ("underlay", frozenset(c))
            for c in dict.fromkeys(overlay.tunnels[key].underlay_path)
        )
