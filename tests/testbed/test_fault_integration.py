"""Cross-layer fault test: an underlay cable cut must slow overlay flows."""

import pytest

from repro.core.baselines import jo_offload_cache
from repro.market.workload import generate_market
from repro.testbed.emulator import Testbed


class TestFaultImpactOnFlows:
    def test_cable_cut_degrades_or_preserves_makespan(self):
        """Cutting a busy underlay cable forces its tunnels onto longer
        shared paths; the emulated epoch can only get slower (or stay the
        same when the cable carried nothing relevant)."""
        testbed = Testbed(rng=3)
        testbed.register_algorithm("Jo", jo_offload_cache)
        market = generate_market(testbed.network, 20, rng=5)
        before = testbed.run("Jo", market)

        # Cut the busiest physical cable.
        (a, b), _volume = before.hottest_links(1, "underlay")[0]
        testbed.overlay.fail_cable(a, b)

        after = testbed.run("Jo", market)
        assert after.assignment.placement == before.assignment.placement
        assert after.makespan_s >= before.makespan_s * 0.99

    def test_rerouted_capacities_consistent(self):
        """After a cut, the flow simulator's resource set must not include
        the dead cable."""
        testbed = Testbed(rng=7)
        testbed.register_algorithm("Jo", jo_offload_cache)
        market = generate_market(testbed.network, 15, rng=8)
        run = testbed.run("Jo", market)
        (a, b), _ = run.hottest_links(1, "underlay")[0]
        testbed.overlay.fail_cable(a, b)

        simulator = testbed.build_flow_simulator(run.assignment)
        dead = ("underlay", frozenset((a, b)))
        for flow in simulator.flows:
            assert dead not in flow.resources

    def test_flows_cross_repinned_cables(self):
        """Overlay paths are memoised, but a flow built after a cut reads
        its cables from the live tunnels: it crosses the re-pinned ones."""
        testbed = Testbed(rng=7)
        testbed.register_algorithm("Jo", jo_offload_cache)
        market = generate_market(testbed.network, 15, rng=8)
        run = testbed.run("Jo", market)
        (a, b), _ = run.hottest_links(1, "underlay")[0]
        repinned = {t.endpoints: t for t in testbed.overlay.fail_cable(a, b)}

        simulator = testbed.build_flow_simulator(run.assignment)
        crossing = 0
        for flow in simulator.flows:
            path = testbed.overlay.overlay_path(flow.src, flow.dst)
            for hop in zip(path, path[1:]):
                tunnel = repinned.get(frozenset(hop))
                if tunnel is None:
                    continue
                for cable in tunnel.underlay_path:
                    crossing += 1
                    assert ("underlay", frozenset(cable)) in flow.resources
        assert crossing > 0
