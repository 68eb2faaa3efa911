"""Outage traces and outage-aware dynamics.

Three layers:

1. **Trace unit tests** — event normalisation, the survivor floor, script
   validation, and seed-determinism of the stochastic generators.
2. **Market integration** — an outage delta zeroes the cloudlet's
   effective capacity, a recovery restores the saved nominal values.
3. **The acceptance pin** — a 100-epoch outage-laden simulation on the
   compiled/warm path bills bit-identical epoch records to the
   object-graph oracle for all three recovery policies.  Because outages
   mutate the shared network's cloudlet objects, each arm gets its own
   identically-seeded network and trace.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.dynamics.outages import (
    CorrelatedOutageTrace,
    IndependentOutageTrace,
    OutageEvent,
    OutageTrace,
    ScheduledOutageTrace,
)
from repro.dynamics.population import PopulationProcess
from repro.dynamics.simulation import DynamicMarketSimulation
from repro.exceptions import ConfigurationError
from repro.market.delta import MarketDelta
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network

from tests.oracles.object_graph_reference import ObjectRebuildSimulation

RECOVERY_POLICIES = ("failover", "replan", "hysteresis")


def outage_network(seed=7):
    # 0.25 cloudlet fraction gives a 10-cloudlet fleet on 40 nodes — big
    # enough that the survivor floor rarely binds and regions are regions.
    return random_mec_network(40, rng=seed, cloudlet_fraction=0.25)


# --------------------------------------------------------------------- #
# 1. Traces
# --------------------------------------------------------------------- #
class TestOutageEvent:
    def test_normalises_and_sorts(self):
        ev = OutageEvent(epoch=3, outages=(9, 2), recoveries=(7, 1))
        assert ev.outages == (2, 9)
        assert ev.recoveries == (1, 7)
        assert not ev.is_quiet

    def test_flapping_rejected(self):
        with pytest.raises(ConfigurationError, match="both fail and recover"):
            OutageEvent(epoch=1, outages=(2,), recoveries=(2,))

    def test_quiet(self):
        assert OutageEvent(epoch=1).is_quiet


class TestTraceBase:
    def test_requires_cloudlets(self):
        from repro.network.topology import MECNetwork

        network = MECNetwork(name="empty")
        network.add_switch(0)
        with pytest.raises(ConfigurationError, match="cloudlets"):
            ScheduledOutageTrace(network)

    def test_min_survivors_bounded_by_fleet(self):
        network = outage_network()
        fleet = len(network.cloudlets)
        with pytest.raises(ConfigurationError, match="min_survivors"):
            ScheduledOutageTrace(network, min_survivors=fleet + 1)

    def test_survivor_floor_clips_failures(self):
        network = outage_network()
        nodes = tuple(sorted(cl.node_id for cl in network.cloudlets))
        trace = ScheduledOutageTrace(
            network, script={1: (nodes, ())}, min_survivors=2
        )
        event = trace.step()
        # All-but-two admitted, in ascending node-id order.
        assert event.outages == nodes[: len(nodes) - 2]
        assert set(trace.failed) == set(event.outages)

    def test_failing_a_down_cloudlet_raises(self):
        network = outage_network()
        node = network.cloudlets[0].node_id
        trace = ScheduledOutageTrace(
            network, script={1: ((node,), ()), 2: ((node,), ())}
        )
        trace.step()
        with pytest.raises(ConfigurationError, match="not up"):
            trace.step()

    def test_recovering_an_up_cloudlet_raises(self):
        network = outage_network()
        node = network.cloudlets[0].node_id
        trace = ScheduledOutageTrace(network, script={1: ((), (node,))})
        with pytest.raises(ConfigurationError, match="not down"):
            trace.step()

    def test_downtime_start_tracks_failure_epoch(self):
        network = outage_network()
        node = network.cloudlets[0].node_id
        trace = ScheduledOutageTrace(
            network, script={2: ((node,), ()), 5: ((), (node,))}
        )
        trace.step()
        trace.step()
        assert trace.downtime_start(node) == 2
        trace.step()
        trace.step()
        trace.step()
        assert trace.failed == ()
        with pytest.raises(ConfigurationError, match="not failed"):
            trace.downtime_start(node)


class TestStochasticTraces:
    @pytest.mark.parametrize("cls", [IndependentOutageTrace, CorrelatedOutageTrace])
    def test_seed_determinism(self, cls):
        network = outage_network()
        a = cls(network, mttf=4.0, mttr=2.0, rng=11)
        b = cls(network, mttf=4.0, mttr=2.0, rng=11)
        events_a = [a.step() for _ in range(60)]
        events_b = [b.step() for _ in range(60)]
        assert events_a == events_b
        assert any(not e.is_quiet for e in events_a)

    def test_independent_respects_survivor_floor(self):
        network = outage_network()
        trace = IndependentOutageTrace(
            network, mttf=1.0, mttr=1000.0, rng=5, min_survivors=3
        )
        for _ in range(30):
            trace.step()
            assert len(trace.nodes) - len(trace.failed) >= 3

    def test_correlated_fails_neighbourhoods(self):
        network = outage_network()
        trace = CorrelatedOutageTrace(
            network, mttf=2.0, mttr=1000.0, region_size=3, rng=9
        )
        sizes = []
        for _ in range(20):
            event = trace.step()
            if event.outages:
                sizes.append(len(event.outages))
        assert sizes, "expected at least one regional event"
        assert max(sizes) > 1, "regions should take multiple cloudlets down"

    def test_mttf_mttr_validated(self):
        network = outage_network()
        with pytest.raises(ConfigurationError, match="mttf"):
            IndependentOutageTrace(network, mttf=0.5)
        with pytest.raises(ConfigurationError, match="mttr"):
            CorrelatedOutageTrace(network, mttr=0.0)


# --------------------------------------------------------------------- #
# 2. Market integration
# --------------------------------------------------------------------- #
class TestOutageDelta:
    def test_outage_zeroes_and_recovery_restores(self):
        network = outage_network()
        market = generate_market(network, n_providers=10, rng=3)
        cl = network.cloudlets[0]
        node = cl.node_id
        nominal = (cl.compute_capacity, cl.bandwidth_capacity)

        market.apply(MarketDelta(outages=(node,)))
        assert market.failed_cloudlets == (node,)
        assert cl.compute_capacity == 0.0
        assert cl.bandwidth_capacity == 0.0
        assert market.nominal_capacity(node) == nominal

        market.apply(MarketDelta(recoveries=(node,)))
        assert market.failed_cloudlets == ()
        assert (cl.compute_capacity, cl.bandwidth_capacity) == nominal


# --------------------------------------------------------------------- #
# 3. The acceptance pin: compiled/warm == object oracle under outages
# --------------------------------------------------------------------- #
#: The two arms of the acceptance pin: the library and the object oracle.
ARMS = {"compiled": DynamicMarketSimulation, "object": ObjectRebuildSimulation}


def outage_sim(seed, arm, recovery, policy="incremental", epochs_hint=100):
    """One arm: its own network, population, and trace, all seeded alike."""
    network = outage_network(seed=71)
    population = PopulationProcess(
        network,
        arrival_rate=3.0,
        mean_lifetime=6.0,
        initial_population=12,
        rng=seed,
    )
    trace = IndependentOutageTrace(network, mttf=7.0, mttr=3.0, rng=seed + 1)
    return ARMS[arm](
        network,
        population,
        policy=policy,
        gap_solver="greedy",
        warm_start=True,
        outages=trace,
        recovery=recovery,
    )


class TestOutageArmEquivalence:
    @pytest.mark.parametrize("recovery", RECOVERY_POLICIES)
    def test_hundred_epoch_compiled_matches_object(self, recovery):
        compiled_sim = outage_sim(42, "compiled", recovery)
        object_sim = outage_sim(42, "object", recovery)
        a = compiled_sim.run(100)
        b = object_sim.run(100)
        assert a.recovery_epochs == b.recovery_epochs
        assert a.total_displaced > 0, "trace produced no displacement"
        for ra, rb in zip(a.epochs, b.epochs):
            assert dataclasses.astuple(ra) == dataclasses.astuple(rb)

    def test_armed_outage_run(self, monkeypatch):
        # Invariant-armed: every apply_delta self-verifies the patched
        # compiled tables against the object graph, outages included.
        monkeypatch.setenv("REPRO_DEBUG_INVARIANTS", "1")
        sim = outage_sim(13, "compiled", "failover")
        summary = sim.run(25)
        assert summary.cloudlet_downtime > 0


class TestOutagesUnderLatencyBudget:
    """Appro's capacity repair and warm entry re-place evicted providers
    and newcomers only on latency-admissible cloudlets (finite Eq. 9
    cost). Placing one outside a 3 ms budget bills an infinite social
    cost; these seeds used to do so within 3 to 11 epochs."""

    @staticmethod
    def budget_sim(seed, arm):
        network = random_mec_network(200, rng=seed)
        population = PopulationProcess(
            network, arrival_rate=40, mean_lifetime=20, rng=seed
        )
        trace = IndependentOutageTrace(
            network, mttf=8, mttr=3, min_survivors=3, rng=seed
        )
        return ARMS[arm](
            network,
            population,
            policy="hysteresis",
            latency_budget_ms=3.0,
            outages=trace,
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_every_epoch_bills_a_finite_cost(self, seed):
        compiled = self.budget_sim(seed, "compiled").run(12)
        reference = self.budget_sim(seed, "object").run(12)
        assert compiled.total_displaced > 0, "trace produced no displacement"
        for epoch, (ra, rb) in enumerate(zip(compiled.epochs, reference.epochs)):
            assert math.isfinite(ra.social_cost), f"epoch {epoch} billed inf"
            assert dataclasses.astuple(ra) == dataclasses.astuple(rb)


# --------------------------------------------------------------------- #
# 4. Availability metrics
# --------------------------------------------------------------------- #
class TestAvailabilityMetrics:
    def make_scripted_sim(self, recovery="failover", policy="incremental"):
        network = outage_network(seed=71)
        nodes = tuple(sorted(cl.node_id for cl in network.cloudlets))
        population = PopulationProcess(
            network,
            arrival_rate=2.0,
            mean_lifetime=50.0,
            initial_population=20,
            rng=5,
        )
        trace = ScheduledOutageTrace(
            network,
            script={
                3: (nodes[:2], ()),
                6: ((), nodes[:2]),
            },
        )
        return DynamicMarketSimulation(
            network,
            population,
            policy=policy,
            gap_solver="greedy",
            outages=trace,
            recovery=recovery,
        )

    def test_downtime_and_recovery_accounting(self):
        summary = self.make_scripted_sim().run(10)
        by_epoch = {e.epoch: e for e in summary.epochs}
        assert len(by_epoch[3].outages) == 2
        assert len(by_epoch[6].recoveries) == 2
        assert by_epoch[4].failed_cloudlets == by_epoch[3].outages
        assert by_epoch[6].failed_cloudlets == ()
        # Two incidents, each down epochs 3..6 -> 3 epochs to recover.
        assert summary.recovery_epochs == (3, 3)
        assert summary.mean_time_to_recover == 3.0
        # Down-set accounting: 2 cloudlets x epochs 3,4,5.
        assert summary.cloudlet_downtime == 6

    @pytest.mark.parametrize("recovery", RECOVERY_POLICIES)
    def test_outage_epoch_dispatches_recovery_policy(self, recovery):
        summary = self.make_scripted_sim(recovery=recovery).run(4)
        by_epoch = {e.epoch: e for e in summary.epochs}
        if by_epoch[3].displaced:
            # "replan" must replan on the displacement epoch; plain
            # failover never does (the policy is "incremental").
            assert by_epoch[3].replanned == (recovery != "failover")

    def test_only_recovery_replans_set_the_hysteresis_anchor(self):
        """Replans of ``policy="replan"`` leave the hysteresis anchor
        alone; a recovery replan on an outage epoch re-anchors it."""
        sim = self.make_scripted_sim(recovery="replan", policy="replan")
        assert [sim.step().replanned for _ in range(2)] == [True, True]
        assert sim._anchor_cost is None
        record = sim.step()
        assert record.displaced and record.replanned
        assert sim._anchor_cost == record.social_cost

    def test_open_incident_not_counted(self):
        network = outage_network(seed=71)
        node = network.cloudlets[0].node_id
        population = PopulationProcess(
            network, arrival_rate=2.0, mean_lifetime=50.0,
            initial_population=10, rng=5,
        )
        trace = ScheduledOutageTrace(network, script={2: ((node,), ())})
        sim = DynamicMarketSimulation(
            network, population, policy="incremental",
            gap_solver="greedy", outages=trace,
        )
        summary = sim.run(5)
        assert summary.recovery_epochs == ()
        assert summary.mean_time_to_recover != summary.mean_time_to_recover  # nan

    def test_unknown_recovery_rejected(self):
        network = outage_network()
        population = PopulationProcess(network, rng=1)
        with pytest.raises(ConfigurationError, match="recovery"):
            DynamicMarketSimulation(network, population, recovery="panic")
