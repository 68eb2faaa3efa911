"""Tests for the dynamic market simulation."""

import numpy as np
import pytest

from repro.dynamics.population import PopulationProcess
from repro.dynamics.simulation import DynamicMarketSimulation
from repro.exceptions import ConfigurationError
from repro.network.generators import random_mec_network

from tests.dynamics.conftest import ScriptedPopulation, draw_providers


@pytest.fixture(scope="module")
def network():
    return random_mec_network(80, rng=1)


def make_sim(network, policy="replan", rng=2, **kwargs):
    pop = PopulationProcess(
        network, arrival_rate=4.0, mean_lifetime=6.0, rng=rng,
        initial_population=20,
    )
    return DynamicMarketSimulation(network, pop, policy=policy, **kwargs)


class TestPolicies:
    def test_unknown_policy_rejected(self, network):
        with pytest.raises(ConfigurationError):
            make_sim(network, policy="oracle")

    @pytest.mark.parametrize("policy", ["replan", "incremental", "hysteresis"])
    def test_unknown_gap_solver_rejected(self, network, policy):
        with pytest.raises(ConfigurationError):
            make_sim(network, policy=policy, gap_solver="bogus")

    def test_replan_runs_and_bills(self, network):
        summary = make_sim(network, "replan").run(5)
        assert len(summary.epochs) == 5
        assert summary.total_cost > 0
        assert summary.policy == "replan"

    def test_incremental_never_migrates(self, network):
        summary = make_sim(network, "incremental").run(10)
        assert summary.total_migrations == 0
        assert summary.total_migration_cost == 0.0

    def test_replan_beats_incremental_on_social_cost(self, network):
        replan = make_sim(network, "replan", rng=3).run(10)
        incremental = make_sim(network, "incremental", rng=3).run(10)
        assert replan.mean_social_cost <= incremental.mean_social_cost

    def test_incremental_covers_every_present_provider(self, network):
        sim = make_sim(network, "incremental")
        for _ in range(8):
            sim.step()
            present = {p.provider_id for p in sim.population.present}
            covered = set(sim.placement) | sim.rejected
            assert covered == present

    def test_epoch_records_consistent(self, network):
        sim = make_sim(network, "replan")
        record = sim.step()
        assert record.population == sim.population.population
        assert record.total_cost == pytest.approx(
            record.social_cost + record.migration_cost
        )

    def test_zero_epochs_rejected(self, network):
        with pytest.raises(ConfigurationError):
            make_sim(network).run(0)

    def test_deterministic(self, network):
        a = make_sim(network, "replan", rng=9).run(5)
        b = make_sim(network, "replan", rng=9).run(5)
        assert a.total_cost == pytest.approx(b.total_cost)
        assert a.total_migrations == b.total_migrations


class TestHysteresis:
    def test_threshold_must_be_non_negative(self, network):
        with pytest.raises(ConfigurationError):
            make_sim(network, "hysteresis", hysteresis_threshold=-0.1)

    def test_first_epoch_always_replans(self, network):
        sim = make_sim(network, "hysteresis", rng=5)
        record = sim.step()
        assert record.replanned

    def test_huge_threshold_replans_exactly_once(self, network):
        summary = make_sim(
            network, "hysteresis", rng=5, hysteresis_threshold=1e9
        ).run(10)
        assert summary.total_replans == 1
        assert summary.epochs[0].replanned

    def test_zero_threshold_replans_on_any_drift(self, network):
        eager = make_sim(
            network, "hysteresis", rng=5, hysteresis_threshold=0.0
        ).run(10)
        lazy = make_sim(
            network, "hysteresis", rng=5, hysteresis_threshold=1e9
        ).run(10)
        assert eager.total_replans >= lazy.total_replans

    def test_sits_between_replan_and_incremental(self, network):
        replan = make_sim(network, "replan", rng=6, warm_start=False).run(12)
        hysteresis = make_sim(
            network, "hysteresis", rng=6, warm_start=False,
            hysteresis_threshold=0.15,
        ).run(12)
        incremental = make_sim(network, "incremental", rng=6).run(12)
        assert replan.mean_social_cost <= hysteresis.mean_social_cost + 1e-9
        assert hysteresis.mean_social_cost <= incremental.mean_social_cost + 1e-9
        assert 0 < hysteresis.total_replans < 12
        # replan epochs migrate; held epochs never do
        for record in hysteresis.epochs:
            if not record.replanned:
                assert record.migrations == 0

    def test_replan_policy_marks_every_epoch(self, network):
        summary = make_sim(network, "replan", rng=7).run(5)
        assert summary.total_replans == 5
        summary = make_sim(network, "incremental", rng=7).run(5)
        assert summary.total_replans == 0


class TestMigrationAccounting:
    def test_migration_cost_formula(self, network):
        sim = make_sim(network)
        provider = sim.population.present[0]
        cl_nodes = [c.node_id for c in network.cloudlets]
        old, new = cl_nodes[0], cl_nodes[-1]
        cost = sim.migration_cost(provider, old, new)
        hops = network.hop_count(old, new)
        expected = sim.pricing.transmission_cost(
            provider.service.data_volume_gb, hops
        ) + sim.migration_setup_cost
        assert cost == pytest.approx(expected)

    def test_same_cloudlet_is_not_a_migration(self, network):
        sim = make_sim(network, "replan")
        first = sim.step()
        # Re-running on an unchanged placement should not bill survivors
        # that stayed put: force no churn by monkeying the population step.
        placement_before = dict(sim.placement)
        record = sim.step()
        stayed = {
            pid for pid, node in sim.placement.items()
            if placement_before.get(pid) == node
        }
        # migrations counted only for movers, so it is bounded by the
        # number of providers whose cloudlet actually changed.
        movers = {
            pid for pid, node in sim.placement.items()
            if pid in placement_before and placement_before[pid] != node
        }
        assert record.migrations == len(movers)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "replan", "warm_start": False},
            {"policy": "replan", "warm_start": True},
            {"policy": "hysteresis", "hysteresis_threshold": 0.0},
        ],
    )
    def test_epoch_bill_is_the_endpoint_diff(self, network, kwargs):
        """Migration billing is the pre-epoch -> post-epoch placement diff.

        Whatever shuffling happens *inside* an epoch — capacity-repair
        evictions during a warm replan, a hysteresis epoch that places the
        incremental candidate and then replans over it — a survivor is
        billed at most once, for its old -> final hop (nothing if it ends
        where it started), and providers without a pre-epoch placement
        (arrivals, readmitted rejects) are billed nothing.
        """
        sim = make_sim(network, rng=13, gap_solver="greedy", **kwargs)
        saw_migration = False
        for _ in range(8):
            before = dict(sim.placement)
            record = sim.step()
            expected_cost, expected_count = 0.0, 0
            for pid, node in sim.placement.items():
                old = before.get(pid)
                if old is not None and old != node:
                    expected_cost += sim.migration_cost(
                        sim.market.provider(pid), old, node
                    )
                    expected_count += 1
            assert record.migration_cost == expected_cost
            assert record.migrations == expected_count
            saw_migration = saw_migration or expected_count > 0
        if not kwargs.get("warm_start", True):
            # Warm-started arms keep survivors pinned by design, so only
            # the cold replan is guaranteed to actually move someone.
            assert saw_migration, "trace never migrated; the test is vacuous"

    def test_evicted_and_readmitted_survivor_billed_once(self, network):
        """Crafted trace: a burst of arrivals forces the warm replan to
        evict survivors and re-enter them through the queue. Each moved
        survivor appears exactly once in the bill."""
        initial = draw_providers(network, 16, start_id=0, seed=14)
        burst = draw_providers(network, 16, start_id=100, seed=15)
        script = [(initial, []), (burst, []), ([], [])]
        sim = DynamicMarketSimulation(
            network, ScriptedPopulation(script),
            policy="replan", warm_start=True, gap_solver="greedy",
        )
        sim.step()
        before = dict(sim.placement)
        record = sim.step()
        movers = [
            pid for pid, node in sim.placement.items()
            if before.get(pid) is not None and before[pid] != node
        ]
        expected = sum(
            sim.migration_cost(sim.market.provider(pid), before[pid], node)
            for pid, node in sim.placement.items()
            if before.get(pid) is not None and before[pid] != node
        )
        assert record.migrations == len(movers)
        assert record.migration_cost == expected

    def test_empty_market_epoch(self, network):
        pop = PopulationProcess(
            network, arrival_rate=1.0, mean_lifetime=1.0, rng=11,
        )
        # force emptiness: no initial population and zero arrivals is
        # possible; simulate until an empty epoch shows up or assert the
        # record stays consistent regardless.
        sim = DynamicMarketSimulation(network, pop, policy="incremental")
        for _ in range(10):
            record = sim.step()
            if record.population == 0:
                assert record.social_cost == 0.0
                assert record.migration_cost == 0.0
                break
