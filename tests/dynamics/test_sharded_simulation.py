"""Sharded dynamic-market runs: wiring, determinism, and the journal."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.dynamics.outages import IndependentOutageTrace
from repro.dynamics.population import PopulationProcess
from repro.dynamics.simulation import DynamicMarketSimulation
from repro.exceptions import ConfigurationError
from repro.runtime import CheckpointJournal, Runtime
from repro.market.shard import ShardLog
from repro.network.generators import random_mec_network
from repro.utils.validation import CAPACITY_EPS


def make_sim(network, seed=11, **kwargs):
    population = PopulationProcess(
        network, arrival_rate=6.0, mean_lifetime=5.0,
        rng=seed, initial_population=20,
    )
    return DynamicMarketSimulation(
        network, population, policy="incremental", **kwargs
    )


def make_busy_sim(network, **kwargs):
    """A larger, faster-churning population under a 3 ms latency budget on
    the default region partition: its epochs leave two or more shards
    with an interior that can still move, so the settle has work to
    dispatch (the small :func:`make_sim` markets settle every interior
    in-process)."""
    population = PopulationProcess(
        network, arrival_rate=20.0, mean_lifetime=5.0,
        rng=11, initial_population=150,
    )
    return DynamicMarketSimulation(
        network, population, policy="incremental", sharding="region",
        latency_budget_ms=3.0, **kwargs
    )


@pytest.fixture(scope="module")
def network():
    return random_mec_network(100, rng=5)


@pytest.fixture(scope="module")
def busy_network():
    return random_mec_network(300, rng=5)


@contextmanager
def counting_map():
    """Record the task count of every ``Runtime.map`` batch."""
    batches = []
    real_map = Runtime.map

    def _map(self, fn, tasks):
        tasks = list(tasks)
        batches.append(len(tasks))
        return real_map(self, fn, tasks)

    with mock.patch.object(Runtime, "map", _map):
        yield batches


def assert_pool_dispatched(batches):
    """The settle sent shard interiors to the pool: ``Runtime.map`` runs
    a batch of one in-process, so at least one batch must be larger."""
    assert max(batches, default=0) > 1, f"map batches: {batches}"


class TestValidation:
    def test_unknown_sharding_mode_rejected(self, network):
        with pytest.raises(ConfigurationError):
            make_sim(network, sharding="hash")

    def test_object_representation_rejected(self, network):
        # One representation: the representation= option is gone.
        with pytest.raises(TypeError):
            make_sim(network, sharding="region", representation="object")

    def test_boundary_rounds_floor(self, network):
        with pytest.raises(ConfigurationError):
            make_sim(network, sharding="region", boundary_rounds=0)

    @pytest.mark.parametrize("option", ["shard_runtime", "shard_journal"])
    def test_shard_options_need_region_sharding(
        self, network, tmp_path, option
    ):
        value = (
            Runtime() if option == "shard_runtime"
            else CheckpointJournal(tmp_path / "log.jsonl")
        )
        with pytest.raises(ConfigurationError, match=option):
            make_sim(network, **{option: value})

    def test_sharding_off_keeps_layer_dormant(self, network):
        sim = make_sim(network)
        sim.run(3)
        assert sim._partition is None
        assert sim._shard_log is None
        assert all(e.settle_moves == 0 for e in sim.run(1).epochs)
        assert all(
            e.equilibrium_certified is None for e in sim.run(1).epochs
        )


class TestShardedRun:
    def test_epochs_settle_to_certified_equilibria(self, network):
        sim = make_sim(network, sharding="region", n_shards=3)
        summary = sim.run(5)
        assert sim._partition is not None
        assert sim._shard_log.seq == 4  # founding epoch seeds, 4 deltas
        for epoch in summary.epochs:
            if epoch.population:
                assert epoch.equilibrium_certified is True
        assert summary.total_settle_moves >= 0

    def test_deterministic_across_runs(self, network):
        sa = make_sim(network, sharding="region", n_shards=3).run(4)
        sb = make_sim(network, sharding="region", n_shards=3).run(4)
        for ea, eb in zip(sa.epochs, sb.epochs):
            assert ea.social_cost == eb.social_cost
            assert ea.migration_cost == eb.migration_cost
            assert ea.settle_moves == eb.settle_moves

    def test_parallel_workers_match_serial(self, busy_network):
        # The latency budget gives the shards interiors to dispatch;
        # without one every provider is boundary and the pool idles.
        ss = make_busy_sim(busy_network).run(3)
        with Runtime(workers=2) as runtime, counting_map() as batches:
            sp = make_busy_sim(busy_network, shard_runtime=runtime).run(3)
        assert_pool_dispatched(batches)
        for a, b in zip(ss.epochs, sp.epochs):
            assert a.social_cost == b.social_cost
            assert a.settle_moves == b.settle_moves

    def test_close_is_idempotent(self, busy_network):
        """The caller owns the runtime: the simulation only borrows it,
        and closing it (twice) after the run is safe."""
        runtime = Runtime(workers=2)
        sim = make_busy_sim(busy_network, shard_runtime=runtime)
        with counting_map() as batches:
            sim.run(1)
        runtime.close()
        runtime.close()
        assert_pool_dispatched(batches)

    @pytest.mark.parametrize("recovery", ["failover", "replan"])
    def test_outages_stay_certified_within_capacity(self, network, recovery):
        """Region sharding under frequent cloudlet outages: every
        populated epoch settles to a certified equilibrium that fits the
        surviving capacity."""
        population = PopulationProcess(
            network, arrival_rate=6.0, mean_lifetime=5.0,
            rng=11, initial_population=20,
        )
        sim = DynamicMarketSimulation(
            network, population, policy="replan", latency_budget_ms=3.0,
            sharding="region", recovery=recovery,
            outages=IndependentOutageTrace(network, mttf=3.0, mttr=2.0, rng=7),
        )
        outages = 0
        for _ in range(8):
            epoch = sim.step()
            outages += len(epoch.outages)
            if not epoch.population:
                continue
            assert epoch.equilibrium_certified is True
            cm = sim.market.compile()
            assert np.all(
                cm.load_matrix(sim.placement) <= cm.capacity + CAPACITY_EPS
            )
        assert outages > 0


class TestJournal:
    def test_journal_replays_the_routed_stream(self, network, tmp_path):
        journal = CheckpointJournal(tmp_path / "log.jsonl")
        sim = make_sim(
            network, sharding="region", n_shards=3, shard_journal=journal
        )
        routed = []
        real_append = ShardLog.append

        def append(log, delta):
            out = real_append(log, delta)
            routed.extend(out)
            return out

        with mock.patch.object(ShardLog, "append", autospec=True, side_effect=append):
            sim.run(5)
        replayed = ShardLog.replay(journal)
        live = sorted(routed, key=lambda sd: (sd.seq, sd.shard_id))
        assert len(replayed) == len(live)
        for a, b in zip(replayed, live):
            assert a.to_payload() == b.to_payload()
        assert max(sd.seq for sd in replayed) == sim._shard_log.seq
        # One durable line per global delta, not one per sub-delta.
        lines = open(journal.path).read().splitlines()
        assert len(lines) == sim._shard_log.seq < len(live)
