"""Chaos-grade end-to-end scenarios against real ``repro host`` agents.

The acceptance bar for the multi-host seam, exercised with processes
actually dying:

* a SIGKILLed host surfaces as ``WorkerCrash`` and the grid still
  completes (bystanders refunded, suspects re-run solo);
* a wedged host starves its lease and the work moves to a survivor;
* a restarted agent picks a grid back up;
* a journaled sweep interrupted by host loss resumes bit-identically
  to an uninterrupted serial run;
* a region-sharded :class:`DynamicMarketSimulation` over a
  ``RemoteTransport`` with two agents is bit-identical to serial, and
  degrades to a local pool (with a recorded
  :class:`~repro.runtime.DegradationEvent`) when every agent dies.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.dynamics.population import PopulationProcess
from repro.dynamics.simulation import DynamicMarketSimulation
from repro.experiments.harness import legacy_point_seed
from repro.experiments.parallel import ParallelSweepRunner
from repro.network.generators import random_mec_network
from repro.runtime import (
    CheckpointJournal,
    RemoteTransport,
    RetryPolicy,
    Runtime,
    TaskFailure,
    run_host_agent,
)

from tests.runtime.test_differential import (
    X_VALUES,
    jo_table,
    make_tiny_market,
    _sweep_metrics,
)

_FORK = multiprocessing.get_context("fork")
REPETITIONS = 2


# --------------------------------------------------------------------- #
# Picklable task bodies
# --------------------------------------------------------------------- #
def _square(x):
    return x * x


def _kill_host_on_two(args):
    """SIGKILL the executing host on the first visit to cell 2."""
    x, scratch = args
    if x == 2:
        marker = Path(scratch) / "host-killed"
        if not marker.exists():
            marker.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
    return 10 * x


def _wedge_host_on_one(args):
    """Sleep far past the lease on the first visit to cell 1: with no
    in-worker alarm armed, only lease starvation can catch this."""
    x, scratch = args
    if x == 1:
        marker = Path(scratch) / "wedged"
        if not marker.exists():
            marker.write_text("x")
            time.sleep(30.0)
    return 5 * x


#: The sweep cell whose market build SIGKILLs its host: ``(x, seed)``
#: of grid cell ``(x_index=1, rep=1)`` under the default seed scheme.
_DOOMED = (X_VALUES[1], legacy_point_seed(1, 1))


def make_market_killing_host(x, seed):
    if (x, seed) == _DOOMED:
        os.kill(os.getpid(), signal.SIGKILL)
    return make_tiny_market(x, seed)


# --------------------------------------------------------------------- #
# Agent helpers
# --------------------------------------------------------------------- #
def _start_agents(spool, count, *, lease_s, prefix="agent"):
    agents = []
    for i in range(count):
        proc = _FORK.Process(
            target=run_host_agent,
            args=(str(spool),),
            kwargs={
                "host_id": f"{prefix}-{i}",
                "lease_s": lease_s,
                "poll_interval_s": 0.01,
            },
            daemon=True,
        )
        proc.start()
        agents.append(proc)
    return agents


def _stop_agents(agents):
    for agent in agents:
        if agent.is_alive():
            agent.kill()
        agent.join(timeout=10.0)


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


# --------------------------------------------------------------------- #
# SIGKILL / wedge / restart matrix
# --------------------------------------------------------------------- #
class TestHostLossMatrix:
    def test_sigkilled_host_costs_only_its_cells(self, spool, tmp_path):
        """Cell 2 SIGKILLs its host mid-task; the survivor (plus retry)
        completes the whole grid, bystanders uncharged."""
        agents = _start_agents(spool, 2, lease_s=10.0)
        transport = RemoteTransport(
            spool, lease_s=10.0, poll_interval_s=0.02, claim_timeout_s=120.0
        )
        try:
            transport.wait_for_hosts(2, timeout_s=30.0)
            with Runtime(transport=transport) as rt:
                results = rt.run(
                    _kill_host_on_two,
                    [(x, str(tmp_path)) for x in range(5)],
                    retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
                )
            assert results == [0, 10, 20, 30, 40]
            assert (tmp_path / "host-killed").exists()
            assert transport.degraded is False  # one agent survived
        finally:
            transport.close()
            _stop_agents(agents)

    def test_wedged_host_starves_its_lease_and_work_moves_on(
        self, spool, tmp_path
    ):
        """No in-worker alarm is armed (``timeout_s=None``): the wedge
        is caught purely by lease expiry, and the re-run lands on the
        surviving agent."""
        agents = _start_agents(spool, 2, lease_s=0.5)
        transport = RemoteTransport(
            spool, lease_s=0.5, poll_interval_s=0.02, claim_timeout_s=120.0
        )
        try:
            transport.wait_for_hosts(2, timeout_s=30.0)
            with Runtime(transport=transport) as rt:
                results = rt.run(
                    _wedge_host_on_one,
                    [(x, str(tmp_path)) for x in range(4)],
                    retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
                )
            assert results == [0, 5, 10, 15]
            assert (tmp_path / "wedged").exists()
        finally:
            transport.close()
            _stop_agents(agents)

    def test_restarted_agent_resumes_the_grid(self, spool):
        """Kill the only agent mid-grid, then start a fresh one: the
        transport's recycle() requeues the orphaned claim and the new
        agent finishes the work."""
        first = _start_agents(spool, 1, lease_s=10.0, prefix="first")
        transport = RemoteTransport(
            spool, lease_s=10.0, poll_interval_s=0.02, min_hosts=0,
            claim_timeout_s=600.0,
        )
        second = []
        try:
            transport.wait_for_hosts(1, timeout_s=30.0)
            futs = [transport.submit(_square, x) for x in range(30)]
            # Let the first agent make some progress, then kill it.
            while not futs[0].done():
                time.sleep(0.01)
            _stop_agents(first)
            second = _start_agents(spool, 1, lease_s=10.0, prefix="second")
            transport.wait_for_hosts(1, timeout_s=30.0)
            # Requeue whatever died claimed-but-unfinished.
            transport.recycle()
            results = []
            for x, fut in enumerate(futs):
                try:
                    results.append(fut.result(timeout=60))
                except Exception:
                    # The cell that was in the dead agent's hands fails
                    # with HostLost; re-dispatch it like supervise would.
                    results.append(
                        transport.submit(_square, x).result(timeout=60)
                    )
            assert results == [x * x for x in range(30)]
            assert transport.degraded is False
        finally:
            transport.close()
            _stop_agents(first)
            _stop_agents(second)


# --------------------------------------------------------------------- #
# Journaled sweep resumed across host loss
# --------------------------------------------------------------------- #
class TestJournaledSweepAcrossHostLoss:
    def test_resumed_sweep_is_bit_identical_to_uninterrupted_serial(
        self, spool, tmp_path
    ):
        journal_path = str(tmp_path / "sweep.jsonl")

        # The uninterrupted serial reference.
        reference = ParallelSweepRunner(workers=None).run(
            name="ref",
            x_label="size",
            x_values=X_VALUES,
            make_market=make_tiny_market,
            make_algorithms=jo_table,
            repetitions=REPETITIONS,
        )

        # Phase 1: one agent; building cell (1, 1)'s market SIGKILLs it.
        # The host-floor degradation re-runs the suspect in a local pool
        # where it dies again, so the cell tombstones after one charged
        # attempt — every other cell is journaled.
        agents = _start_agents(spool, 1, lease_s=5.0, prefix="doomed")
        transport = RemoteTransport(
            spool, lease_s=5.0, poll_interval_s=0.02, min_hosts=1,
            fallback_workers=1, claim_timeout_s=600.0,
        )
        try:
            transport.wait_for_hosts(1, timeout_s=30.0)
            with Runtime(transport=transport) as rt:
                with pytest.warns(RuntimeWarning, match="degrading"):
                    interrupted = ParallelSweepRunner().run(
                        name="chaos",
                        x_label="size",
                        x_values=X_VALUES,
                        make_market=make_market_killing_host,
                        make_algorithms=jo_table,
                        repetitions=REPETITIONS,
                        retry=RetryPolicy(max_attempts=1, base_delay_s=0.0),
                        checkpoint=journal_path,
                        runtime=rt,
                    )
            (failure,) = interrupted.failures
            assert isinstance(failure, TaskFailure)
            assert failure.key == (1, 1)
            assert failure.kind == "worker-crash"
            assert any(
                e.reason == "host-floor" for e in transport.degradation_events
            )
        finally:
            transport.close()
            _stop_agents(agents)

        journaled = CheckpointJournal(journal_path).load()
        assert set(journaled) == {(0, 0), (0, 1), (1, 0)}

        # Phase 2: healthy agents on a fresh transport resume the sweep;
        # only the lost cell re-runs, and the metrics equal the serial
        # reference float for float.
        agents = _start_agents(spool, 2, lease_s=5.0, prefix="healthy")
        transport = RemoteTransport(
            spool, lease_s=5.0, poll_interval_s=0.02, claim_timeout_s=120.0
        )
        try:
            transport.wait_for_hosts(2, timeout_s=30.0)
            with Runtime(transport=transport) as rt:
                resumed = ParallelSweepRunner().run(
                    name="chaos",
                    x_label="size",
                    x_values=X_VALUES,
                    make_market=make_tiny_market,
                    make_algorithms=jo_table,
                    repetitions=REPETITIONS,
                    checkpoint=journal_path,
                    resume=True,
                    runtime=rt,
                )
            assert resumed.failures == []
            assert _sweep_metrics(resumed) == _sweep_metrics(reference)
        finally:
            transport.close()
            _stop_agents(agents)


# --------------------------------------------------------------------- #
# Sharded simulation over real agents
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def network():
    return random_mec_network(300, rng=5)


def _make_sim(network, seed=11, **kwargs):
    population = PopulationProcess(
        network, arrival_rate=20.0, mean_lifetime=5.0,
        rng=seed, initial_population=150,
    )
    # The tight latency budget is what gives the region shards
    # non-trivial interiors — without it every provider is boundary and
    # the settle would never dispatch to the host agents at all. The
    # population is large and churns fast enough that shard interiors
    # still have moves to make in the later epochs.
    return DynamicMarketSimulation(
        network, population, policy="incremental",
        sharding="region", latency_budget_ms=3.0, **kwargs
    )


def _epoch_signature(epochs):
    return [
        (e.social_cost, e.migration_cost, e.settle_moves, e.population)
        for e in epochs
    ]


class TestShardedSimulationOverRemote:
    def test_two_agents_bit_identical_to_serial(self, network, spool):
        ss = _make_sim(network).run(3)

        agents = _start_agents(spool, 2, lease_s=10.0)
        transport = RemoteTransport(
            spool, lease_s=10.0, poll_interval_s=0.02, claim_timeout_s=120.0
        )
        try:
            transport.wait_for_hosts(2, timeout_s=30.0)
            with Runtime(transport=transport) as rt:
                sr = _make_sim(network, shard_runtime=rt).run(3)
            assert transport.degraded is False
            assert transport.degradation_events == []
            # The settle really went through the spool (tasks were
            # submitted to the agents), not some in-process shortcut.
            assert transport._serial > 0
        finally:
            transport.close()
            _stop_agents(agents)

        assert _epoch_signature(sr.epochs) == _epoch_signature(ss.epochs)

    def test_killing_every_agent_degrades_to_pool_mid_run(
        self, network, spool
    ):
        ss = _make_sim(network).run(3)

        agents = _start_agents(spool, 2, lease_s=2.0)
        transport = RemoteTransport(
            spool, lease_s=2.0, poll_interval_s=0.02, min_hosts=1,
            fallback_workers=2, claim_timeout_s=1.0,
        )
        try:
            transport.wait_for_hosts(2, timeout_s=30.0)
            with Runtime(transport=transport) as rt:
                remote_sim = _make_sim(network, shard_runtime=rt)
                first = remote_sim.run(1)
                # Every agent dies between epochs; the next settle's
                # unclaimed tasks trip the degradation ladder.
                _stop_agents(agents)
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    rest = remote_sim.run(2)
            assert transport.degraded is True
            assert any(
                e.requested == "remote" and e.used == "pool"
                for e in transport.degradation_events
            )
        finally:
            transport.close()
            _stop_agents(agents)

        # Degrading mid-run changes *where* shards settle, never the
        # numbers: the stitched epochs equal the serial run's.
        assert _epoch_signature(first.epochs + rest.epochs) == _epoch_signature(
            ss.epochs
        )
