"""RemoteTransport unit coverage: spool mechanics, leases, degradation.

The chaos-grade end-to-end scenarios (SIGKILL/wedge/restart matrices,
journaled resume across host loss, sharded simulations over real
agents) live in ``test_remote_chaos.py``; this module pins the
transport's *mechanics* — framing, the spool layout, the claim
protocol, lease liveness, orphan reassignment, and the degradation
ladder — mostly without spawning agent processes at all.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime import (
    DegradationEvent,
    HostAgentStats,
    HostLost,
    RemoteTransport,
    WorkerCrash,
    fetch_blob,
    run_host_agent,
)
from repro.runtime.remote import (
    _claim_one,
    _ensure_spool,
    _frame,
    _spool_dirs,
    _unframe,
    _write_atomic,
)

_FORK = multiprocessing.get_context("fork")


# --------------------------------------------------------------------- #
# Picklable task bodies (host agents unpickle these from the spool)
# --------------------------------------------------------------------- #
def _double(x):
    return 2 * x


def _slow_double(x):
    # Long enough that a SIGKILL sent once the claim shows always lands
    # while the task is still running.
    time.sleep(5.0)
    return 2 * x


def _boom(x):
    raise ValueError(f"cell {x} is poisoned")


def _unpicklable_result(x):
    return lambda: x  # noqa: E731 - deliberately not picklable


def _start_agent(spool, **kwargs):
    proc = _FORK.Process(
        target=run_host_agent, args=(str(spool),), kwargs=kwargs, daemon=True
    )
    proc.start()
    return proc


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


@pytest.fixture
def transport(spool):
    t = RemoteTransport(
        spool, lease_s=2.0, poll_interval_s=0.02, claim_timeout_s=30.0
    )
    yield t
    t.close()


def _stop(*procs, timeout=10.0):
    for proc in procs:
        proc.join(timeout=timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #
class TestFraming:
    def test_round_trip(self):
        payload = pickle.dumps({"id": "t-1", "args": (1, 2)})
        assert _unframe(_frame(payload)) == payload

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError, match="shorter than its header"):
            _unframe(b"RS")

    def test_bad_magic_rejected(self):
        framed = bytearray(_frame(b"payload"))
        framed[:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            _unframe(bytes(framed))

    def test_truncated_payload_rejected(self):
        framed = _frame(b"a longer payload than the cut below leaves")
        with pytest.raises(ValueError, match="truncated"):
            _unframe(framed[:-5])

    def test_flipped_bit_fails_crc(self):
        framed = bytearray(_frame(b"payload-bytes"))
        framed[-1] ^= 0x01
        with pytest.raises(ValueError, match="CRC32"):
            _unframe(bytes(framed))


# --------------------------------------------------------------------- #
# Spool layout and construction
# --------------------------------------------------------------------- #
class TestSpool:
    def test_layout_created_on_construction(self, spool):
        with RemoteTransport(spool, claim_timeout_s=30.0) as transport:
            assert transport.colocated is False
            for path in _spool_dirs(spool).values():
                assert os.path.isdir(path)

    def test_constructor_validation(self, spool):
        with pytest.raises(ConfigurationError, match="lease_s"):
            RemoteTransport(spool, lease_s=0.0)
        with pytest.raises(ConfigurationError, match="min_hosts"):
            RemoteTransport(spool, min_hosts=-1)
        with pytest.raises(ConfigurationError, match="degrade"):
            RemoteTransport(spool, degrade="shrug")

    def test_wait_for_hosts_times_out_loudly(self, transport):
        with pytest.raises(ConfigurationError, match="live host agent"):
            transport.wait_for_hosts(1, timeout_s=0.2)

    def test_workers_floor_is_one_with_no_hosts(self, transport):
        assert transport.workers == 1

    def test_publish_is_content_addressed_in_the_shared_store(self, spool):
        big = list(range(100_000))
        with RemoteTransport(spool, spill_threshold=0, claim_timeout_s=30.0) as t:
            ref = t.publish(("shard", 0, 1), big)
            assert ref.path is not None
            assert os.path.dirname(ref.path) == _spool_dirs(spool)["blobs"]
            assert os.path.basename(ref.path).startswith("sha256-")
            assert fetch_blob(ref) == big
            # Identical payload under a different key: one blob file.
            again = t.publish(("shard", 1, 9), big)
            assert again.path == ref.path
            assert len(os.listdir(_spool_dirs(spool)["blobs"])) == 1

    def test_submit_unpicklable_fn_names_the_offender(self, transport):
        with pytest.raises(ConfigurationError, match="task function"):
            transport.submit(lambda x: x, 1)

    def test_submit_after_close_rejected(self, spool):
        transport = RemoteTransport(spool, claim_timeout_s=30.0)
        transport.close()
        with pytest.raises(ConfigurationError, match="closed"):
            transport.submit(_double, 1)

    def test_close_fails_inflight_futures(self, spool):
        transport = RemoteTransport(spool, claim_timeout_s=30.0)
        fut = transport.submit(_double, 3)
        transport.close()
        with pytest.raises(HostLost, match="closed"):
            fut.result(timeout=5)
        # The withdrawn task file is gone from the spool.
        assert os.listdir(_spool_dirs(spool)["new"]) == []


# --------------------------------------------------------------------- #
# The claim protocol
# --------------------------------------------------------------------- #
class TestClaimProtocol:
    def test_exactly_one_claimant_wins(self, spool):
        dirs = _ensure_spool(spool)
        _write_atomic(
            os.path.join(dirs["new"], "t-0001.task"), _frame(b"payload")
        )
        a = os.path.join(dirs["claimed"], "host-a")
        b = os.path.join(dirs["claimed"], "host-b")
        os.makedirs(a)
        os.makedirs(b)
        first = _claim_one(dirs["new"], a)
        second = _claim_one(dirs["new"], b)
        assert first == "t-0001.task"
        assert second is None
        assert os.listdir(a) == ["t-0001.task"]

    def test_oldest_task_claimed_first(self, spool):
        dirs = _ensure_spool(spool)
        for serial in (3, 1, 2):
            _write_atomic(
                os.path.join(dirs["new"], f"t-{serial:04d}.task"), _frame(b"x")
            )
        mine = os.path.join(dirs["claimed"], "host-a")
        os.makedirs(mine)
        assert _claim_one(dirs["new"], mine) == "t-0001.task"


# --------------------------------------------------------------------- #
# Round trips through real agents
# --------------------------------------------------------------------- #
class TestRoundTrip:
    def test_submit_and_map_through_one_agent(self, spool, transport):
        agent = _start_agent(spool, lease_s=2.0, idle_exit_s=3.0)
        try:
            transport.wait_for_hosts(1, timeout_s=10.0)
            assert transport.submit(_double, 21).result(timeout=10) == 42
            assert transport.map(_double, [1, 2, 3]) == [2, 4, 6]
        finally:
            _stop(agent)

    def test_task_exceptions_relay_through_the_reply_channel(
        self, spool, transport
    ):
        agent = _start_agent(spool, lease_s=2.0, idle_exit_s=3.0)
        try:
            transport.wait_for_hosts(1, timeout_s=10.0)
            fut = transport.submit(_boom, 7)
            with pytest.raises(ValueError, match="cell 7 is poisoned"):
                fut.result(timeout=10)
        finally:
            _stop(agent)

    def test_unpicklable_result_degrades_to_a_named_error(
        self, spool, transport
    ):
        agent = _start_agent(spool, lease_s=2.0, idle_exit_s=3.0)
        try:
            transport.wait_for_hosts(1, timeout_s=10.0)
            fut = transport.submit(_unpicklable_result, 5)
            with pytest.raises(RuntimeError, match="not picklable"):
                fut.result(timeout=10)
        finally:
            _stop(agent)

    def test_two_agents_split_the_work(self, spool, transport):
        agents = [
            _start_agent(spool, host_id=f"agent-{i}", lease_s=2.0, idle_exit_s=3.0)
            for i in range(2)
        ]
        try:
            transport.wait_for_hosts(2, timeout_s=10.0)
            assert sorted(transport.live_hosts()) == ["agent-0", "agent-1"]
            assert transport.workers == 2
            tasks = list(range(8))
            assert transport.map(_double, tasks) == [2 * x for x in tasks]
        finally:
            _stop(*agents)


# --------------------------------------------------------------------- #
# Failure detection
# --------------------------------------------------------------------- #
class TestFailureDetection:
    def test_sigkilled_agent_fails_its_claim_with_host_lost(self, spool):
        """The local pid probe detects a SIGKILL long before the lease
        would expire — ``lease_s`` here is far above the test budget."""
        dirs = _ensure_spool(spool)
        with RemoteTransport(
            spool, lease_s=60.0, poll_interval_s=0.02, claim_timeout_s=600.0
        ) as transport:
            agent = _start_agent(spool, host_id="doomed", lease_s=60.0)
            try:
                transport.wait_for_hosts(1, timeout_s=10.0)
                fut = transport.submit(_slow_double, 1)
                # Wait for the agent to claim, then kill it mid-task.
                deadline = time.monotonic() + 10.0
                claim_dir = os.path.join(dirs["claimed"], "doomed")
                while time.monotonic() < deadline:
                    if os.path.isdir(claim_dir) and os.listdir(claim_dir):
                        break
                    time.sleep(0.01)
                agent.kill()
                agent.join(timeout=5.0)
                with pytest.raises(HostLost, match="doomed"):
                    fut.result(timeout=10)
            finally:
                _stop(agent)

    def test_host_lost_is_a_worker_crash(self):
        assert issubclass(HostLost, WorkerCrash)

    def test_corrupt_reply_surfaces_as_host_lost(self, spool):
        dirs = _ensure_spool(spool)
        with RemoteTransport(
            spool, lease_s=60.0, poll_interval_s=0.02, claim_timeout_s=600.0
        ) as transport:
            # Keep a live lease so the claim-timeout path stays quiet.
            lease = os.path.join(dirs["hosts"], "fake-host.json")
            _write_atomic(
                lease,
                json.dumps(
                    {"host": "fake-host", "node": os.uname().nodename,
                     "pid": os.getpid(), "slots": 1}
                ).encode("utf-8"),
            )
            fut = transport.submit(_double, 4)
            task_id = next(iter(transport._pending))
            # Forge a torn reply: framing is fine, pickle bytes are not.
            _write_atomic(
                os.path.join(dirs["replies"], f"{task_id}.reply"),
                _frame(b"\x00not a pickle"),
            )
            with pytest.raises(HostLost, match="corrupt"):
                fut.result(timeout=10)

    def test_recycle_requeues_a_dead_hosts_claims(self, spool):
        """Orphan reassignment: a claimed task whose host died goes back
        to ``tasks/new/`` at recycle while its future still waits."""
        dirs = _ensure_spool(spool)
        with RemoteTransport(
            spool, lease_s=0.3, poll_interval_s=10.0, min_hosts=0,
            claim_timeout_s=600.0,
        ) as transport:
            # Poller is effectively parked (10s cadence): stage a dead
            # host by hand and let recycle() do the detection.
            fut = transport.submit(_double, 6)
            task_file = f"{next(iter(transport._pending))}.task"
            ghost_dir = os.path.join(dirs["claimed"], "ghost")
            os.makedirs(ghost_dir)
            os.rename(
                os.path.join(dirs["new"], task_file),
                os.path.join(ghost_dir, task_file),
            )
            # No lease file for "ghost" at all: unambiguously dead.
            transport.recycle()
            assert os.listdir(ghost_dir) == []
            assert os.listdir(dirs["new"]) == [task_file]
            assert not fut.done()
            assert transport.degraded is False  # min_hosts=0: no floor

    def test_recycle_discards_claims_with_no_pending_future(self, spool):
        dirs = _ensure_spool(spool)
        with RemoteTransport(
            spool, lease_s=0.3, poll_interval_s=10.0, min_hosts=0,
            claim_timeout_s=600.0,
        ) as transport:
            ghost_dir = os.path.join(dirs["claimed"], "ghost")
            os.makedirs(ghost_dir)
            _write_atomic(
                os.path.join(ghost_dir, "someone-elses.task"), _frame(b"x")
            )
            transport.recycle()
            assert os.listdir(ghost_dir) == []
            assert os.listdir(dirs["new"]) == []


# --------------------------------------------------------------------- #
# The degradation ladder
# --------------------------------------------------------------------- #
class TestDegradation:
    def test_host_floor_degrades_to_pool_with_a_structured_event(self, spool):
        with RemoteTransport(
            spool, lease_s=0.5, poll_interval_s=0.02, min_hosts=1,
            fallback_workers=1, claim_timeout_s=600.0,
        ) as transport:
            with pytest.warns(RuntimeWarning, match="degrading"):
                transport.recycle()  # zero hosts < floor of one
            assert transport.degraded is True
            (event,) = transport.degradation_events
            assert event == DegradationEvent(
                requested="remote",
                used="pool",
                reason="host-floor",
                detail=event.detail,
            )
            assert "0 live host(s)" in event.detail
            # Dispatch keeps working, now through the local pool.
            assert transport.submit(_double, 8).result(timeout=30) == 16
            assert transport.map(_double, [1, 2]) == [2, 4]

    def test_pending_futures_bridge_to_the_pool(self, spool):
        with RemoteTransport(
            spool, lease_s=0.5, poll_interval_s=0.02, min_hosts=1,
            fallback_workers=1, claim_timeout_s=600.0,
        ) as transport:
            fut = transport.submit(_double, 9)  # no host will ever claim it
            with pytest.warns(RuntimeWarning, match="degrading"):
                transport.recycle()
            assert fut.result(timeout=30) == 18

    def test_unclaimed_timeout_degrades_without_an_explicit_recycle(
        self, spool
    ):
        import warnings

        with warnings.catch_warnings():
            # The warning fires on the poller thread; keep it from
            # exploding under ``-W error`` runs.
            warnings.simplefilter("ignore", RuntimeWarning)
            with RemoteTransport(
                spool, lease_s=0.5, poll_interval_s=0.02, min_hosts=1,
                fallback_workers=1, claim_timeout_s=0.2,
            ) as transport:
                fut = transport.submit(_double, 5)
                assert fut.result(timeout=30) == 10
                assert transport.degraded is True
                (event,) = transport.degradation_events
                assert event.reason == "unclaimed-timeout"

    def test_degrade_fail_raises_instead(self, spool):
        with RemoteTransport(
            spool, lease_s=0.5, poll_interval_s=0.02, min_hosts=1,
            degrade="fail", claim_timeout_s=600.0,
        ) as transport:
            fut = transport.submit(_double, 2)
            with pytest.raises(HostLost, match="degrade='fail'"):
                transport.recycle()
            with pytest.raises(HostLost):
                fut.result(timeout=5)
            (event,) = transport.degradation_events
            assert event.used == "error"


# --------------------------------------------------------------------- #
# The agent loop
# --------------------------------------------------------------------- #
class TestHostAgent:
    def test_rejects_bad_knobs(self, spool):
        """A non-positive lease would make the agent permanently dead to
        every transport while it serves — reject it up front (the CLI
        maps this to exit code 2)."""
        with pytest.raises(ConfigurationError, match="lease_s"):
            run_host_agent(spool, lease_s=0.0)
        with pytest.raises(ConfigurationError, match="poll_interval_s"):
            run_host_agent(spool, poll_interval_s=-1.0)
        with pytest.raises(ConfigurationError, match="slots"):
            run_host_agent(spool, slots=0)

    def test_idle_exit_and_stats(self, spool):
        stats = run_host_agent(
            spool, host_id="solo", lease_s=1.0, poll_interval_s=0.01,
            idle_exit_s=0.05,
        )
        assert isinstance(stats, HostAgentStats)
        assert stats.host_id == "solo"
        assert stats.exit_reason == "idle"
        assert stats.executed == 0
        # A cleanly exited agent withdraws its lease.
        assert os.listdir(_spool_dirs(spool)["hosts"]) == []

    def test_max_tasks_executes_exactly_n(self, spool, transport):
        futs = [transport.submit(_double, x) for x in range(3)]
        stats = run_host_agent(
            spool, host_id="bounded", lease_s=2.0, poll_interval_s=0.01,
            max_tasks=2,
        )
        assert stats.exit_reason == "max-tasks"
        assert stats.executed == 2
        assert len(stats.task_ids) == 2
        done = [f.result(timeout=10) for f in futs[:2]]
        assert sorted(done) == [0, 2]

    def test_restarted_agent_requeues_its_previous_claims(self, spool):
        """A crashed agent's claims are requeued when the *same* host id
        comes back, before any lease recovery has to fire."""
        dirs = _ensure_spool(spool)
        mine = os.path.join(dirs["claimed"], "reborn")
        os.makedirs(mine)
        _write_atomic(os.path.join(mine, "t-dead-0001.task"), _frame(b"x"))
        stats = run_host_agent(
            spool, host_id="reborn", lease_s=1.0, poll_interval_s=0.01,
            idle_exit_s=0.0, max_tasks=0,
        )
        assert stats.requeued_on_start == 1
        assert os.listdir(dirs["new"]) == ["t-dead-0001.task"]

    def test_clean_stop_requeues_unfinished_claims(self, spool):
        """``max_tasks=0`` exits before executing; anything claimed in
        the window (nothing here) plus the lease are cleaned up."""
        dirs = _ensure_spool(spool)
        run_host_agent(
            spool, host_id="tidy", lease_s=1.0, poll_interval_s=0.01,
            max_tasks=0,
        )
        assert os.listdir(dirs["hosts"]) == []

    def test_corrupt_task_file_is_answered_not_fatal(self, spool):
        dirs = _ensure_spool(spool)
        _write_atomic(
            os.path.join(dirs["new"], "t-corrupt-0001.task"),
            b"not even a frame",
        )
        stats = run_host_agent(
            spool, host_id="sturdy", lease_s=1.0, poll_interval_s=0.01,
            idle_exit_s=0.2,
        )
        assert stats.failed == 1
        (reply,) = os.listdir(dirs["replies"])
        assert reply == "t-corrupt-0001.reply"


# --------------------------------------------------------------------- #
# CLI smoke: ``repro host``
# --------------------------------------------------------------------- #
class TestHostCli:
    def test_host_subcommand_serves_and_reports(self, spool, capsys):
        from repro.cli import main

        rc = main(
            [
                "host",
                spool,
                "--host-id", "cli-agent",
                "--lease-s", "1.0",
                "--poll-interval-s", "0.01",
                "--idle-exit-s", "0.05",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-agent" in out
        assert "idle" in out
