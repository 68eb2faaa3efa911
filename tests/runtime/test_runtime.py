"""The :class:`repro.runtime.Runtime` facade.

Covers the public ``run`` surface — ``blobs=``, ``timeout=``, journal
coercion, ``resume=`` — plus ownership semantics (constructed vs
borrowed transports) and the off-main-thread timeout degradation.
"""

from __future__ import annotations

import importlib
import threading
import warnings

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime import (
    CheckpointJournal,
    RetryPolicy,
    Runtime,
    SerialTransport,
    TaskFailure,
)


def _square(x):
    return x * x


def _scaled(task, blobs):
    """Two-argument body for ``blobs=``: scale by the published factor."""
    return task * blobs["factor"]


def _sleepy(x):
    import time

    time.sleep(30.0)
    return x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("cell three is poisoned")
    return 2 * x


class TestConstruction:
    def test_workers_and_transport_are_mutually_exclusive(self):
        with SerialTransport() as transport:
            with pytest.raises(ConfigurationError, match="at most one"):
                Runtime(workers=2, transport=transport)

    def test_spool_is_mutually_exclusive_too(self, tmp_path):
        with SerialTransport() as transport:
            with pytest.raises(ConfigurationError, match="at most one"):
                Runtime(transport=transport, spool=tmp_path / "spool")

    def test_spool_rejects_spill_dir(self, tmp_path):
        with pytest.raises(ConfigurationError, match="spill_dir"):
            Runtime(spool=tmp_path / "spool", spill_dir=tmp_path / "spill")

    def test_default_is_serial(self):
        with Runtime() as rt:
            assert rt.workers == 1

    def test_borrowed_transport_survives_close(self):
        transport = SerialTransport()
        rt = Runtime(transport=transport)
        rt.close()
        assert transport.publish(1) is not None  # still open
        transport.close()

    def test_owned_transport_closed_with_runtime(self):
        rt = Runtime(workers=1)
        transport = rt.transport
        rt.close()
        with pytest.raises(ConfigurationError, match="closed"):
            transport.publish(1)

    def test_close_joins_the_pool_manager_thread(self):
        # A manager thread left running at close races the interpreter's
        # exit hook over the pool's wakeup pipe ("Bad file descriptor").
        from concurrent.futures.process import _ExecutorManagerThread

        def managers():
            return {
                t for t in threading.enumerate()
                if isinstance(t, _ExecutorManagerThread)
            }

        before = managers()
        rt = Runtime(workers=2)
        assert rt.map(_square, [1, 2, 3]) == [1, 4, 9]
        started = managers() - before
        assert started  # the pool really ran
        rt.close()
        assert not [t for t in started if t.is_alive()]

    def test_dispatch_after_close_rejected(self):
        rt = Runtime()
        rt.close()
        with pytest.raises(ConfigurationError, match="closed"):
            rt.run(_square, [1])
        with pytest.raises(ConfigurationError, match="closed"):
            rt.map(_square, [1])


class TestRun:
    def test_serial_and_parallel_agree(self):
        tasks = list(range(6))
        with Runtime() as serial, Runtime(workers=2) as parallel:
            expected = [x * x for x in tasks]
            assert serial.run(_square, tasks) == expected
            assert parallel.run(_square, tasks) == expected

    def test_blobs_are_published_and_fetched_lazily(self):
        for workers in (1, 2):
            with Runtime(workers=workers) as rt:
                results = rt.run(_scaled, [1, 2, 3], blobs={"factor": 10})
                assert results == [10, 20, 30]

    def test_timeout_shorthand(self):
        with Runtime() as rt:
            results = rt.run(_sleepy, [7], timeout=0.2)
            (failure,) = results
            assert isinstance(failure, TaskFailure)
            assert failure.kind == "timeout"

    def test_timeout_overrides_retry_policy_budget(self):
        with Runtime() as rt:
            results = rt.run(
                _sleepy,
                [7],
                retry=RetryPolicy(max_attempts=1, timeout_s=60.0),
                timeout=0.2,
            )
            assert isinstance(results[0], TaskFailure)
            assert results[0].attempts == 1

    def test_journal_accepts_a_path(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        with Runtime() as rt:
            first = rt.run(_square, [1, 2, 3], journal=path)
        assert first == [1, 4, 9]
        assert CheckpointJournal(path).load() == {(0,): 1, (1,): 4, (2,): 9}

    def test_resume_replays_completed_cells(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        journal = CheckpointJournal(path)
        journal.record((0,), 111)
        with Runtime() as rt:
            results = rt.run(_square, [5, 6], journal=journal, resume=True)
        # Cell 0 replayed from disk (not recomputed), cell 1 executed.
        assert results == [111, 36]

    def test_without_resume_stale_journal_is_truncated(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        journal = CheckpointJournal(path)
        journal.record((0,), 111)
        with Runtime() as rt:
            results = rt.run(_square, [5, 6], journal=journal)
        assert results == [25, 36]

    def test_failures_are_tombstones_in_order(self):
        with Runtime() as rt:
            results = rt.run(
                _fail_on_three,
                [1, 3, 4],
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            )
        assert results[0] == 2 and results[2] == 8
        assert isinstance(results[1], TaskFailure)
        assert results[1].key == (1,)


class TestMap:
    def test_map_matches_plain_loop(self):
        tasks = [3, 1, 2]
        with Runtime(workers=2) as rt:
            assert rt.map(_square, tasks) == [9, 1, 4]


class TestOffMainThreadTimeout:
    """satellite: per-task timeouts are *enforced* off the main thread.

    Where ``signal.signal`` raises ValueError (any non-main thread), the
    supervisor no longer degrades to an untimed run with a warning — it
    falls back to a portable wall clock, so a quick task completes
    normally and a wedged one still raises through the timeout path.
    """

    def test_quick_task_completes_off_main_thread(self):
        outcome = {}

        def drive():
            with Runtime() as rt:
                outcome["results"] = rt.run(_square, [4], timeout=5.0)

        worker = threading.Thread(target=drive)
        worker.start()
        worker.join()
        assert outcome["results"] == [16]

    def test_wedged_task_times_out_off_main_thread(self):
        outcome = {}

        def drive():
            with Runtime() as rt:
                outcome["results"] = rt.run(
                    _sleepy,
                    [7],
                    retry=RetryPolicy(max_attempts=1, timeout_s=0.2),
                )

        worker = threading.Thread(target=drive)
        worker.start()
        worker.join(timeout=20.0)
        assert not worker.is_alive()
        (failure,) = outcome["results"]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout"
        assert "wall-clock" in failure.message


def test_runtime_package_imports_stay_warning_free():
    """Importing the runtime package (or repro.experiments) must not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        importlib.import_module("repro.runtime")
        importlib.import_module("repro.experiments")
        importlib.import_module("repro.experiments.parallel")
