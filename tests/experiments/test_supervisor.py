"""The supervising executor: retry, timeout, crash isolation, checkpoints.

The chaos tests exercise the failure modes ``pool.map`` cannot survive —
a SIGKILLed worker mid-grid, a persistently poisoned cell, a wedged task
— and the resume contract: a journal written by an interrupted run
completes bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.harness import sweep
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network
from repro.runtime import CheckpointJournal, RetryPolicy, Runtime, TaskFailure


def run_grid(fn, tasks, workers=1, **kwargs):
    """One supervised grid on a fresh ``Runtime(workers=workers)``."""
    with Runtime(workers=workers) as runtime:
        return runtime.run(fn, tasks, **kwargs)


# --------------------------------------------------------------------- #
# Picklable task bodies (process-pool workers import this module)
# --------------------------------------------------------------------- #
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("cell three is poisoned")
    return 2 * x


def _flaky(args):
    """Fail until two attempt-markers exist, then succeed."""
    x, scratch = args
    marks = sorted(Path(scratch).glob(f"attempt-{x}-*"))
    if len(marks) < 2:
        (Path(scratch) / f"attempt-{x}-{len(marks)}").write_text("x")
        raise RuntimeError(f"flaky cell {x}, attempt {len(marks) + 1}")
    return 100 + x


def _sigkill_once(args):
    """SIGKILL the worker on the first visit to cell 2, succeed after."""
    x, scratch = args
    if x == 2:
        marker = Path(scratch) / "crashed"
        if not marker.exists():
            marker.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
    return 10 * x


def _exit_always(x):
    if x == 2:
        os._exit(9)
    return 10 * x


def _wedge_on_one(x):
    if x == 1:
        time.sleep(30.0)
    return x


def make_tiny_market(size, seed):
    network = random_mec_network(int(size), rng=seed)
    return generate_market(network, 6, rng=seed + 1)


def make_poisoned_market(size, seed):
    if int(size) == 666:
        raise ValueError("poisoned sweep cell")
    return make_tiny_market(size, seed)


def jo_table(_x):
    from repro.core.baselines import jo_offload_cache

    return {"Jo": jo_offload_cache}


# --------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay(0)

    def test_delay_is_pure_in_task_and_attempt(self):
        """The backoff schedule is a pure function of ``(policy, attempt)``
        — repeated and interleaved evaluations agree with the closed form
        and never consult the wall clock."""
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.05, backoff=2.0)
        expected = [0.05 * 2.0 ** (a - 1) for a in range(1, 6)]
        first = [policy.delay(a) for a in range(1, 6)]
        time.sleep(0.01)  # any clock dependence would show up here
        second = [policy.delay(a) for a in reversed(range(1, 6))]
        assert first == expected
        assert list(reversed(second)) == expected

    def test_zero_base_delay_allowed(self):
        assert RetryPolicy(base_delay_s=0.0).delay(3) == 0.0


# --------------------------------------------------------------------- #
# Runtime.run basics
# --------------------------------------------------------------------- #
class TestSupervisedMap:
    def test_serial_order_preserved(self):
        assert run_grid(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        tasks = list(range(6))
        assert run_grid(_square, tasks, workers=2) == [
            x * x for x in tasks
        ]

    def test_key_count_validated(self):
        with pytest.raises(ConfigurationError, match="keys"):
            run_grid(_square, [1, 2], keys=[(1,)], workers=1)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            run_grid(_square, [1, 2], keys=[(0,), (0,)], workers=1)

    def test_persistent_failure_is_isolated(self):
        """The poisoned cell becomes a TaskFailure; the grid completes."""
        delays = []
        results = run_grid(
            _fail_on_three,
            [1, 2, 3, 4],
            workers=1,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
            sleep=delays.append,
        )
        assert results[0] == 2 and results[1] == 4 and results[3] == 8
        failure = results[2]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "exception"
        assert failure.attempts == 3
        assert failure.error_type == "ValueError"
        assert failure.key == (2,)

    def test_backoff_schedule_of_a_flaky_cell(self, tmp_path):
        """A cell failing twice sleeps exactly delay(1) then delay(2)."""
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.05, backoff=3.0)
        delays = []
        results = run_grid(
            _flaky,
            [(7, str(tmp_path))],
            workers=1,
            retry=policy,
            sleep=delays.append,
        )
        assert results == [107]
        assert delays == [policy.delay(1), policy.delay(2)]

    def test_fail_fast_reraises(self):
        with pytest.raises(ValueError, match="poisoned"):
            run_grid(
                _fail_on_three,
                [1, 2, 3],
                workers=1,
                retry=RetryPolicy(max_attempts=1),
                fail_fast=True,
            )


# --------------------------------------------------------------------- #
# Chaos: crashes and timeouts
# --------------------------------------------------------------------- #
class TestChaos:
    def test_sigkilled_worker_retries_and_completes(self, tmp_path):
        """SIGKILL mid-grid: the pool is rebuilt, the crashed cell is
        charged one attempt and re-run, and the grid still completes."""
        tasks = [(x, str(tmp_path)) for x in range(5)]
        results = run_grid(
            _sigkill_once,
            tasks,
            workers=2,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        assert results == [0, 10, 20, 30, 40]
        assert (tmp_path / "crashed").exists()

    def test_persistent_crasher_surfaces_as_worker_crash(self):
        results = run_grid(
            _exit_always,
            [0, 1, 2, 3],
            workers=2,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        )
        assert results[0] == 0 and results[1] == 10 and results[3] == 30
        failure = results[2]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "worker-crash"
        assert failure.attempts == 2

    def test_wedged_task_times_out(self):
        results = run_grid(
            _wedge_on_one,
            [0, 1, 2],
            workers=2,
            retry=RetryPolicy(max_attempts=1, timeout_s=0.3),
        )
        assert results[0] == 0 and results[2] == 2
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "timeout"
        assert failure.error_type == "TaskTimeout"


# --------------------------------------------------------------------- #
# Checkpoint journal
# --------------------------------------------------------------------- #
class TestCheckpointJournal:
    def test_round_trips_floats_exactly(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        value = {"cost": 0.1 + 0.2, "n": 3}
        journal.record((0, 1), value)
        assert journal.load() == {(0, 1): value}
        assert journal.load()[(0, 1)]["cost"] == 0.1 + 0.2

    def test_corrupt_tail_line_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.record((0,), 1.5)
        journal.record((1,), 2.5)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": [2], "val')  # crash mid-append
        assert journal.load() == {(0,): 1.5, (1,): 2.5}

    def test_clear_truncates(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.record((0,), 1)
        journal.clear()
        assert journal.load() == {}

    def test_resume_runs_only_missing_cells(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        tasks = list(range(4))
        first = run_grid(_square, tasks, workers=1, journal=journal)
        assert first == [0, 1, 4, 9]

        # Drop the last journal line: cell 3 must re-run, the others replay.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        path.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_grid(
            _square, tasks, workers=1, journal=journal, resume=True
        )
        assert resumed == first
        # ...and a fully-journaled grid runs nothing at all, even with a
        # task body that would now fail.
        replayed = run_grid(
            _fail_on_three, [0, 0, 0, 3], workers=1,
            retry=RetryPolicy(max_attempts=1), journal=journal, resume=True,
        )
        assert replayed == first


# --------------------------------------------------------------------- #
# Sweep-level resume: the acceptance scenario
# --------------------------------------------------------------------- #
def _point_metrics(result):
    """Per-point per-algorithm metrics, wall-clock runtime excluded."""
    table = []
    for point in result.points:
        row = {}
        for alg, metrics in point.items():
            d = asdict(metrics)
            d.pop("runtime_s")
            row[alg] = d
        table.append(row)
    return table


class TestSweepResume:
    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        kwargs = dict(
            name="t",
            x_label="size",
            x_values=[24, 30],
            make_market=make_tiny_market,
            make_algorithms=jo_table,
            repetitions=2,
        )
        baseline = sweep(**kwargs)
        full = sweep(**kwargs, checkpoint=str(checkpoint))
        assert _point_metrics(full) == _point_metrics(baseline)

        # "Interrupt" the run: keep only the first cell of the journal,
        # as if the driver was killed three cells into the grid.
        lines = checkpoint.read_text().strip().splitlines()
        assert len(lines) == 4
        checkpoint.write_text(lines[0] + "\n")
        resumed = sweep(**kwargs, checkpoint=str(checkpoint), resume=True)
        assert _point_metrics(resumed) == _point_metrics(baseline)
        assert resumed.failures == []
        # The journal is now complete again.
        assert len(checkpoint.read_text().strip().splitlines()) == 4

    def test_poisoned_cell_surfaces_without_aborting(self):
        result = sweep(
            name="t",
            x_label="size",
            x_values=[24, 666],
            make_market=make_poisoned_market,
            make_algorithms=jo_table,
            repetitions=2,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        )
        # The healthy point aggregated; the poisoned one failed cleanly
        # (it keeps its slot, empty, so points stay aligned to x_values).
        assert len(result.points) == 2
        assert result.points[0]["Jo"].samples == 2
        assert result.points[1] == {}
        assert len(result.failures) == 2
        for failure in result.failures:
            assert isinstance(failure, TaskFailure)
            assert failure.kind == "exception"
            assert failure.attempts == 2
            assert failure.key[0] == 1  # x_index of the poisoned value

    def test_journal_payload_is_json(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        sweep(
            name="t",
            x_label="size",
            x_values=[24],
            make_market=make_tiny_market,
            make_algorithms=jo_table,
            repetitions=1,
            checkpoint=str(checkpoint),
        )
        (line,) = checkpoint.read_text().strip().splitlines()
        entry = json.loads(line)
        assert entry["key"] == [0, 0]
        assert "Jo" in entry["value"]
        assert set(entry["value"]["Jo"]) == {
            "social_cost",
            "coordinated_cost",
            "selfish_cost",
            "runtime_s",
            "rejected",
        }
