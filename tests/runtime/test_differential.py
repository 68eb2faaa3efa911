"""Differential lockdown: sweeps through the runtime ≡ the serial loop.

The refactor's headline guarantee — dispatching a sweep grid through
:class:`repro.runtime.Runtime` (blob-published compiled markets and all)
changes **nothing** about the numbers.  Every cell's
:class:`~repro.experiments.harness.AssignmentRecord` must be
bit-identical to a plain in-process loop over the same tasks, with and
without precompilation, at every worker count.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.experiments.harness import legacy_point_seed
from repro.experiments.parallel import (
    ParallelSweepRunner,
    PointTask,
    run_point_task,
)
from repro.market.workload import generate_market
from repro.network.generators import random_mec_network


def make_tiny_market(size, seed):
    network = random_mec_network(int(size), rng=seed)
    return generate_market(network, 6, rng=seed + 1)


def jo_table(_x):
    from repro.core.baselines import jo_offload_cache

    return {"Jo": jo_offload_cache}


X_VALUES = [24, 30]
REPETITIONS = 2


def _reference_records():
    """The pre-runtime ground truth: a plain serial loop over the grid."""
    records = {}
    for xi, x in enumerate(X_VALUES):
        for rep in range(REPETITIONS):
            task = PointTask(
                x_index=xi,
                rep=rep,
                x=x,
                seed=legacy_point_seed(xi, rep),
                make_market=make_tiny_market,
                make_algorithms=jo_table,
            )
            records[(xi, rep)] = run_point_task(task)
    return records


def _comparable(records):
    """Record fields with wall-clock runtime dropped, per cell."""
    out = {}
    for key, cell in records.items():
        out[key] = {
            alg: {
                k: v for k, v in asdict(record).items() if k != "runtime_s"
            }
            for alg, record in cell.items()
        }
    return out


def _sweep_metrics(result):
    table = []
    for point in result.points:
        row = {}
        for alg, metrics in point.items():
            d = asdict(metrics)
            d.pop("runtime_s")
            row[alg] = d
        table.append(row)
    return table


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("precompile", [False, True])
def test_runtime_sweep_bit_identical_to_serial_loop(workers, precompile):
    runner = ParallelSweepRunner(workers=workers)
    result = runner.run(
        name="diff",
        x_label="size",
        x_values=X_VALUES,
        make_market=make_tiny_market,
        make_algorithms=jo_table,
        repetitions=REPETITIONS,
        precompile=precompile,
    )
    assert result.failures == []

    # The aggregated sweep metrics must equal the ones recomputed from
    # the reference records — float-for-float, not approximately.
    from repro.experiments.harness import AlgorithmMetrics

    reference = _reference_records()
    expected_points = []
    for xi in range(len(X_VALUES)):
        cells = [reference[(xi, rep)] for rep in range(REPETITIONS)]
        expected_points.append(
            {
                "Jo": AlgorithmMetrics.from_records(
                    [cell["Jo"] for cell in cells]
                )
            }
        )

    got = _sweep_metrics(result)
    want = _sweep_metrics(
        type(result)(
            name="ref",
            x_label="size",
            x_values=list(X_VALUES),
            points=expected_points,
        )
    )
    assert got == want


def dispatched_tasks(rt):
    """Record the tasks every ``rt.run`` call dispatches."""
    seen = []
    real_run = rt.run

    def run(fn, tasks, **kwargs):
        seen.extend(tasks)
        return real_run(fn, tasks, **kwargs)

    rt.run = run
    return seen


def test_precompiled_parallel_sweep_publishes_not_inlines():
    """In parallel precompile mode the task payloads carry blob refs,
    not the markets themselves — the publish-once contract."""
    runner = ParallelSweepRunner(workers=2)
    from repro.runtime import Runtime

    with Runtime(workers=2) as rt:
        tasks = dispatched_tasks(rt)
        result = runner.run(
            name="spy",
            x_label="size",
            x_values=[24],
            make_market=make_tiny_market,
            make_algorithms=jo_table,
            repetitions=2,
            precompile=True,
            runtime=rt,
        )
        assert result.failures == []
        # Every precompiled cell travels as a ref to its own market.
        assert [(t.x_index, t.rep) for t in tasks] == [(0, 0), (0, 1)]
        assert all(t.market is None and t.market_ref for t in tasks)
        assert tasks[0].market_ref.digest != tasks[1].market_ref.digest


def test_non_colocated_transport_publishes_a_single_cell_sweep():
    """A transport whose work does not belong in the caller's process
    dispatches even a one-cell grid, so the cell's market is published
    like any other, not inlined for an in-process shortcut."""
    from repro.runtime import Runtime
    from repro.runtime.transport import SerialTransport

    class RemoteLike(SerialTransport):
        colocated = False

    with Runtime(transport=RemoteLike()) as rt:
        tasks = dispatched_tasks(rt)
        result = ParallelSweepRunner().run(
            name="lone",
            x_label="size",
            x_values=[24],
            make_market=make_tiny_market,
            make_algorithms=jo_table,
            repetitions=1,
            precompile=True,
            runtime=rt,
        )
        assert result.failures == []
        assert len(tasks) == 1
        assert tasks[0].market is None and tasks[0].market_ref


def test_caller_owned_runtime_is_reused_and_left_open():
    from repro.runtime import Runtime

    runner = ParallelSweepRunner(workers=2)
    with Runtime(workers=2) as rt:
        for round_no in range(2):
            result = runner.run(
                name=f"r{round_no}",
                x_label="size",
                x_values=[24],
                make_market=make_tiny_market,
                make_algorithms=jo_table,
                repetitions=1,
                runtime=rt,
            )
            assert result.failures == []
        # The runtime survived both sweeps (borrowed, not closed).
        assert rt.run(len, [[1, 2]]) == [2]
