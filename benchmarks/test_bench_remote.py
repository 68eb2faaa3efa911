"""Remote-transport benchmark (writes ``BENCH_remote.json``).

Measures what the spool protocol costs when it is *not* needed: trivial
tasks round-tripped through a single local ``repro host`` agent, against
the serial transport running the same batch inline. The number that
matters operationally is the per-task dispatch overhead (write task file
-> agent claims -> executes -> framed reply -> poller consumes): it is
the floor below which shipping a cell to another machine cannot pay.
Real workloads amortise it — a sweep cell settles a market for hundreds
of milliseconds — so the bar here is generous sanity, not speed: the
protocol must stay under ``OVERHEAD_BAR_S`` per task, and the publish
path must deduplicate (publishing the same payload twice ships one
blob).
"""

import multiprocessing
import os
import shutil
import tempfile
import time

from benchmarks.conftest import record_bench
from repro.runtime import RemoteTransport, SerialTransport, run_host_agent

RESULTS_NAME = "BENCH_remote.json"

#: Trivial tasks per batch (pure protocol overhead, no compute).
N_TASKS = 64

#: Per-task spool round-trip must stay under this (generous: CI boxes
#: share disks; typical local numbers are two orders of magnitude lower).
OVERHEAD_BAR_S = 0.5

_FORK = multiprocessing.get_context("fork")


def _noop(x):
    return x


def test_bench_remote_dispatch_overhead(emit):
    spool = tempfile.mkdtemp(prefix="repro-bench-spool-")
    agent = _FORK.Process(
        target=run_host_agent,
        args=(spool,),
        kwargs={"host_id": "bench-0", "lease_s": 10.0, "poll_interval_s": 0.002},
        daemon=True,
    )
    agent.start()
    tasks = list(range(N_TASKS))
    try:
        transport = RemoteTransport(
            spool, lease_s=10.0, poll_interval_s=0.005, claim_timeout_s=120.0
        )
        try:
            transport.wait_for_hosts(1, timeout_s=30.0)
            t0 = time.perf_counter()
            remote_results = transport.map(_noop, tasks)
            remote_s = time.perf_counter() - t0

            # Content addressing: the second publish of identical bytes
            # names the same blob and writes no second file. The payload
            # must exceed the spill threshold to exercise the shared
            # store (smaller payloads ride inline in the BlobRef).
            payload = list(range(100_000))
            t0 = time.perf_counter()
            ref_a = transport.publish(payload)
            first_publish_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            ref_b = transport.publish(payload)
            republish_s = time.perf_counter() - t0
            blobs = os.listdir(os.path.join(spool, "blobs"))
        finally:
            transport.close()
    finally:
        if agent.is_alive():
            agent.kill()
        agent.join(timeout=10.0)
        shutil.rmtree(spool, ignore_errors=True)

    serial = SerialTransport()
    try:
        t0 = time.perf_counter()
        serial_results = serial.map(_noop, tasks)
        serial_s = time.perf_counter() - t0
    finally:
        serial.close()

    assert remote_results == serial_results == tasks
    assert ref_a.digest == ref_b.digest
    assert len(blobs) == 1

    per_task_s = remote_s / N_TASKS
    payload_data = {
        "n_tasks": N_TASKS,
        "remote_batch_s": remote_s,
        "serial_batch_s": serial_s,
        "per_task_overhead_s": per_task_s,
        "tasks_per_s": N_TASKS / remote_s,
        "first_publish_s": first_publish_s,
        "republish_s": republish_s,
    }
    record_bench(RESULTS_NAME, "spool_dispatch", payload_data)
    emit(
        "remote spool dispatch: "
        f"{N_TASKS} no-op tasks in {remote_s:.3f}s "
        f"({per_task_s * 1e3:.1f} ms/task, serial batch {serial_s * 1e3:.2f} ms); "
        f"republish hit {republish_s * 1e3:.2f} ms vs first {first_publish_s * 1e3:.2f} ms"
    )
    assert per_task_s < OVERHEAD_BAR_S
