"""The supervision policy: retry, timeout, quarantine — over any transport.

``pool.map`` turns one worker crash into a dead multi-hour grid: a
broken pool aborts every cell, nothing is retried, and nothing can be
resumed.  :func:`supervise` replaces it with a supervisor that treats
each cell as an independently retriable unit of work, *composed over* a
:class:`~repro.runtime.transport.Transport` instead of welded to one
pool implementation:

* **Per-task timeout.**  ``RetryPolicy.timeout_s`` arms a ``SIGALRM``
  timer inside the worker around the task body, so a wedged cell raises
  :class:`~repro.exceptions.TaskTimeout` instead of stalling the grid.
  Off the main thread (where ``signal`` refuses handlers) the deadline
  is still enforced, by a portable wall clock: in-process attempts run
  on an abandonable helper thread, and dispatched attempts get a
  caller-side ``future.result(timeout=)`` budget with
  ``transport.recycle()`` evicting the wedged worker — timeouts hold on
  every transport, from any thread.
* **Bounded retry, deterministic backoff.**  Each failed attempt requeues
  the cell until ``RetryPolicy.max_attempts`` is spent.  The backoff
  delay is a pure function of the attempt number —
  ``base_delay_s * backoff**(attempt-1)`` — never of the wall clock, so
  scheduling decisions replay identically (the actual sleeping is an
  injectable side effect).
* **Worker-crash isolation.**  A SIGKILLed worker surfaces as
  :data:`~repro.runtime.transport.WorkerCrash` on every in-flight
  future, and the supervisor cannot tell which of the (at most
  ``workers``) in-flight cells killed it.  It refunds their attempts,
  recycles the transport's workers, and re-runs the suspects one at a
  time — only a cell that crashes the workers while running *alone* is
  charged.  Only a cell that keeps dying exhausts its budget and
  surfaces as a structured :class:`TaskFailure` in the result list;
  innocent bystanders are never charged and the rest of the grid
  completes.
* **Checkpoint journaling.**  With a
  :class:`~repro.runtime.journal.CheckpointJournal`, every completed
  cell is appended to a JSONL file (flushed and fsynced) the moment it
  finishes.  A re-run that loads the journal replays completed cells
  from disk — JSON round-trips Python floats exactly (shortest-repr),
  so a resumed grid is bit-identical to an uninterrupted one — and
  executes only the missing cells.

Callers go through the :class:`~repro.runtime.executor.Runtime` facade,
which picks the transport.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.exceptions import ConfigurationError, TaskTimeout
from repro.runtime.journal import CheckpointJournal, TaskKey
from repro.runtime.transport import Transport, WorkerCrash

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor retries a failing cell.

    ``delay(attempt)`` is deliberately a pure function of the attempt
    number — retry *scheduling* never consults the wall clock, which the
    property tests pin.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff: float = 2.0
    #: Per-attempt time budget, enforced by a SIGALRM timer inside the
    #: worker; ``None`` disables enforcement.
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0:
            raise ConfigurationError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}"
            )
        if self.backoff < 1:
            raise ConfigurationError(f"backoff must be >= 1, got {self.backoff}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before re-running an attempt that just failed.

        ``attempt`` is 1-based (the attempt that failed); the delay grows
        exponentially: ``base_delay_s * backoff**(attempt-1)``.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        return self.base_delay_s * self.backoff ** (attempt - 1)


@dataclass(frozen=True)
class TaskFailure:
    """A cell that exhausted its retry budget — the structured tombstone
    that takes the place of its result instead of aborting the grid."""

    key: TaskKey
    attempts: int
    #: ``"exception"``, ``"timeout"`` or ``"worker-crash"``.
    kind: str
    error_type: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskFailure(key={self.key}, kind={self.kind}, "
            f"attempts={self.attempts}, {self.error_type}: {self.message})"
        )


def _wall_budget(timeout_s: float) -> float:
    """The caller-side wall-clock allowance for one attempt.

    Deliberately looser than the in-worker SIGALRM deadline so the
    precise mechanism wins whenever it can fire; the wall clock only
    catches attempts wedged *past* the alarm (signal blocked, worker
    stuck before the task body, remote task never claimed).
    """
    return timeout_s + max(1.0, 0.5 * timeout_s)


def _invoke(fn: Callable[[T], R], task: T, timeout_s: Optional[float]) -> R:
    """Run one attempt, optionally under a SIGALRM deadline.

    Normally runs in the worker's main thread (the pool workers, remote
    host agents, and the serial path), where ``signal`` is allowed to
    install handlers; the timer is disarmed and the previous handler
    restored on every exit.  Called off the main thread — where
    ``signal.signal`` raises ``ValueError`` — the deadline falls back to
    a portable wall clock: the attempt runs on a daemon helper thread
    and is abandoned (the thread leaks until it returns, the result is
    discarded) when the budget expires, raising
    :class:`~repro.exceptions.TaskTimeout` exactly like the alarm path.
    """
    if not timeout_s:
        return fn(task)
    import signal

    def _expired(signum: int, frame: object) -> None:
        raise TaskTimeout(f"task exceeded its {timeout_s}s budget")

    try:
        previous = signal.signal(signal.SIGALRM, _expired)
    except ValueError:
        return _invoke_walltimed(fn, task, timeout_s)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(task)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _invoke_walltimed(fn: Callable[[T], R], task: T, timeout_s: float) -> R:
    """Wall-clock deadline enforcement for threads that cannot arm
    SIGALRM: run the attempt on a daemon thread, join with the budget."""
    import threading

    outcome: List[object] = []

    def _run() -> None:
        try:
            outcome.append(("ok", fn(task)))
        except BaseException as exc:  # noqa: BLE001 - relayed to caller
            outcome.append(("err", exc))

    worker = threading.Thread(
        target=_run, name="repro-walltimed-attempt", daemon=True
    )
    worker.start()
    worker.join(timeout_s)
    if not outcome:
        # The attempt is abandoned: the daemon thread keeps running
        # until fn returns, but its outcome is discarded.
        raise TaskTimeout(
            f"task exceeded its {timeout_s}s budget (wall-clock fallback "
            f"off the main thread)"
        )
    status, value = outcome[0]  # type: ignore[misc]
    if status == "err":
        raise value  # type: ignore[misc]
    return value  # type: ignore[return-value]


def _failure(key: TaskKey, attempts: int, exc: BaseException) -> TaskFailure:
    if isinstance(exc, TaskTimeout):
        kind = "timeout"
    elif isinstance(exc, WorkerCrash):
        kind = "worker-crash"
    else:
        kind = "exception"
    return TaskFailure(
        key=key,
        attempts=attempts,
        kind=kind,
        error_type=type(exc).__name__,
        message=str(exc),
    )


def supervise(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    *,
    transport: Transport,
    keys: Optional[Sequence[TaskKey]] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[CheckpointJournal] = None,
    encode: Optional[Callable[[R], object]] = None,
    decode: Optional[Callable[[object], R]] = None,
    sleep: Callable[[float], None] = time.sleep,
    fail_fast: bool = False,
) -> List[Union[R, TaskFailure]]:
    """Apply ``fn`` to every task under supervision, on ``transport``.

    Returns one entry per task, in task order: the result, or a
    :class:`TaskFailure` for cells that exhausted their retry budget.

    Parameters
    ----------
    transport:
        Where attempts execute.  A grid the transport
        :meth:`~repro.runtime.transport.Transport.runs_in_process` (any
        grid on a :class:`~repro.runtime.transport.SerialTransport`, one
        task on a local pool) takes the in-process path; anything else
        drives the transport's ``submit`` futures.
    keys:
        One JSON-serialisable key per task (defaults to ``(index,)``);
        identifies cells in the journal and in failures.
    retry:
        The :class:`RetryPolicy`; defaults to three attempts with 50 ms
        doubling backoff and no timeout.
    journal:
        Optional :class:`~repro.runtime.journal.CheckpointJournal`.
        Cells already present in it are returned from disk without
        running; completed cells are appended as they finish.  Pass
        ``encode``/``decode`` to map results to/from their JSON payloads
        (identity by default).
    sleep:
        The side-effect used to realise backoff delays.  Injectable so
        tests (and the purity property) can run without waiting.
    fail_fast:
        Re-raise the original exception when a cell exhausts its retry
        budget, instead of recording a :class:`TaskFailure` — the
        ``pool.map``-compatible contract
        :func:`repro.experiments.parallel.map_tasks` keeps.
    """
    retry = retry if retry is not None else RetryPolicy()
    encode = encode if encode is not None else (lambda r: r)
    decode = decode if decode is not None else (lambda p: p)
    if keys is None:
        keys = [(i,) for i in range(len(tasks))]
    if len(keys) != len(tasks):
        raise ConfigurationError(f"got {len(keys)} keys for {len(tasks)} tasks")
    if len(set(keys)) != len(keys):
        raise ConfigurationError("task keys must be unique")

    results: List[Union[R, TaskFailure, None]] = [None] * len(tasks)
    remaining = deque(range(len(tasks)))

    if journal is not None:
        completed = journal.load()
        remaining = deque(i for i in remaining if keys[i] not in completed)
        for i, key in enumerate(keys):
            if key in completed:
                results[i] = decode(completed[key])

    def _finish(i: int, value: R) -> None:
        results[i] = value
        if journal is not None:
            journal.record(keys[i], encode(value))

    attempts = [0] * len(tasks)
    n_workers = transport.workers

    if transport.runs_in_process(len(remaining)):
        while remaining:
            i = remaining.popleft()
            attempts[i] += 1
            try:
                _finish(i, _invoke(fn, tasks[i], retry.timeout_s))
            except Exception as exc:
                if attempts[i] < retry.max_attempts:
                    sleep(retry.delay(attempts[i]))
                    remaining.append(i)
                elif fail_fast:
                    raise
                else:
                    results[i] = _failure(keys[i], attempts[i], exc)
        return results  # type: ignore[return-value]

    n_workers = min(n_workers, len(remaining)) if remaining else 1
    inflight: Dict["Future[R]", int] = {}
    #: Caller-side wall-clock deadline per in-flight future (only when a
    #: timeout is configured): the portable fallback for workers that
    #: cannot arm SIGALRM or wedged before reaching the task body.
    deadlines: Dict["Future[R]", float] = {}
    # Cells that were in flight when the workers died. The supervisor
    # cannot tell which of them killed the worker, so their attempts are
    # refunded and they re-run one at a time — only a cell that crashes
    # the workers while running alone is charged.
    quarantine: deque = deque()

    def _handle_error(i: int, error: BaseException, requeue: deque) -> None:
        if attempts[i] < retry.max_attempts:
            sleep(retry.delay(attempts[i]))
            requeue.append(i)
        elif fail_fast:
            raise error
        else:
            results[i] = _failure(keys[i], attempts[i], error)

    while remaining or inflight or quarantine:
        while quarantine:
            i = quarantine.popleft()
            attempts[i] += 1
            try:
                fut = transport.submit(_invoke, fn, tasks[i], retry.timeout_s)
            except WorkerCrash:
                # The crash surfaced at submit time (broken pool left
                # over from a concurrent death): this cell never ran, so
                # refund it, recycle, and try again on live workers.
                attempts[i] -= 1
                transport.recycle()
                quarantine.appendleft(i)
                continue
            try:
                if retry.timeout_s is not None:
                    # Portable wall-clock fallback: even if the worker
                    # cannot arm SIGALRM (or wedged before the task
                    # body), the solo re-run cannot stall the grid.
                    try:
                        value = fut.result(timeout=_wall_budget(retry.timeout_s))
                    except FutureTimeoutError:
                        transport.recycle()
                        raise TaskTimeout(
                            f"task exceeded its {retry.timeout_s}s budget "
                            f"(wall-clock fallback; workers recycled)"
                        ) from None
                else:
                    value = fut.result()
                _finish(i, value)
            except WorkerCrash as exc:
                # Proven killer: it crashed the workers running alone.
                transport.recycle()
                _handle_error(i, exc, quarantine)
            except Exception as exc:
                _handle_error(i, exc, remaining)
        while remaining and len(inflight) < n_workers:
            i = remaining.popleft()
            attempts[i] += 1
            try:
                fut = transport.submit(_invoke, fn, tasks[i], retry.timeout_s)
            except WorkerCrash:
                # A worker died between this cell's scheduling and its
                # submit — the cell never ran, so it is refunded, not a
                # suspect. In-flight futures surface the same crash and
                # drive quarantine below; with nothing in flight the
                # workers are recycled here.
                attempts[i] -= 1
                remaining.appendleft(i)
                if not inflight:
                    transport.recycle()
                break
            inflight[fut] = i
            if retry.timeout_s is not None:
                deadlines[fut] = time.monotonic() + _wall_budget(retry.timeout_s)
        if not inflight:
            continue
        if retry.timeout_s is None:
            done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
        else:
            wait_s = max(
                0.0, min(deadlines[f] for f in inflight) - time.monotonic()
            )
            done, _ = wait(
                set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            if not done:
                # Nothing finished inside the tightest wall budget:
                # every overdue attempt times out and the workers are
                # recycled so a wedged one cannot hold its slot.
                now = time.monotonic()
                overdue = [f for f in inflight if now >= deadlines[f]]
                if overdue:
                    transport.recycle()
                for f in overdue:
                    i = inflight.pop(f)
                    deadlines.pop(f, None)
                    _handle_error(
                        i,
                        TaskTimeout(
                            f"task exceeded its {retry.timeout_s}s budget "
                            f"(wall-clock fallback; workers recycled)"
                        ),
                        remaining,
                    )
                continue
        crashed = False
        for fut in done:
            i = inflight.pop(fut)
            deadlines.pop(fut, None)
            try:
                _finish(i, fut.result())
            except WorkerCrash:
                crashed = True
                attempts[i] -= 1
                quarantine.append(i)
            except Exception as exc:
                _handle_error(i, exc, remaining)
        if crashed:
            # Every other in-flight future of dead workers fails with
            # them; refund and quarantine them all, then recycle the
            # transport for the isolation re-runs.
            for fut, i in list(inflight.items()):
                exc: Optional[BaseException] = None
                try:
                    exc = fut.exception(timeout=60.0)
                    if exc is None:
                        # Raced to completion before the workers died.
                        _finish(i, fut.result())
                        continue
                except Exception as wait_exc:
                    exc = wait_exc
                if isinstance(exc, WorkerCrash):
                    attempts[i] -= 1
                    quarantine.append(i)
                else:
                    _handle_error(i, exc, remaining)
            inflight.clear()
            deadlines.clear()
            transport.recycle()
    return results  # type: ignore[return-value]


__all__ = [
    "RetryPolicy",
    "TaskFailure",
    "supervise",
]
