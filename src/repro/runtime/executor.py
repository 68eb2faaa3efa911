"""The :class:`Runtime` facade: one dispatch substrate for everything.

Sweep grids (:mod:`repro.experiments.parallel`), shard interior settles
(:mod:`repro.game.partitioned`) and epoch replans
(:mod:`repro.dynamics.simulation`) all dispatch through one object:

>>> with Runtime(workers=4) as rt:
...     results = rt.run(task_fn, tasks, retry=RetryPolicy(timeout_s=30))

``Runtime`` composes the three runtime layers:

* a :class:`~repro.runtime.transport.Transport` (where work executes —
  serial, persistent local pool, or a remote spool) with its
  content-addressed blob store,
* the supervision policy of :func:`repro.runtime.supervisor.supervise`
  (per-task timeout, bounded deterministic retry, crash quarantine with
  bystander refunds, structured :class:`~repro.runtime.supervisor.
  TaskFailure` tombstones),
* :class:`~repro.runtime.journal.CheckpointJournal` durability with
  bit-identical ``resume=``.

:meth:`Runtime.run` is the supervised entry point; :meth:`Runtime.map`
is the thin ordered fast path (no retries, deterministic in-process
fallback on worker death) that the shard settle loop uses.  Both are
bit-identical to serial execution for pure task functions — the property
every equivalence test in ``tests/runtime`` pins.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.exceptions import ConfigurationError
from repro.runtime.journal import CheckpointJournal, TaskKey
from repro.runtime.supervisor import RetryPolicy, TaskFailure, supervise
from repro.runtime.transport import (
    BlobRef,
    PoolTransport,
    SerialTransport,
    Transport,
    fetch_blob,
    resolve_workers,
)

T = TypeVar("T")
R = TypeVar("R")


class BlobMap(Mapping):
    """Lazy worker-side view of published blobs, ``key -> object``.

    Indexing fetches (and per-process memoizes) the blob behind the ref;
    blobs a task never touches are never deserialised.
    """

    def __init__(self, refs: Mapping[object, BlobRef]) -> None:
        self._refs = dict(refs)

    def __getitem__(self, key: object) -> object:
        return fetch_blob(self._refs[key])

    def __iter__(self) -> Iterator[object]:
        return iter(self._refs)

    def __len__(self) -> int:
        return len(self._refs)


@dataclass(frozen=True)
class _WithBlobs:
    """Picklable adapter binding published refs to a two-argument task
    body: workers call ``fn(task, blobs)`` with a lazy :class:`BlobMap`."""

    fn: Callable[[T, BlobMap], R]
    refs: Mapping[object, BlobRef]

    def __call__(self, task: T) -> R:
        return self.fn(task, BlobMap(self.refs))


class Runtime:
    """The single public execution facade (see module docstring).

    Parameters
    ----------
    workers:
        ``None``/``1`` → in-process :class:`~repro.runtime.transport.
        SerialTransport` (the deterministic reference); ``0`` → one
        process per CPU; ``N > 1`` → a persistent
        :class:`~repro.runtime.transport.PoolTransport` of ``N`` workers.
    transport:
        An explicit transport instead of ``workers`` (mutually
        exclusive) — e.g. a caller-configured
        :class:`~repro.runtime.remote.RemoteTransport`.
    spool:
        A shared spool directory (mutually exclusive with ``workers``
        and ``transport``): builds an owned
        :class:`~repro.runtime.remote.RemoteTransport` on it, so
        ``Runtime(spool=...)`` is the one-argument path to multi-host
        dispatch against already-running ``repro host`` agents.
    spill_dir / spill_threshold:
        Blob-store knobs forwarded to the constructed transport: where
        oversized publications spill (local transports only; a spool
        spills into its ``blobs/`` directory, and ``spill_dir`` with
        ``spool`` raises), and the inline-vs-spill cutoff in bytes.

    The runtime owns a transport it constructed (closing the runtime
    closes it) but only borrows an explicit one.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        transport: Optional[Transport] = None,
        spool: Optional[Union[str, os.PathLike]] = None,
        spill_dir: Optional[Union[str, os.PathLike]] = None,
        spill_threshold: Optional[int] = None,
    ) -> None:
        if sum(arg is not None for arg in (workers, transport, spool)) > 1:
            raise ConfigurationError(
                "pass at most one of workers=, transport= or spool="
            )
        if spool is not None and spill_dir is not None:
            raise ConfigurationError(
                "spill_dir= does not apply with spool=: a spool's blobs "
                "spill into its own blobs/ directory"
            )
        self._owns_transport = transport is None
        if spool is not None:
            from repro.runtime.remote import RemoteTransport

            transport = RemoteTransport(
                spool, spill_threshold=spill_threshold
            )
        elif transport is None:
            n_workers = resolve_workers(workers)
            if n_workers <= 1:
                transport = SerialTransport(
                    spill_dir=spill_dir, spill_threshold=spill_threshold
                )
            else:
                transport = PoolTransport(
                    workers=n_workers,
                    spill_dir=spill_dir,
                    spill_threshold=spill_threshold,
                )
        self.transport = transport
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Degree of parallelism of the underlying transport."""
        return self.transport.workers

    # ------------------------------------------------------------------ #
    # Blob store
    # ------------------------------------------------------------------ #
    def publish(self, obj: object) -> BlobRef:
        """Publish ``obj`` by content; see
        :meth:`repro.runtime.transport.Transport.publish`."""
        return self.transport.publish(obj)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """Ordered unsupervised batch: results in task order, single
        attempt, deterministic in-process fallback if the workers die.

        The thin fast path for callers that own their failure handling
        (the shard settle loop); grids that want retries, timeouts and
        checkpoints use :meth:`run`.  A batch the transport
        :meth:`~repro.runtime.transport.Transport.runs_in_process` is a
        plain loop in the caller's process.
        """
        if self._closed:
            raise ConfigurationError("Runtime is closed")
        return self.transport.map(fn, tasks)

    def run(
        self,
        fn: Callable[..., R],
        tasks: Sequence[T],
        *,
        keys: Optional[Sequence[TaskKey]] = None,
        blobs: Optional[Mapping[object, object]] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[Union[CheckpointJournal, str, os.PathLike]] = None,
        resume: bool = False,
        encode: Optional[Callable[[R], object]] = None,
        decode: Optional[Callable[[object], R]] = None,
        sleep: Callable[[float], None] = time.sleep,
        fail_fast: bool = False,
    ) -> List[Union[R, TaskFailure]]:
        """Apply ``fn`` to every task under full supervision.

        Returns one entry per task in task order — the result, or a
        :class:`~repro.runtime.supervisor.TaskFailure` tombstone for a
        cell that exhausted its retry budget.  Results are bit-identical
        to a serial run for pure task functions, whatever the transport.

        Parameters beyond :func:`repro.runtime.supervisor.supervise`:

        blobs:
            Heavy shared payloads, ``key -> object``.  Each is published
            by content on the transport; ``fn`` is then called as
            ``fn(task, blobs)`` where ``blobs`` is a lazy
            :class:`BlobMap` — the task payload carries refs, workers
            fetch-and-memoize.
        timeout:
            Per-attempt seconds; shorthand for ``retry`` with
            ``timeout_s`` set (overrides the policy's own value).
        journal:
            A :class:`~repro.runtime.journal.CheckpointJournal` or a
            path to create one at.
        resume:
            With ``journal``: replay already-completed cells from disk
            and run only the missing ones (bit-identical to an
            uninterrupted run).  ``False`` (default) truncates any
            existing journal first.
        """
        if self._closed:
            raise ConfigurationError("Runtime is closed")
        if timeout is not None:
            retry = replace(
                retry if retry is not None else RetryPolicy(), timeout_s=timeout
            )
        if journal is not None and not isinstance(journal, CheckpointJournal):
            journal = CheckpointJournal(journal)
        if journal is not None and not resume:
            journal.clear()
        task_fn: Callable[[T], R] = fn
        if blobs is not None:
            refs = {key: self.publish(obj) for key, obj in blobs.items()}
            task_fn = _WithBlobs(fn, refs)
        return supervise(
            task_fn,
            list(tasks),
            transport=self.transport,
            keys=keys,
            retry=retry,
            journal=journal,
            encode=encode,
            decode=decode,
            sleep=sleep,
            fail_fast=fail_fast,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release an owned transport (borrowed ones stay open)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_transport:
            self.transport.close()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["BlobMap", "Runtime"]
