"""Transports: where dispatched work physically executes.

The supervision policy (:mod:`repro.runtime.supervisor`) decides *what*
runs — retries, timeouts, quarantine, journaling.  A :class:`Transport`
decides *where*: in-process (:class:`SerialTransport`, the deterministic
reference), on a persistent local process pool (:class:`PoolTransport`),
or on host agents over a shared-filesystem spool
(:class:`~repro.runtime.remote.RemoteTransport`).
Every transport carries the same content-addressed blob store, so a
consumer written against the :class:`~repro.runtime.executor.Runtime`
facade is transport-agnostic by construction.

Published blobs
---------------
Pickling a multi-megabyte :class:`~repro.market.compiled.CompiledMarket`
into every task payload is what drove the old sweep pool's
``parallel_sweep.speedup`` to 0.70x.  :meth:`Transport.publish` instead
pickles a heavy object once and names the :class:`BlobRef` by the
SHA-256 of those bytes: small payloads ride inline in the ref, payloads
over ``spill_threshold`` bytes spill to ``sha256-<digest>.pkl`` and
travel by path.  Equal bytes get equal refs, and different bytes never
share one, so a ref can never name stale content.  Workers resolve refs
with :func:`fetch_blob`, which verifies the digest and memoizes per
process — a given content is deserialised at most once per worker,
however many tasks reference it.

The crash hierarchy
-------------------
Worker death surfaces as :class:`WorkerCrash`:

* :class:`WorkerCrash` — the transport-agnostic base: "a worker died
  under us" (as opposed to the task raising).  The supervisor's
  quarantine protocol is keyed on exactly this type.
* :class:`PoolCrash` — a local process-pool worker died.
  :class:`PoolTransport` translates every raw ``BrokenProcessPool`` the
  pool raises into it at the boundary.
* :class:`HostLost` — a remote host agent died, wedged past its lease,
  or corrupted its reply channel (see :mod:`repro.runtime.remote`).

Code that means "any worker died" catches :class:`WorkerCrash`.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.exceptions import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")


class WorkerCrash(RuntimeError):
    """A worker died under us (as opposed to the task raising).

    The transport-agnostic crash signal: every transport translates its
    own failure detection — pool breakage, socket loss, lease expiry —
    into a member of this hierarchy, so the supervisor's
    quarantine/refund/re-run-solo protocol and :class:`~repro.runtime.
    supervisor.RetryPolicy` backoff apply unchanged whatever the
    substrate.
    """


class PoolCrash(WorkerCrash):
    """A local process-pool worker died (SIGKILL, ``os._exit``, OOM): the
    translated form of the stdlib ``BrokenProcessPool``."""


class HostLost(WorkerCrash):
    """A remote host agent died, wedged past its lease, or returned a
    corrupt reply (see :class:`repro.runtime.remote.RemoteTransport`)."""


def translate_crash(exc: BaseException) -> BaseException:
    """Normalise a raw ``BrokenProcessPool`` into :class:`PoolCrash`.

    Exceptions already inside the :class:`WorkerCrash` hierarchy (and
    everything that is not pool breakage) pass through untouched.
    """
    if isinstance(exc, WorkerCrash) or not isinstance(exc, BrokenProcessPool):
        return exc
    crash = PoolCrash(str(exc) or "a process pool worker died abruptly")
    crash.__cause__ = exc
    return crash


def _translating_future(inner: "Future[R]") -> "Future[R]":
    """Mirror ``inner``, rewriting ``BrokenProcessPool`` results into
    :class:`PoolCrash` so the crash hierarchy holds on every future a
    transport hands out."""
    outer: "Future[R]" = Future()

    def _done(fut: "Future[R]") -> None:
        exc = fut.exception()
        if exc is not None:
            outer.set_exception(translate_crash(exc))
        else:
            outer.set_result(fut.result())

    inner.add_done_callback(_done)
    return outer


#: Published payloads at most this many bytes ride inline in the
#: :class:`BlobRef`; larger ones spill to a file and travel by path.
DEFAULT_SPILL_THRESHOLD = 64 * 1024


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``--workers`` value: ``None``/``1`` → serial, ``0`` →
    ``os.cpu_count()``, ``N > 1`` → that many processes."""
    if workers is None:
        return 1
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def check_picklable(obj: object, role: str) -> None:
    """Raise :class:`~repro.exceptions.ConfigurationError` naming ``obj``
    if it cannot cross a process boundary (instead of dying in the pool)."""
    try:
        pickle.dumps(obj)
    except Exception as exc:
        raise ConfigurationError(
            f"{role} {obj!r} is not picklable and cannot cross the process-pool "
            f"boundary; use a module-level function or functools.partial "
            f"(or run with workers=1): {exc}"
        ) from None


@dataclass(frozen=True)
class BlobRef:
    """A picklable handle to one published blob, named by its content.

    ``digest`` is the hex SHA-256 of the pickled payload: the worker
    memo's key, and the checksum :func:`fetch_blob` verifies before
    unpickling, so a torn or bit-rotted blob on a shared filesystem
    fails loudly instead of deserialising garbage.  Exactly one of
    ``data`` (inline pickle bytes) and ``path`` (spill file) is set.
    """

    digest: str
    path: Optional[str] = None
    data: Optional[bytes] = field(default=None, repr=False)
    #: Pickled payload size in bytes (spilled or inline).
    size: int = 0


#: Per-process memo of fetched blobs, keyed by digest. Each process
#: deserialises a given content at most once; FIFO-bounded so long runs
#: cannot accumulate old shard views.
_BLOB_CACHE: Dict[str, object] = {}
_BLOB_CACHE_ORDER: List[str] = []
_BLOB_CACHE_LIMIT = 8


def fetch_blob(ref: BlobRef) -> object:
    """Resolve a published blob, memoized per process.

    The first fetch of a digest in a process reads the payload, checks
    its SHA-256 and unpickles it; later fetches are dictionary hits.
    """
    digest = ref.digest
    if digest in _BLOB_CACHE:
        return _BLOB_CACHE[digest]
    if ref.data is not None:
        payload = ref.data
    else:
        if ref.path is None:  # pragma: no cover - BlobRef invariant
            raise ConfigurationError(
                f"blob sha256-{digest[:12]}… has neither data nor path"
            )
        with open(ref.path, "rb") as fh:
            payload = fh.read()
    read = sha256(payload).hexdigest()
    if read != digest:
        raise ConfigurationError(
            f"blob sha256-{digest[:12]}… failed its checksum (read "
            f"{read[:12]}…): the stored copy is torn or corrupt"
        )
    blob = pickle.loads(payload)
    _BLOB_CACHE[digest] = blob
    _BLOB_CACHE_ORDER.append(digest)
    while len(_BLOB_CACHE_ORDER) > _BLOB_CACHE_LIMIT:
        _BLOB_CACHE.pop(_BLOB_CACHE_ORDER.pop(0), None)
    return blob


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` durably so readers only ever observe a complete
    file: a fsynced temp file renamed into place."""
    tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident():x}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class Transport:
    """Base execution substrate: blob store plus the dispatch surface.

    Subclasses implement :meth:`submit` (one task → future; the
    supervisor's building block) and :meth:`recycle` (discard dead
    workers after a :data:`WorkerCrash`).  :meth:`map` (an ordered
    unsupervised batch with deterministic crash fallback) and the blob
    store — :meth:`publish` / :func:`fetch_blob` — are shared: content
    addressed by SHA-256, inline under :attr:`spill_threshold` bytes,
    spill file above.
    """

    #: Degree of parallelism this transport offers (1 = in-process).
    workers: int = 1

    #: Whether work may legitimately run in the caller's process when
    #: parallelism cannot help (single worker, single task).  True for
    #: the local transports; :class:`~repro.runtime.remote.
    #: RemoteTransport` sets it False so dispatch always goes through
    #: the spool — execution locality is the point of that transport,
    #: and a local shortcut would silently run remote work here.
    colocated: bool = True

    def __init__(
        self,
        spill_dir: Optional[Union[str, os.PathLike]] = None,
        spill_threshold: Optional[int] = None,
    ) -> None:
        self._spill_dir = os.fspath(spill_dir) if spill_dir is not None else None
        self._owns_spill_dir = spill_dir is None
        self.spill_threshold = (
            DEFAULT_SPILL_THRESHOLD if spill_threshold is None else spill_threshold
        )
        self._closed = False

    # ------------------------------------------------------------------ #
    # Content-addressed blob store
    # ------------------------------------------------------------------ #
    def publish(self, obj: object) -> BlobRef:
        """Pickle ``obj`` once and return the :class:`BlobRef` named by
        the payload's SHA-256.

        Nothing is remembered between calls: equal bytes always yield
        an equal ref, and a spilled payload is written only if its
        ``sha256-<digest>.pkl`` file is not already in the store.
        """
        if self._closed:
            raise ConfigurationError(f"{type(self).__name__} is closed")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        digest = sha256(payload).hexdigest()
        if len(payload) <= self.spill_threshold:  # reprolint: ok[R2] exact byte count against an integer threshold, not a cost/capacity value
            return BlobRef(digest=digest, data=payload, size=len(payload))
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-runtime-")
        path = os.path.join(self._spill_dir, f"sha256-{digest}.pkl")
        if not os.path.exists(path):
            _write_atomic(path, payload)
        return BlobRef(digest=digest, path=path, size=len(payload))

    # ------------------------------------------------------------------ #
    # Dispatch surface
    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable[..., R], *args: object) -> "Future[R]":
        """Dispatch one call; the returned future may raise
        :data:`WorkerCrash` if the executing worker dies."""
        raise NotImplementedError

    def runs_in_process(self, n_tasks: int) -> bool:
        """Whether a batch of ``n_tasks`` runs in the caller's process:
        on a colocated transport when parallelism cannot help (one
        worker or one task); never on a non-colocated one."""
        return self.colocated and (self.workers <= 1 or n_tasks <= 1)

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every task, preserving task order.

        A batch :meth:`runs_in_process` is a plain loop; otherwise every
        task is submitted and gathered, and if a worker dies the whole
        batch deterministically re-runs in-process.
        """
        tasks = list(tasks)
        if self.runs_in_process(len(tasks)):
            return [fn(task) for task in tasks]
        try:
            futures = [self.submit(fn, task) for task in tasks]
            return [fut.result() for fut in futures]
        except WorkerCrash:
            self.recycle()
            return [fn(task) for task in tasks]

    def recycle(self) -> None:
        """Discard dead workers so the next :meth:`submit` gets live ones
        (no-op for transports without worker state)."""

    def close(self) -> None:
        """Release workers and remove an owned spill directory."""
        if self._closed:
            return
        self._closed = True
        if self._owns_spill_dir and self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialTransport(Transport):
    """In-process execution: the deterministic reference substrate.

    ``submit`` runs the call immediately on the calling thread and wraps
    the outcome in an already-resolved future, so the supervisor's
    scheduling loop is byte-for-byte the same code path as with a pool —
    only *where* the work ran differs.
    """

    workers = 1

    def submit(self, fn: Callable[..., R], *args: object) -> "Future[R]":
        fut: "Future[R]" = Future()
        try:
            fut.set_result(fn(*args))
        except BaseException as exc:
            fut.set_exception(exc)
        return fut


class PoolTransport(Transport):
    """A persistent local process pool shipping blobs by reference.

    The pool is created lazily on first dispatch and survives across
    batches (and across supervised runs sharing the transport), so blob
    publications stay warm in the workers' :func:`fetch_blob` memos.
    ``map`` preserves task order; a worker crash mid-batch tears the pool
    down and deterministically falls back to the in-process path for the
    whole batch (the contract the shard-settle equivalence tests pin).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        spill_dir: Optional[Union[str, os.PathLike]] = None,
        spill_threshold: Optional[int] = None,
    ) -> None:
        super().__init__(spill_dir=spill_dir, spill_threshold=spill_threshold)
        self.workers = resolve_workers(workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    def _live_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ConfigurationError("PoolTransport is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def submit(self, fn: Callable[..., R], *args: object) -> "Future[R]":
        try:
            inner = self._live_pool().submit(fn, *args)
        except BrokenProcessPool as exc:
            raise translate_crash(exc) from exc
        return _translating_future(inner)

    def recycle(self) -> None:
        # The crash/timeout path: never wait, a wedged worker must not
        # block the caller.
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._closed:
            return
        # An orderly close waits for the pool's manager thread to finish:
        # left running, it races the interpreter's exit hook over the
        # pool's wakeup pipe ("Bad file descriptor" at exit).
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        super().close()


__all__ = [
    "BlobRef",
    "DEFAULT_SPILL_THRESHOLD",
    "HostLost",
    "PoolCrash",
    "PoolTransport",
    "SerialTransport",
    "Transport",
    "WorkerCrash",
    "check_picklable",
    "fetch_blob",
    "resolve_workers",
    "translate_crash",
]
