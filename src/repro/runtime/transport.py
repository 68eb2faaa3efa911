"""Transports: where dispatched work physically executes.

The supervision policy (:mod:`repro.runtime.supervisor`) decides *what*
runs — retries, timeouts, quarantine, journaling.  A :class:`Transport`
decides *where*: in-process (:class:`SerialTransport`, the deterministic
reference), on a persistent local process pool (:class:`PoolTransport`),
or on host agents over a shared-filesystem spool
(:class:`~repro.runtime.remote.RemoteTransport`).
Every transport carries the same publish-once blob store, so a
consumer written against the :class:`~repro.runtime.executor.Runtime`
facade is transport-agnostic by construction.

Published blobs
---------------
Pickling a multi-megabyte :class:`~repro.market.compiled.CompiledMarket`
into every task payload is what drove the old sweep pool's
``parallel_sweep.speedup`` to 0.70x.  :meth:`Transport.publish` instead
pickles each heavy object **once** per key (e.g. ``(shard id, delta
sequence number)``): small payloads ride inline in the returned
:class:`BlobRef`, payloads over ``spill_threshold`` bytes spill to a
file and travel by path.  Workers resolve refs with :func:`fetch_blob`,
which memoizes per process — a given publication is deserialised at most
once per worker, however many tasks reference it.

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
    """A picklable handle to one published blob.

    ``token`` uniquely identifies the publication (for spilled blobs it
    is the spill path).  Exactly one of ``data`` (inline pickle bytes)
    and ``path`` (spill file) is set.
    """

    token: str
    path: Optional[str] = None
    data: Optional[bytes] = field(default=None, repr=False)
    #: Pickled payload size in bytes (spilled or inline).
    size: int = 0
    #: Hex SHA-256 of the pickled payload.  ``None`` for refs published
    #: before checksums existed; set, it is
    #: verified by :func:`fetch_blob` before unpickling, so a torn or
    #: bit-rotted blob on a shared filesystem fails loudly instead of
    #: deserialising garbage.
    checksum: Optional[str] = None


#: Worker-side memo of published blobs, keyed by token. Each process
#: deserialises a given publication at most once; FIFO-bounded so long
#: runs cannot accumulate stale shard views.
_BLOB_CACHE: Dict[str, object] = {}
_BLOB_CACHE_ORDER: List[str] = []
_BLOB_CACHE_LIMIT = 8


def fetch_blob(ref: BlobRef) -> object:
    """Resolve a published blob, memoized per process.

    The first fetch in a process unpickles the payload; later fetches of
    the same token are dictionary hits.
    """
    token = ref.token
    if token in _BLOB_CACHE:
        return _BLOB_CACHE[token]
    if ref.data is not None:
        payload = ref.data
    else:
        if ref.path is None:  # pragma: no cover - BlobRef invariant
            raise ConfigurationError(f"blob {token!r} has neither data nor path")
        with open(ref.path, "rb") as fh:
            payload = fh.read()
    if ref.checksum is not None:
        digest = sha256(payload).hexdigest()
        if digest != ref.checksum:
            raise ConfigurationError(
                f"blob {token!r} failed its checksum (expected "
                f"{ref.checksum[:12]}…, read {digest[:12]}…): the shared "
                f"store copy is torn or corrupt"
            )
    blob = pickle.loads(payload)
    _BLOB_CACHE[token] = blob
    _BLOB_CACHE_ORDER.append(token)
    while len(_BLOB_CACHE_ORDER) > _BLOB_CACHE_LIMIT:
        _BLOB_CACHE.pop(_BLOB_CACHE_ORDER.pop(0), None)
    return blob


class Transport:
    """Base execution substrate: blob store plus the dispatch surface.

    Subclasses implement :meth:`submit` (one task → future; the
    supervisor's building block), :meth:`map` (an ordered unsupervised
    batch with deterministic crash fallback) and :meth:`recycle`
    (discard dead workers after a :data:`WorkerCrash`).  The blob store
    — :meth:`publish` / :func:`fetch_blob` — is shared: pickle once per
    key, inline under :attr:`spill_threshold` bytes, spill file above.
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
        self._published: Dict[object, BlobRef] = {}
        self._n_published = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Publish-once blob store
    # ------------------------------------------------------------------ #
    def _ensure_spill_dir(self) -> str:
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-runtime-")
        return self._spill_dir

    def publish(self, key: object, obj: object) -> BlobRef:
        """Publish ``obj`` under ``key``; returns its :class:`BlobRef`.

        Re-publishing an already-published key is a no-op returning the
        existing ref — the caller can publish unconditionally per epoch
        and still pickle each ``(shard, seq)`` view once.
        """
        if self._closed:
            raise ConfigurationError(f"{type(self).__name__} is closed")
        ref = self._published.get(key)
        if ref is not None:
            return ref
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        digest = sha256(payload).hexdigest()
        serial = self._n_published
        self._n_published += 1
        if len(payload) <= self.spill_threshold:  # reprolint: ok[R2] exact byte count against an integer threshold, not a cost/capacity value
            ref = BlobRef(
                token=f"inline:{id(self):x}:{serial}",
                data=payload,
                size=len(payload),
                checksum=digest,
            )
        else:
            path = self._spill_blob(serial, digest, payload)
            ref = BlobRef(
                token=path, path=path, size=len(payload), checksum=digest
            )
        self._published[key] = ref
        return ref

    def _spill_blob(self, serial: int, digest: str, payload: bytes) -> str:
        """Write one spilled payload; returns its path.  Overridden by
        the remote transport to content-address into the shared store."""
        path = os.path.join(self._ensure_spill_dir(), f"blob-{serial}.pkl")
        with open(path, "wb") as fh:
            fh.write(payload)
        return path

    # ------------------------------------------------------------------ #
    # Dispatch surface (subclass responsibility)
    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable[..., R], *args: object) -> "Future[R]":
        """Dispatch one call; the returned future may raise
        :data:`WorkerCrash` if the executing worker dies."""
        raise NotImplementedError

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every task, preserving task order, with a
        deterministic in-process fallback if the workers die."""
        raise NotImplementedError

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

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        return [fn(task) for task in tasks]


class PoolTransport(Transport):
    """A persistent local process pool with publish-once blob shipping.

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

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        tasks = list(tasks)
        if self.workers <= 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        try:
            futures = [self.submit(fn, task) for task in tasks]
            return [fut.result() for fut in futures]
        except WorkerCrash:
            self.recycle()
            # Deterministic fallback: the whole batch re-runs in-process.
            return [fn(task) for task in tasks]

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
