"""RemoteTransport: multi-host dispatch over a shared-filesystem spool.

The multi-machine seam ROADMAP reserved is now a working transport.  It
needs no broker and no wire protocol — only a directory every
participating machine can reach (one box, or an NFS mount):

```
<spool>/
  blobs/                    content-addressed published payloads
                            (``sha256-<digest>.pkl``, written once)
  tasks/new/                submitted, unclaimed task files
  tasks/claimed/<host>/     tasks a host agent has claimed (its lease)
  replies/                  one framed reply file per finished task
  hosts/<host>.json         fsynced heartbeat/lease files
```

A ``repro host`` agent process (:func:`run_host_agent`, or the CLI
subcommand) claims task files by atomic rename — exactly one claimant
can win — executes them, and writes framed, checksummed replies.  The
transport's poller thread resolves futures from the reply channel.

The robustness core is the failure machinery, not the happy path:

* **Leases.**  Each agent maintains an fsynced heartbeat file and beats
  it between tasks (never from a helper thread — a wedged task body
  *must* starve the lease).  A host is live while its lease is fresh
  and, for same-machine agents, its pid answers ``kill -0``.  SIGKILL
  is therefore detected within one poll tick locally and within
  ``lease_s`` anywhere; a wedge is detected within ``lease_s``
  everywhere.  The corollary is an operator constraint: ``lease_s``
  must exceed the longest legitimate task, or honest work is
  indistinguishable from a wedge.
* **Crash translation.**  Lease expiry, agent death, and reply-channel
  corruption all surface as :class:`~repro.runtime.transport.HostLost`
  — a member of the :class:`~repro.runtime.transport.WorkerCrash`
  hierarchy — on the affected futures, so ``supervise()``'s
  quarantine/refund/re-run-solo protocol and ``RetryPolicy`` backoff
  apply across machine boundaries unchanged.
* **Orphan reassignment.**  :meth:`RemoteTransport.recycle` re-scans
  the live-host set and moves tasks claimed by dead hosts back into
  ``tasks/new/`` when their futures are still pending, so surviving
  agents pick the work up.
* **Degradation.**  When the live-host set drops below ``min_hosts``
  (checked at every recycle, and when submitted work sits unclaimed
  past ``claim_timeout_s`` with no live hosts), the transport degrades
  to a local :class:`~repro.runtime.transport.PoolTransport` — pending
  unclaimed work is re-dispatched, and the switch is recorded as a
  structured :class:`DegradationEvent` in
  :attr:`RemoteTransport.degradation_events`.  ``degrade="fail"`` turns
  the floor into a hard error instead.

``publish`` spills into the spool's ``blobs/`` directory through the
one content-addressed writer of :class:`~repro.runtime.transport.
Transport`: a payload is written once whoever publishes it, and its
SHA-256 is verified by ``fetch_blob`` on every host before unpickling.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import threading
import time
import warnings
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.exceptions import ConfigurationError
from repro.runtime.transport import (
    HostLost,
    PoolTransport,
    Transport,
    _write_atomic,
    check_picklable,
)

R = TypeVar("R")

#: Frame header for task and reply files: magic, payload length, CRC32.
_FRAME_MAGIC = b"RSP1"
_FRAME_HEAD = struct.Struct("<4sII")


def _frame(payload: bytes) -> bytes:
    return _FRAME_HEAD.pack(_FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload


def _unframe(raw: bytes) -> bytes:
    """Decode one frame; raises ``ValueError`` on any corruption."""
    if len(raw) < _FRAME_HEAD.size:
        raise ValueError("frame shorter than its header")
    magic, length, crc = _FRAME_HEAD.unpack_from(raw)
    if magic != _FRAME_MAGIC:
        raise ValueError(f"bad frame magic {magic!r}")
    payload = raw[_FRAME_HEAD.size : _FRAME_HEAD.size + length]
    if len(payload) != length:
        raise ValueError(f"frame truncated: {len(payload)} of {length} bytes")
    if zlib.crc32(payload) != crc:
        raise ValueError("frame payload failed its CRC32")
    return payload


def _spool_dirs(spool: str) -> Dict[str, str]:
    return {
        "blobs": os.path.join(spool, "blobs"),
        "new": os.path.join(spool, "tasks", "new"),
        "claimed": os.path.join(spool, "tasks", "claimed"),
        "replies": os.path.join(spool, "replies"),
        "hosts": os.path.join(spool, "hosts"),
    }


def _ensure_spool(spool: str) -> Dict[str, str]:
    dirs = _spool_dirs(spool)
    for path in dirs.values():
        os.makedirs(path, exist_ok=True)
    return dirs


def _picklable_error(exc: BaseException) -> BaseException:
    """The exception as it will cross the reply channel: itself when it
    pickles, a faithful ``RuntimeError`` stand-in when it does not."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # reprolint: ok[R7] pickling probe — any __reduce__ error means "unpicklable", answered by the stand-in
        stand_in = RuntimeError(f"{type(exc).__name__}: {exc}")
        return stand_in


@dataclass(frozen=True)
class DegradationEvent:
    """A structured record of one degradation decision: the substrate
    asked for, the one used, and why."""

    #: The substrate the caller asked for (``"remote"``).
    requested: str
    #: The substrate actually used from this point (``"pool"``).
    used: str
    #: Machine-readable cause: ``"host-floor"`` or ``"unclaimed-timeout"``.
    reason: str
    #: Human-readable specifics (live host count, floor, timeout).
    detail: str = ""


@dataclass
class _Pending:
    """Caller-side state for one dispatched task."""

    future: "Future[Any]"
    fn: Callable[..., Any]
    args: Tuple[Any, ...]
    submitted_at: float
    #: Host id that claimed the task, once known.
    host: Optional[str] = None


class RemoteTransport(Transport):
    """Multi-host execution over a shared-filesystem spool directory.

    Parameters
    ----------
    spool:
        The shared directory (created if missing).  Every host agent
        serving this transport must be started on the same path.
    lease_s:
        Heartbeat lease duration.  A host whose lease file has not been
        renewed for this long is considered lost; must exceed the
        longest legitimate task body.
    poll_interval_s:
        The poller's scan cadence (reply pickup, liveness checks).
    min_hosts:
        The live-host floor.  Dropping below it (checked at every
        :meth:`recycle`) triggers the degradation policy.
    degrade:
        ``"pool"`` (default) falls back to a local
        :class:`~repro.runtime.transport.PoolTransport`; ``"fail"``
        raises/fails futures with :class:`~repro.runtime.transport.
        HostLost` instead.
    fallback_workers:
        Worker count for the degradation pool (default: one per CPU).
    claim_timeout_s:
        How long submitted work may sit unclaimed with *no* live hosts
        before the degradation policy fires.  Defaults to
        ``4 * lease_s``; ``None`` keeps the default.
    """

    colocated = False

    def __init__(
        self,
        spool: Union[str, os.PathLike],
        *,
        lease_s: float = 5.0,
        poll_interval_s: float = 0.05,
        min_hosts: int = 1,
        degrade: str = "pool",
        fallback_workers: Optional[int] = None,
        claim_timeout_s: Optional[float] = None,
        spill_threshold: Optional[int] = None,
    ) -> None:
        if lease_s <= 0:
            raise ConfigurationError(f"lease_s must be positive, got {lease_s}")
        if min_hosts < 0:
            raise ConfigurationError(f"min_hosts must be >= 0, got {min_hosts}")
        if degrade not in ("pool", "fail"):
            raise ConfigurationError(
                f"degrade must be 'pool' or 'fail', got {degrade!r}"
            )
        self.spool = os.fspath(spool)
        self._dirs = _ensure_spool(self.spool)
        super().__init__(
            spill_dir=self._dirs["blobs"], spill_threshold=spill_threshold
        )
        self.lease_s = lease_s
        self.poll_interval_s = poll_interval_s
        self.min_hosts = min_hosts
        self.degrade = degrade
        self.fallback_workers = fallback_workers
        self.claim_timeout_s = (
            4.0 * lease_s if claim_timeout_s is None else claim_timeout_s
        )
        #: Structured log of degradation decisions, append-only.
        self.degradation_events: List[DegradationEvent] = []
        self._prefix = f"t{os.getpid():x}-{id(self):x}"
        self._serial = 0
        self._pending: Dict[str, _Pending] = {}
        self._lock = threading.Lock()
        self._live_hosts: Dict[str, dict] = {}
        self._degraded: Optional[PoolTransport] = None
        self._stop = threading.Event()
        self._poller = threading.Thread(
            target=self._poll_loop, name="repro-remote-poller", daemon=True
        )
        self._poller.start()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:  # type: ignore[override]
        """Total execution slots across live hosts (the degradation
        pool's width once degraded); never below 1 so supervision always
        schedules."""
        if self._degraded is not None:
            return self._degraded.workers
        with self._lock:
            slots = sum(
                int(info.get("slots", 1)) for info in self._live_hosts.values()
            )
        return max(1, slots)

    @property
    def degraded(self) -> bool:
        """Whether the transport has fallen back to a local pool."""
        return self._degraded is not None

    def live_hosts(self) -> List[str]:
        """Ids of hosts considered live at the last liveness scan."""
        with self._lock:
            return sorted(self._live_hosts)

    def wait_for_hosts(self, count: int, timeout_s: float = 30.0) -> List[str]:
        """Block until ``count`` hosts are live; raises on timeout."""
        deadline = time.monotonic() + timeout_s
        while True:
            self._refresh_hosts()
            hosts = self.live_hosts()
            if len(hosts) >= count:
                return hosts
            if time.monotonic() >= deadline:
                raise ConfigurationError(
                    f"waited {timeout_s}s for {count} live host agent(s) on "
                    f"{self.spool!r}, found {len(hosts)}"
                )
            time.sleep(min(self.poll_interval_s, 0.05))

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable[..., R], *args: object) -> "Future[R]":
        if self._closed:
            raise ConfigurationError("RemoteTransport is closed")
        if self._degraded is not None:
            return self._degraded.submit(fn, *args)
        with self._lock:
            task_id = f"{self._prefix}-{self._serial:08d}"
            self._serial += 1
        try:
            payload = pickle.dumps(
                {"id": task_id, "fn": fn, "args": args},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:
            # Surface the standard, named picklability error rather
            # than a raw pickle traceback from inside the spool write.
            check_picklable(fn, "task function")
            check_picklable(args, "task arguments")
            raise
        fut: "Future[R]" = Future()
        with self._lock:
            self._pending[task_id] = _Pending(
                future=fut, fn=fn, args=tuple(args), submitted_at=time.monotonic()
            )
        _write_atomic(
            os.path.join(self._dirs["new"], f"{task_id}.task"), _frame(payload)
        )
        return fut

    # ------------------------------------------------------------------ #
    # Failure machinery
    # ------------------------------------------------------------------ #
    def recycle(self) -> None:
        """Re-establish the worker set after a crash signal.

        Re-scans host liveness *now*, moves tasks claimed by dead hosts
        back into ``tasks/new/`` when their futures are still pending
        (surviving agents pick them up), clears claimed leftovers with
        no pending future, and applies the degradation policy if the
        live-host set is below ``min_hosts``.
        """
        if self._closed or self._degraded is not None:
            if self._degraded is not None:
                self._degraded.recycle()
            return
        self._refresh_hosts()
        self._reassign_orphans()
        live = self.live_hosts()
        if len(live) < self.min_hosts:
            self._apply_degradation(
                reason="host-floor",
                detail=(
                    f"{len(live)} live host(s) after recycle, floor is "
                    f"{self.min_hosts}"
                ),
            )

    def _refresh_hosts(self) -> None:
        """Rebuild the live-host map from the lease files."""
        now = time.time()
        live: Dict[str, dict] = {}
        try:
            entries = sorted(os.listdir(self._dirs["hosts"]))
        except OSError:
            entries = []
        for entry in entries:
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self._dirs["hosts"], entry)
            try:
                stamp = os.stat(path).st_mtime
                with open(path, "r", encoding="utf-8") as fh:
                    info = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            if now - stamp > self.lease_s:
                continue  # stale lease: wedged or silently gone
            if not self._pid_alive(info):
                continue  # same-machine agent whose process is gone
            live[entry[: -len(".json")]] = info
        with self._lock:
            self._live_hosts = live

    @staticmethod
    def _pid_alive(info: dict) -> bool:
        """Same-machine pid probe; cross-machine leases pass by default."""
        if info.get("node") != os.uname().nodename:
            return True
        pid = info.get("pid")
        if not isinstance(pid, int):
            return True
        try:
            os.kill(pid, 0)
        except OSError:
            return False
        return True

    def _reassign_orphans(self) -> None:
        """Requeue dead hosts' claimed tasks whose futures still wait."""
        with self._lock:
            live = set(self._live_hosts)
        try:
            host_dirs = sorted(os.listdir(self._dirs["claimed"]))
        except OSError:
            return
        for host in host_dirs:
            if host in live:
                continue
            host_dir = os.path.join(self._dirs["claimed"], host)
            try:
                names = sorted(os.listdir(host_dir))
            except OSError:
                continue
            for name in names:
                task_id = name[: -len(".task")] if name.endswith(".task") else name
                src = os.path.join(host_dir, name)
                with self._lock:
                    entry = self._pending.get(task_id)
                    pending = entry is not None and not entry.future.done()
                if pending:
                    try:
                        os.rename(src, os.path.join(self._dirs["new"], name))
                    except OSError:
                        continue  # the host raced back or another caller won
                else:
                    try:
                        os.unlink(src)
                    except OSError:
                        continue

    def _fail_host_tasks(self, host: str) -> None:
        """Translate one lost host into ``HostLost`` on its claimed tasks."""
        host_dir = os.path.join(self._dirs["claimed"], host)
        try:
            names = sorted(os.listdir(host_dir))
        except OSError:
            return
        for name in names:
            if not name.endswith(".task"):
                continue
            task_id = name[: -len(".task")]
            with self._lock:
                entry = self._pending.pop(task_id, None)
            try:
                os.unlink(os.path.join(host_dir, name))
            except OSError:
                pass
            if entry is not None and not entry.future.done():
                entry.future.set_exception(
                    HostLost(
                        f"host {host!r} was lost (lease expired or agent "
                        f"died) while running task {task_id}"
                    )
                )

    def _apply_degradation(self, *, reason: str, detail: str) -> None:
        """Fall back below the live-host floor, per the configured policy."""
        if self.degrade == "fail":
            event = DegradationEvent(
                requested="remote", used="error", reason=reason, detail=detail
            )
            self.degradation_events.append(event)
            self._fail_pending(
                HostLost(f"remote execution unavailable ({reason}): {detail}")
            )
            raise HostLost(
                f"remote execution unavailable ({reason}): {detail}; "
                f"degrade='fail' forbids the pool fallback"
            )
        event = DegradationEvent(
            requested="remote", used="pool", reason=reason, detail=detail
        )
        self.degradation_events.append(event)
        warnings.warn(
            f"RemoteTransport degrading to a local PoolTransport "
            f"({reason}): {detail}",
            RuntimeWarning,
            stacklevel=3,
        )
        pool = PoolTransport(
            workers=(
                self.fallback_workers if self.fallback_workers is not None else 0
            ),
            spill_threshold=self.spill_threshold,
        )
        self._degraded = pool
        # Re-dispatch everything still waiting: unclaimed task files are
        # removed from the spool, and each pending future is bridged to
        # a pool future for the same (fn, args).
        with self._lock:
            waiting = [
                (task_id, entry)
                for task_id, entry in self._pending.items()
                if not entry.future.done()
            ]
            self._pending.clear()
        for task_id, entry in waiting:
            try:
                os.unlink(os.path.join(self._dirs["new"], f"{task_id}.task"))
            except OSError:
                pass
            self._bridge_to_pool(pool, entry)

    @staticmethod
    def _bridge_to_pool(pool: PoolTransport, entry: _Pending) -> None:
        outer = entry.future

        def _done(inner: "Future[Any]") -> None:
            if outer.done():  # pragma: no cover - reply raced the bridge
                return
            exc = inner.exception()
            if exc is not None:
                outer.set_exception(exc)
            else:
                outer.set_result(inner.result())

        pool.submit(entry.fn, *entry.args).add_done_callback(_done)

    def _fail_pending(self, exc: BaseException) -> None:
        with self._lock:
            waiting = [e for e in self._pending.values() if not e.future.done()]
            self._pending.clear()
        for entry in waiting:
            entry.future.set_exception(exc)

    # ------------------------------------------------------------------ #
    # The poller
    # ------------------------------------------------------------------ #
    def _poll_loop(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            try:
                self._poll_once()
            except Exception as exc:  # pragma: no cover - defensive
                warnings.warn(
                    f"RemoteTransport poller error (continuing): {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _poll_once(self) -> None:
        self._consume_replies()
        if self._degraded is not None:
            return
        self._refresh_hosts()
        with self._lock:
            live_now = set(self._live_hosts)
            has_pending = any(
                not e.future.done() for e in self._pending.values()
            )
        if not has_pending:
            return
        # Any claimed directory of a non-live host may hold our tasks.
        # The cached live set can lag an agent that *just* wrote its
        # first lease, so each suspect is re-verified against its lease
        # file at fail time — never from the cache.
        try:
            claim_hosts = sorted(os.listdir(self._dirs["claimed"]))
        except OSError:
            claim_hosts = []
        for host in claim_hosts:
            if host not in live_now and self._host_is_dead(host):
                self._fail_host_tasks(host)
        self._check_claim_timeout(live_now)

    def _host_is_dead(self, host: str) -> bool:
        """Authoritative single-host liveness read (no cache)."""
        path = os.path.join(self._dirs["hosts"], f"{host}.json")
        try:
            stamp = os.stat(path).st_mtime
            with open(path, "r", encoding="utf-8") as fh:
                info = json.load(fh)
        except (OSError, json.JSONDecodeError):
            # No readable lease: an agent always leases before claiming
            # and requeues on clean exit, so claimed files without a
            # lease mean a crashed agent.
            return True
        if time.time() - stamp > self.lease_s:
            return True
        return not self._pid_alive(info)

    def _check_claim_timeout(self, live_now: Set[str]) -> None:
        if live_now or self.claim_timeout_s is None:
            return
        now = time.monotonic()
        with self._lock:
            overdue = [
                e
                for e in self._pending.values()
                if not e.future.done()
                and now - e.submitted_at > self.claim_timeout_s
            ]
        if overdue:
            self._apply_degradation(
                reason="unclaimed-timeout",
                detail=(
                    f"{len(overdue)} task(s) unclaimed for "
                    f"{self.claim_timeout_s}s with no live hosts"
                ),
            )

    def _consume_replies(self) -> None:
        try:
            names = sorted(os.listdir(self._dirs["replies"]))
        except OSError:
            return
        for name in names:
            if not name.endswith(".reply"):
                continue
            task_id = name[: -len(".reply")]
            if not task_id.startswith(self._prefix):
                continue  # another transport's traffic on a shared spool
            path = os.path.join(self._dirs["replies"], name)
            with self._lock:
                entry = self._pending.pop(task_id, None)
            try:
                with open(path, "rb") as fh:
                    raw = fh.read()
                reply = pickle.loads(_unframe(raw))
                if not isinstance(reply, dict) or reply.get("id") != task_id:
                    raise ValueError("reply names the wrong task")
            except Exception as exc:
                if entry is not None and not entry.future.done():
                    entry.future.set_exception(
                        HostLost(
                            f"reply channel for task {task_id} is corrupt "
                            f"({exc}); treating the host as lost"
                        )
                    )
                self._unlink_quiet(path)
                continue
            self._unlink_quiet(path)
            if entry is None or entry.future.done():
                continue
            if reply.get("ok"):
                entry.future.set_result(reply.get("value"))
            else:
                error = reply.get("value")
                if not isinstance(error, BaseException):  # pragma: no cover
                    error = RuntimeError(f"malformed error reply: {error!r}")
                entry.future.set_exception(error)

    @staticmethod
    def _unlink_quiet(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        self._stop.set()
        self._poller.join(timeout=5.0)
        # Withdraw our unclaimed work and unstick any remaining waiters.
        with self._lock:
            pending_ids = list(self._pending)
        for task_id in pending_ids:
            self._unlink_quiet(
                os.path.join(self._dirs["new"], f"{task_id}.task")
            )
        self._fail_pending(
            HostLost("RemoteTransport closed with task(s) still in flight")
        )
        if self._degraded is not None:
            self._degraded.close()
            self._degraded = None
        super().close()


# ---------------------------------------------------------------------- #
# The host agent
# ---------------------------------------------------------------------- #
@dataclass
class HostAgentStats:
    """What one :func:`run_host_agent` loop did before exiting."""

    host_id: str
    executed: int = 0
    failed: int = 0
    requeued_on_start: int = 0
    exit_reason: str = ""
    #: Task ids executed, in claim order (diagnostic).
    task_ids: List[str] = field(default_factory=list)


def _beat(path: str, info: dict) -> None:
    """Renew one lease file atomically, fsynced."""
    payload = json.dumps(info, sort_keys=True).encode("utf-8")
    _write_atomic(path, payload)


def run_host_agent(
    spool: Union[str, os.PathLike],
    *,
    host_id: Optional[str] = None,
    lease_s: float = 5.0,
    poll_interval_s: float = 0.05,
    idle_exit_s: Optional[float] = None,
    max_tasks: Optional[int] = None,
    slots: int = 1,
) -> HostAgentStats:
    """Serve a spool directory until stopped: the ``repro host`` loop.

    Claims task files from ``<spool>/tasks/new`` by atomic rename,
    executes them one at a time on the agent's main thread (so the
    supervisor's in-worker SIGALRM timeout arms normally), writes
    framed, CRC-checked replies, and maintains the fsynced heartbeat
    lease the transport's failure detection reads.  Heartbeats happen
    *between* tasks only — a wedged task body starves the lease, which
    is exactly how the caller detects the wedge.

    On startup, tasks left claimed by a previous incarnation of the
    same ``host_id`` (a crashed or restarted agent) are requeued.

    Parameters
    ----------
    idle_exit_s:
        Exit after this long without finding work (``None``: serve
        forever until SIGTERM/SIGINT).
    max_tasks:
        Exit after executing this many tasks (chaos tests use it to
        stop deterministically).
    slots:
        Advertised parallelism of this agent (the transport sums live
        hosts' slots into ``workers``).  The loop itself is single
        threaded; run several agents for true parallelism.
    """
    if lease_s <= 0:
        raise ConfigurationError(
            f"lease_s must be positive, got {lease_s!r}: a non-positive "
            f"lease is always expired, so every transport would treat "
            f"this agent as dead while it serves"
        )
    if poll_interval_s <= 0:
        raise ConfigurationError(
            f"poll_interval_s must be positive, got {poll_interval_s!r}"
        )
    if slots < 1:
        raise ConfigurationError(f"slots must be >= 1, got {slots!r}")
    spool = os.fspath(spool)
    dirs = _ensure_spool(spool)
    if host_id is None:
        host_id = f"h{os.uname().nodename}-{os.getpid()}"
    my_claimed = os.path.join(dirs["claimed"], host_id)
    os.makedirs(my_claimed, exist_ok=True)
    lease_path = os.path.join(dirs["hosts"], f"{host_id}.json")
    info = {
        "host": host_id,
        "node": os.uname().nodename,
        "pid": os.getpid(),
        "slots": int(slots),
    }
    stats = HostAgentStats(host_id=host_id)

    # A restarted agent requeues whatever its previous incarnation had
    # claimed but not finished.
    for name in sorted(os.listdir(my_claimed)):
        try:
            os.rename(
                os.path.join(my_claimed, name), os.path.join(dirs["new"], name)
            )
            stats.requeued_on_start += 1
        except OSError:
            pass

    beat_every = lease_s / 3.0
    last_beat = 0.0
    idle_since = time.monotonic()

    def _maybe_beat(force: bool = False) -> None:
        nonlocal last_beat  # reprolint: ok[R8] heartbeat throttle clock — agent-local liveness state, never task state
        now = time.monotonic()
        if force or now - last_beat >= beat_every:
            _beat(lease_path, info)
            last_beat = now

    try:
        _maybe_beat(force=True)
        while True:
            if max_tasks is not None and stats.executed >= max_tasks:
                stats.exit_reason = "max-tasks"
                break
            claimed = _claim_one(dirs["new"], my_claimed)
            if claimed is None:
                if (
                    idle_exit_s is not None
                    and time.monotonic() - idle_since > idle_exit_s
                ):
                    stats.exit_reason = "idle"
                    break
                _maybe_beat()
                time.sleep(poll_interval_s)
                continue
            idle_since = time.monotonic()
            _maybe_beat(force=True)  # the lease clock starts at task start
            _execute_claimed(dirs, my_claimed, claimed, host_id, stats)
            _maybe_beat(force=True)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        stats.exit_reason = "interrupt"
    finally:
        # Requeue anything still claimed and withdraw the lease, so a
        # cleanly stopped agent never strands work or looks wedged.
        for name in sorted(os.listdir(my_claimed)):
            try:
                os.rename(
                    os.path.join(my_claimed, name),
                    os.path.join(dirs["new"], name),
                )
            except OSError:
                pass
        try:
            os.unlink(lease_path)
        except OSError:
            pass
    return stats


def _claim_one(new_dir: str, my_claimed: str) -> Optional[str]:
    """Try to claim the oldest task file; atomic rename arbitrates."""
    try:
        names = sorted(os.listdir(new_dir))
    except OSError:
        return None
    for name in names:
        if not name.endswith(".task"):
            continue
        try:
            os.rename(
                os.path.join(new_dir, name), os.path.join(my_claimed, name)
            )
        except OSError:
            continue  # another agent won the rename
        return name
    return None


def _execute_claimed(
    dirs: Dict[str, str],
    my_claimed: str,
    name: str,
    host_id: str,
    stats: HostAgentStats,
) -> None:
    task_id = name[: -len(".task")]
    path = os.path.join(my_claimed, name)
    try:
        with open(path, "rb") as fh:
            task = pickle.loads(_unframe(fh.read()))
        fn = task["fn"]
        args = task["args"]
        if task.get("id") != task_id:
            raise ValueError("task file names the wrong task")
    except Exception as exc:
        _write_reply(
            dirs,
            task_id,
            host_id,
            ok=False,
            value=RuntimeError(f"task file for {task_id} is corrupt: {exc}"),
        )
        stats.failed += 1
        _remove_quiet(path)
        return
    try:
        value: Any = fn(*args)
        ok = True
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover
        raise
    except BaseException as exc:  # noqa: BLE001 - relayed to the caller
        value = _picklable_error(exc)
        ok = False
    _write_reply(dirs, task_id, host_id, ok=ok, value=value)
    stats.executed += 1
    stats.task_ids.append(task_id)
    if not ok:
        stats.failed += 1
    _remove_quiet(path)


def _write_reply(
    dirs: Dict[str, str], task_id: str, host_id: str, *, ok: bool, value: Any
) -> None:
    reply = {"id": task_id, "host": host_id, "ok": ok, "value": value}
    try:
        payload = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # reprolint: ok[R7] pickling probe — an unpicklable result is answered with a stand-in error reply
        reply["value"] = (
            RuntimeError(f"task {task_id} result is not picklable")
            if ok
            else RuntimeError(f"task {task_id} error is not picklable")
        )
        reply["ok"] = False
        payload = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
    _write_atomic(
        os.path.join(dirs["replies"], f"{task_id}.reply"), _frame(payload)
    )


def _remove_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


__all__ = [
    "DegradationEvent",
    "HostAgentStats",
    "RemoteTransport",
    "run_host_agent",
]
