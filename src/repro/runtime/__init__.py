"""repro.runtime — the unified supervised execution substrate.

One coherent dispatch layer for everything that fans work out of the
main process: figure-sweep grids, shard interior settles, and epoch
replans.  Four pieces, composed rather than welded:

* :mod:`repro.runtime.transport` — *where* work executes.
  :class:`SerialTransport` (deterministic in-process reference),
  :class:`PoolTransport` (persistent local workers with the
  content-addressed blob store), and :class:`RemoteTransport`
  (:mod:`repro.runtime.remote`): multi-host dispatch over a
  shared-filesystem spool served by ``repro host`` agents, with
  lease-based failure detection and a structured degradation path.
* :mod:`repro.runtime.supervisor` — *what* runs: per-task timeouts,
  :class:`RetryPolicy` backoff, crash quarantine with bystander refunds,
  structured :class:`TaskFailure` tombstones — over any transport.
* :mod:`repro.runtime.journal` — :class:`CheckpointJournal` durability
  (unchanged on-disk JSONL format; old journals replay bit-identically).
* :mod:`repro.runtime.executor` — the single public :class:`Runtime`
  facade consumers hold.

Callers build a :class:`Runtime` (``Runtime(workers=N)``,
``Runtime(spool=DIR)`` or ``Runtime(transport=...)``), own it, and pass
it to whatever dispatches.  See ``docs/runtime.md`` for the architecture
and the transport seam.
"""

from repro.runtime.executor import BlobMap, Runtime
from repro.runtime.journal import CheckpointJournal, TaskKey
from repro.runtime.remote import (
    DegradationEvent,
    HostAgentStats,
    RemoteTransport,
    run_host_agent,
)
from repro.runtime.supervisor import (
    RetryPolicy,
    TaskFailure,
    supervise,
)
from repro.runtime.transport import (
    DEFAULT_SPILL_THRESHOLD,
    BlobRef,
    HostLost,
    PoolCrash,
    PoolTransport,
    SerialTransport,
    Transport,
    WorkerCrash,
    check_picklable,
    fetch_blob,
    resolve_workers,
    translate_crash,
)

__all__ = [
    "BlobMap",
    "BlobRef",
    "CheckpointJournal",
    "DEFAULT_SPILL_THRESHOLD",
    "DegradationEvent",
    "HostAgentStats",
    "HostLost",
    "PoolCrash",
    "PoolTransport",
    "RemoteTransport",
    "RetryPolicy",
    "Runtime",
    "SerialTransport",
    "TaskFailure",
    "TaskKey",
    "Transport",
    "WorkerCrash",
    "check_picklable",
    "fetch_blob",
    "resolve_workers",
    "run_host_agent",
    "supervise",
    "translate_crash",
]
