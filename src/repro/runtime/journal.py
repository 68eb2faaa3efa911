"""Durable checkpoint journaling for supervised task grids.

The on-disk format of :class:`CheckpointJournal` is an append-only
JSONL file, one ``{"key": [...], "value": <payload>}`` line per
completed cell, flushed and fsynced as it is written. The format is a
compatibility contract, not an implementation detail: older journals
replay bit-identically (``tests/runtime`` pins it, and
:class:`~repro.market.shard.ShardLog` rides the same file format for its
replication log).

Shared-filesystem hardening
---------------------------
Three failure modes that do not exist on a local disk show up once the
journal lives on an NFS mount under a multi-host
:class:`~repro.runtime.remote.RemoteTransport` run, and each gets a
defence:

* **Bit rot / torn reads** — every record now carries a ``crc`` field,
  a CRC32 over the canonical serialisation of its ``key``/``value``
  pair.  Records written before the field existed still replay (the
  format stays backward compatible); a record whose checksum does not
  match is *skipped and counted*, and :meth:`CheckpointJournal.load`
  emits one :class:`RuntimeWarning` naming the count instead of
  silently replaying garbage.  A truncated trailing line — the ordinary
  crash-mid-append artefact — is still ignored without a warning.
* **The file that never reached the directory** — after the first
  append creates the file, the parent directory is fsynced, so a host
  crash cannot leave a durable record in a file that is not itself
  durable in its directory entry.
* **Interleaved writers** — each append takes an advisory ``flock`` on
  the journal file (where the platform provides one), so two writers on
  a shared filesystem cannot interleave partial lines.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from typing import Dict, Optional, Tuple, Union

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: JSON-serialisable journal key for one cell (e.g. ``(x_index, rep)``).
TaskKey = Tuple[object, ...]


def _canonical(key: object, value: object) -> bytes:
    """The byte string the record checksum covers.

    ``json.dumps(sort_keys=True)`` of the ``key``/``value`` pair: the
    loader recomputes it from the *parsed* record, which round-trips
    exactly (shortest-repr floats, sorted keys, ascii escapes), so a
    record checksums identically on both sides of a replay.
    """
    return json.dumps({"key": key, "value": value}, sort_keys=True).encode("utf-8")


class CheckpointJournal:
    """An append-only JSONL journal of completed cells.

    Each line is ``{"crc": <crc32>, "key": [...], "value": <payload>}``;
    records are flushed and fsynced as they complete, so a SIGKILL loses
    at most the line being written (a truncated trailing line is ignored
    on load).  Lines without a ``crc`` field — journals from before the
    field existed — replay unchanged.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        #: Corrupt (checksum-failed or mid-file undecodable) records
        #: skipped by the most recent :meth:`load`.
        self.last_load_corrupt = 0
        self._dir_synced = False

    def load(self) -> Dict[TaskKey, object]:
        """All intact records, ``key -> payload``; missing file -> empty.

        Corrupt mid-file records (failed checksum, or undecodable JSON
        anywhere but the tail) are skipped and counted in
        :attr:`last_load_corrupt`, with one :class:`RuntimeWarning`
        naming the count.  A truncated *final* line is the ordinary
        crash-mid-append artefact and is dropped silently.
        """
        records: Dict[TaskKey, object] = {}
        self.last_load_corrupt = 0
        if not os.path.exists(self.path):
            return records
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        last = len(lines) - 1
        corrupt = 0
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if lineno == last:
                    # A crash mid-append leaves one truncated line at
                    # the tail; the cell simply re-runs.
                    continue
                corrupt += 1
                continue
            if not isinstance(entry, dict) or "key" not in entry:
                corrupt += 1
                continue
            crc: Optional[int] = entry.get("crc")
            if crc is not None:
                expected = zlib.crc32(
                    _canonical(entry["key"], entry.get("value"))
                )
                if crc != expected:
                    corrupt += 1
                    continue
            records[_as_key(entry["key"])] = entry.get("value")
        self.last_load_corrupt = corrupt
        if corrupt:
            warnings.warn(
                f"checkpoint journal {self.path!r}: skipped {corrupt} "
                f"corrupt record(s) (failed checksum or undecodable "
                f"mid-file line); the affected cells will re-run",
                RuntimeWarning,
                stacklevel=2,
            )
        return records

    def record(self, key: TaskKey, value: object) -> None:
        """Durably append one completed cell.

        The line is checksummed, the file flushed and fsynced, the
        append serialised under an advisory ``flock``, and — on the
        append that creates the file — the parent directory fsynced so
        the new directory entry is durable too.
        """
        canonical = _canonical(list(key), value)
        # ``"crc"`` sorts before ``"key"``, so splicing it in front of the
        # canonical bytes gives exactly ``json.dumps({"crc", "key",
        # "value"}, sort_keys=True)`` without serialising the value twice.
        line = b'{"crc": %d, ' % zlib.crc32(canonical) + canonical[1:] + b"\n"
        existed = os.path.exists(self.path)
        with open(self.path, "ab") as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            finally:
                if fcntl is not None:
                    fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        if not existed or not self._dir_synced:
            self._fsync_parent()
            self._dir_synced = True

    def _fsync_parent(self) -> None:
        parent = os.path.dirname(os.path.abspath(self.path))
        try:
            dir_fd = os.open(parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - unreadable parent
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover - fs without dir fsync
            pass
        finally:
            os.close(dir_fd)

    def clear(self) -> None:
        """Start a fresh journal (truncate any existing file)."""
        with open(self.path, "w", encoding="utf-8"):
            pass


def _as_key(raw: object) -> TaskKey:
    if isinstance(raw, (list, tuple)):
        return tuple(raw)
    return (raw,)


__all__ = ["CheckpointJournal", "TaskKey"]
