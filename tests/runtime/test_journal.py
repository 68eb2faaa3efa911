"""CheckpointJournal hardening: per-record CRCs on a shared filesystem.

The journal format is a compatibility contract (pre-CRC journals must
replay unchanged); the hardening adds detection, not a new format:
corrupt mid-file records are skipped *and counted*, a truncated tail
stays the silent crash-mid-append artefact it always was.
"""

from __future__ import annotations

import json
import warnings
import zlib

import pytest

from repro.experiments.harness import AssignmentRecord
from repro.experiments.parallel import encode_point_records
from repro.runtime import CheckpointJournal
from repro.runtime.journal import _canonical


@pytest.fixture
def journal(tmp_path):
    return CheckpointJournal(tmp_path / "cells.jsonl")


class TestRecordFormat:
    def test_records_carry_a_crc_over_the_canonical_pair(self, journal):
        journal.record((0, 1), {"v": 1.5})
        (line,) = open(journal.path).read().splitlines()
        entry = json.loads(line)
        assert entry["key"] == [0, 1]
        assert entry["value"] == {"v": 1.5}
        assert entry["crc"] == zlib.crc32(
            _canonical(entry["key"], entry["value"])
        )

    def test_round_trip(self, journal):
        journal.record((0,), 111)
        journal.record((1,), {"nested": [1.25, "x"]})
        assert journal.load() == {(0,): 111, (1,): {"nested": [1.25, "x"]}}
        assert journal.last_load_corrupt == 0

    @pytest.mark.parametrize(
        "key, value",
        [
            ((0, 1), {"v": 1.5}),
            (("zürich", 2), {"name": "café ☕", "emoji": "\U0001f680"}),
            ((3,), {"tiny": 1e-300, "nested": [[0.1, 2.0 / 3.0], {"x": 1e300}]}),
            ((4,), None),
            ((5,), [None, {"a": None}, -0.0, 5e-324]),
            (
                (2, 7),
                encode_point_records({
                    "Appro": AssignmentRecord(
                        social_cost=20054.56601728012,
                        coordinated_cost=1234.5678901234567,
                        selfish_cost=0.1 + 0.2,
                        runtime_s=0.0123,
                        rejected=3,
                    ),
                    "LCF": AssignmentRecord(
                        social_cost=1e-300, coordinated_cost=0.0,
                        selfish_cost=1853245.6666140612, runtime_s=2.5,
                        rejected=0,
                    ),
                }),
            ),
        ],
    )
    def test_line_bytes_match_the_three_field_dump(self, journal, key, value):
        """``record`` serialises the value once and splices the crc in
        front; the line it writes is byte for byte the one a full
        ``json.dumps`` of the three fields produces, so journals on disk
        do not change."""
        journal.record(key, value)
        raw = open(journal.path, "rb").read()
        body = {"key": list(key), "value": value}
        crc = zlib.crc32(_canonical(body["key"], body["value"]))
        expected = json.dumps({"crc": crc, **body}, sort_keys=True) + "\n"
        assert raw == expected.encode("utf-8")
        assert journal.load() == {key: value}

    def test_pre_crc_journals_still_replay(self, journal):
        """Backward compatibility: lines without a ``crc`` field — the
        format before the hardening — load exactly as before."""
        with open(journal.path, "w") as fh:
            fh.write(json.dumps({"key": [0], "value": 42}) + "\n")
            fh.write(json.dumps({"key": [1], "value": 43}) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may fire
            assert journal.load() == {(0,): 42, (1,): 43}
        assert journal.last_load_corrupt == 0


class TestCorruptionHandling:
    def _write_good(self, journal, n=3):
        for i in range(n):
            journal.record((i,), 10 * i)

    def test_checksum_mismatch_is_skipped_and_counted(self, journal):
        self._write_good(journal)
        lines = open(journal.path).read().splitlines()
        # Flip the middle record's value without updating its crc.
        entry = json.loads(lines[1])
        entry["value"] = 999
        lines[1] = json.dumps(entry, sort_keys=True)
        open(journal.path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="1 corrupt record"):
            records = journal.load()
        assert records == {(0,): 0, (2,): 20}  # cell 1 will re-run
        assert journal.last_load_corrupt == 1

    def test_undecodable_midfile_line_is_skipped_and_counted(self, journal):
        self._write_good(journal)
        lines = open(journal.path).read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn mid-file write
        open(journal.path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning):
            records = journal.load()
        assert records == {(0,): 0, (2,): 20}
        assert journal.last_load_corrupt == 1

    def test_truncated_final_line_is_silently_dropped(self, journal):
        """The ordinary crash-mid-append artefact: no warning, no count —
        the cell simply re-runs."""
        self._write_good(journal)
        raw = open(journal.path).read()
        open(journal.path, "w").write(raw[: len(raw) - 9])  # tear the tail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = journal.load()
        assert records == {(0,): 0, (1,): 10}
        assert journal.last_load_corrupt == 0

    def test_non_record_json_is_counted(self, journal):
        self._write_good(journal, n=2)
        lines = open(journal.path).read().splitlines()
        lines.insert(1, json.dumps(["not", "a", "record"]))
        open(journal.path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning):
            records = journal.load()
        assert records == {(0,): 0, (1,): 10}
        assert journal.last_load_corrupt == 1

    def test_append_after_corruption_keeps_the_good_records(self, journal):
        """A resumed run re-records the lost cell; the next load sees the
        full grid again (the corrupt line stays inert in place)."""
        self._write_good(journal)
        lines = open(journal.path).read().splitlines()
        entry = json.loads(lines[1])
        entry["value"] = 999
        lines[1] = json.dumps(entry, sort_keys=True)
        open(journal.path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning):
            journal.load()
        journal.record((1,), 10)  # the re-run's fresh append
        with warnings.catch_warnings():
            # The stale corrupt line is still counted, but the re-run's
            # record wins (later lines overwrite earlier keys).
            warnings.simplefilter("ignore", RuntimeWarning)
            assert journal.load() == {(0,): 0, (1,): 10, (2,): 20}


class TestLifecycle:
    def test_missing_file_loads_empty(self, journal):
        assert journal.load() == {}

    def test_clear_truncates(self, journal):
        journal.record((0,), 1)
        journal.clear()
        assert journal.load() == {}
