"""CRC-framed append-only record journal with crash recovery.

File layout::

    USPJ1\\n                                   file header (6 bytes)
    [ A5 5A | kind | len | hcrc | payload | pcrc ]*   frames

Each frame is a 2-byte magic, a 1-byte record kind, a 4-byte
little-endian payload length, a CRC32 over those seven bytes (so a
corrupt *length* cannot send the scanner off into the weeds), the
payload, and a CRC32 over the payload.

Appends are committed with ``write + flush + fsync`` — a record is
durable before :meth:`RecordJournal.append` returns (sync-on-commit).

Recovery ladder, from least to most damaged:

1. **Torn tail** — the file ends mid-frame (a crash during an append).
   The partial frame is truncated away; everything before it is intact
   by construction.
2. **Corrupt payload, intact header** — the frame boundary is still
   trustworthy (header CRC passes), so the one record is quarantined
   as a typed :class:`QuarantinedRecord` and the scan continues with
   the next frame.  No crash, no loss of unrelated records.
3. **Undecodable payload** — both CRCs pass but the caller's decoder
   rejects the payload (a schema that moved on, a foreign object).
   The record is quarantined like a corrupt payload.
4. **Corrupt header** — framing is lost; the rest of the file cannot
   be parsed safely.  The tail is copied to a ``.quarantined`` side
   file for forensics and truncated away.
5. **Bad file header** — not a journal (or a damaged first block).
   The whole file is moved aside to ``.corrupt`` and a fresh journal
   is started.

Every recovery outcome is reported in :class:`RecoveryReport`; nothing
in this module raises on damaged input.
"""
from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, List, Optional, Tuple

from repro.runtime.checkpoint import fsync_directory
from repro.runtime.faults import POINT_PRE_FSYNC, checked_write, crash_hook

FILE_MAGIC = b"USPJ1\n"
FRAME_MAGIC = b"\xa5\x5a"
_HEAD = struct.Struct("<2sBI")          # magic, kind, payload length
_CRC = struct.Struct("<I")
HEADER_SIZE = _HEAD.size + _CRC.size    # 11
MAX_PAYLOAD = 1 << 30                   # sanity bound on a decoded length


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def encode_frame(kind: int, payload: bytes) -> bytes:
    head = _HEAD.pack(FRAME_MAGIC, kind, len(payload))
    return b"".join((head, _CRC.pack(_crc(head)), payload,
                     _CRC.pack(_crc(payload))))


@dataclass
class QuarantinedRecord:
    """A record (or unparseable tail) that recovery skipped."""

    offset: int
    kind: Optional[int]
    length: int
    #: "payload-crc" | "payload-decode" | "header-crc" | "file-header"
    reason: str

    def to_dict(self) -> dict:
        return {"offset": self.offset, "kind": self.kind,
                "length": self.length, "reason": self.reason}


@dataclass
class RecoveryReport:
    """What :meth:`RecordJournal.recover` found and repaired."""

    n_records: int = 0
    n_quarantined: int = 0
    truncated_bytes: int = 0
    quarantined: List[QuarantinedRecord] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.n_quarantined == 0 and self.truncated_bytes == 0

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "n_quarantined": self.n_quarantined,
            "truncated_bytes": self.truncated_bytes,
            "quarantined": [q.to_dict() for q in self.quarantined],
        }


class RecordJournal:
    """An append-only journal of ``(kind, payload)`` records."""

    def __init__(self, path: Path, sync: bool = True) -> None:
        self.path = Path(path)
        self.sync = sync
        self._fh: Optional[IO[bytes]] = None

    # -- recovery ------------------------------------------------------

    def recover(
        self, decode: Optional[Callable[[int, bytes], Any]] = None,
    ) -> Tuple[List[Tuple[int, Any]], RecoveryReport]:
        """Scan the journal, repair damage in place, return live records.

        ``decode(kind, payload)`` turns each intact payload into the
        returned record value; a record it raises on is quarantined as
        ``payload-decode``.  Without it, records are raw bytes.
        Always returns; damage is truncated/quarantined, never raised.
        """
        report = RecoveryReport()
        records: List[Tuple[int, Any]] = []
        if not self.path.exists():
            return records, report
        data = self.path.read_bytes()
        if not data:
            return records, report
        if not data.startswith(FILE_MAGIC):
            # not recognisably ours: move the whole file aside
            report.n_quarantined += 1
            report.quarantined.append(QuarantinedRecord(
                offset=0, kind=None, length=len(data),
                reason="file-header"))
            self._quarantine_bytes(data)
            self.path.unlink()
            fsync_directory(self.path.parent)
            return records, report

        offset = len(FILE_MAGIC)
        keep_until = offset
        while offset < len(data):
            frame = self._scan_frame(data, offset, records, report, decode)
            if frame is None:
                break  # torn or unframed tail: truncate from `offset`
            offset = frame
            keep_until = offset
        if keep_until < len(data):
            report.truncated_bytes = len(data) - keep_until
            self._truncate_to(keep_until)
        return records, report

    def _scan_frame(self, data: bytes, offset: int,
                    records: List[Tuple[int, Any]],
                    report: RecoveryReport,
                    decode: Optional[Callable[[int, bytes], Any]] = None,
                    ) -> Optional[int]:
        """Parse one frame at ``offset``.

        Returns the next offset, or None when the scan must stop and
        truncate from ``offset`` (torn tail / lost framing).  A frame
        whose payload fails its CRC but whose header is intact is
        quarantined and skipped — the returned offset moves past it.
        """
        head = data[offset:offset + HEADER_SIZE]
        if len(head) < HEADER_SIZE:
            return None  # torn tail: partial header
        magic, kind, length = _HEAD.unpack_from(head)
        (hcrc,) = _CRC.unpack_from(head, _HEAD.size)
        if magic != FRAME_MAGIC or hcrc != _crc(head[:_HEAD.size]) \
                or length > MAX_PAYLOAD:
            # framing lost: quarantine the tail for forensics, truncate
            report.n_quarantined += 1
            report.quarantined.append(QuarantinedRecord(
                offset=offset, kind=None, length=len(data) - offset,
                reason="header-crc"))
            self._quarantine_bytes(data[offset:])
            return None
        body_end = offset + HEADER_SIZE + length + _CRC.size
        if body_end > len(data):
            return None  # torn tail: partial payload
        payload = data[offset + HEADER_SIZE:offset + HEADER_SIZE + length]
        (pcrc,) = _CRC.unpack_from(data, offset + HEADER_SIZE + length)
        if pcrc != _crc(payload):
            # boundary is trustworthy (header CRC passed): skip just
            # this record and keep scanning
            report.n_quarantined += 1
            report.quarantined.append(QuarantinedRecord(
                offset=offset, kind=kind, length=length,
                reason="payload-crc"))
            return body_end
        value: Any = payload
        if decode is not None:
            try:
                value = decode(kind, payload)
            except Exception:
                report.n_quarantined += 1
                report.quarantined.append(QuarantinedRecord(
                    offset=offset, kind=kind, length=length,
                    reason="payload-decode"))
                return body_end
        records.append((kind, value))
        report.n_records += 1
        return body_end

    def _quarantine_bytes(self, data: bytes) -> None:
        side = self.path.with_name(self.path.name + ".quarantined")
        try:
            with side.open("ab") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            pass  # forensics are best-effort; recovery must not fail

    def _truncate_to(self, size: int) -> None:
        with self.path.open("r+b") as fh:
            fh.truncate(size)
            os.fsync(fh.fileno())

    # -- appending -----------------------------------------------------

    def open(self) -> None:
        """Open for appending, creating the file (durably) if needed."""
        if self._fh is not None:
            return
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = self.path.open("ab")
        if fresh:
            self._fh.write(FILE_MAGIC)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            fsync_directory(self.path.parent)

    def append(self, kind: int, payload: bytes) -> None:
        """Append one record; durable on return when ``sync`` is set."""
        self.open()
        assert self._fh is not None
        frame = encode_frame(kind, payload)
        checked_write(self._fh, frame, self.path)
        self._fh.flush()
        if self.sync:
            crash_hook(POINT_PRE_FSYNC, self.path)
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def size_bytes(self) -> int:
        if self._fh is not None:
            self._fh.flush()
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def reset(self) -> None:
        """Truncate to an empty journal (after snapshot compaction)."""
        self.close()
        with self.path.open("wb") as fh:
            fh.write(FILE_MAGIC)
            fh.flush()
            os.fsync(fh.fileno())
        fsync_directory(self.path.parent)

    def __enter__(self) -> "RecordJournal":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
