"""File-backed durability: the command log and snapshots on disk.

Once attached to an engine this directory is the only copy of its durable
history (:class:`~repro.hstore.cmdlog.CommandLog` keeps just the pending
group, :class:`~repro.hstore.snapshot.SnapshotStore` keeps no checkpoint),
so the engine survives a full process restart:

* ``<dir>/command.log`` — one :mod:`~repro.hstore.codec` frame per durable
  log record (a checked header, then a body with its own CRC32),
  append-only, written at group-commit flush time through one kept append
  handle; every group ends with a ``flush()``, so a flushed record is in
  the file for any reader (a second process, a second engine restoring
  while the writer lives) and a forked child inherits no buffered bytes;
* ``<dir>/snapshots/<id>.json`` — one JSON file per checkpoint, wrapped in
  a checksummed envelope so bit rot and torn writes are detected on load;
  each records ``log_offset``, the length of ``command.log`` when it was
  written, which is where the record at its ``through_lsn`` starts.

Usage::

    engine.enable_durability("/var/lib/sstore")   # start persisting
    ...                                            # run workload
    # --- process dies; later, a fresh process: ---
    engine = build_engine_with_same_schema_and_procedures()
    engine.restore_from_disk("/var/lib/sstore")    # snapshot + log replay

A log record comes back exactly as it was logged, tuples as tuples.  A
snapshot is JSON, so its tuples come back as lists and its dict keys as
strings; the snapshot load paths re-normalize (rowids via ``int()``, batch
rows via ``tuple()``), which the durability tests verify end to end.

Recovery reads the newest valid snapshot and the log from that snapshot's
``log_offset`` on: ``scan_log(offset)`` seeks past the checkpointed prefix,
which it never reads.  Offset 0 (no snapshot) scans the whole file through
the same code.  The full-history readers (``scan_log()``,
``load_log_records``, the log's ``all_records`` / ``records_from``) still
read and check every byte.

Crash hardening (exercised by :mod:`repro.faults` and ``tests/faults``),
stated for the bytes a scan reads — the whole file, or the suffix from the
offset:

* a *torn* final log record — the file ending anywhere inside the last
  frame, header or body, as a mid-append crash leaves it — is detected,
  dropped, and physically truncated away (at its absolute byte offset) by
  :meth:`scan_log`, with the drop count surfaced through
  ``RecoveryReport.torn_records``;
* an unreadable or checksum-mismatched snapshot file is skipped and
  recovery falls back to the previous snapshot, scanning from *its* offset
  (a longer replay), via :meth:`scan_snapshots`;
* a log shorter than the chosen snapshot's offset, or an offset that does
  not start the record at its ``through_lsn``, raises :class:`RecoveryError`;
* a whole frame that fails its header check or its CRC32 — the last one
  included, since a torn append leaves only a prefix of correct bytes — is
  real damage and raises :class:`RecoveryError`, so no flipped byte is
  ever replayed; so does an LSN other than the previous one plus 1 (a
  duplicated or reordered frame passes every per-frame check);
* a ``command.log`` in the JSON-lines format earlier versions wrote is
  refused with a :class:`RecoveryError` that names the format.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import IO, TYPE_CHECKING, Any

from repro.errors import RecoveryError
from repro.hstore.cmdlog import LogRecord
from repro.hstore.codec import decode_frame, encode_frame
from repro.hstore.snapshot import Snapshot
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["DurabilityDirectory"]

_LOG_FILE = "command.log"
_SNAPSHOT_DIR = "snapshots"


def _jsonable(value: Any) -> Any:
    """``value`` with every dict key made a string, the one thing ``json``
    does not take as it is (tuples it writes as arrays, like lists).

    Containers holding only scalars are returned as they are, so the usual
    record — a params tuple of rows of scalars — is walked, not copied.
    """
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        for item in value:
            if isinstance(item, (tuple, list, dict)):
                return [_jsonable(item) for item in value]
    return value


def _envelope_head(checksum: str) -> str:
    """A snapshot file's bytes before its payload (one ``}`` follows it)."""
    return f'{{"checksum":"{checksum}","payload":'


class DurabilityDirectory:
    """One engine's durable storage location."""

    def __init__(
        self, path: str | pathlib.Path, *, fsync_log: bool = False
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        (self.path / _SNAPSHOT_DIR).mkdir(exist_ok=True)
        #: fault-injection seam for every durable write made through here
        self.fault_injector: "FaultInjector | None" = None
        #: tracing seam; the owning engine swaps in its real tracer
        self.tracer = NULL_TRACER
        #: when set, every log append ends with one fsync — the fixed
        #: per-flush cost that group commit exists to amortize
        self.fsync_log = fsync_log
        #: the append handle on ``command.log``: opened by the first group,
        #: closed by :meth:`close_log`
        self._log_handle: IO[bytes] | None = None

    # ------------------------------------------------------------------
    # command log
    # ------------------------------------------------------------------

    @property
    def log_path(self) -> pathlib.Path:
        return self.path / _LOG_FILE

    def append_log_records(self, records: list[LogRecord]) -> None:
        """Persist freshly flushed records (called at group-commit time).

        Fault seam ``log.append`` fires once per record, before its bytes
        are written: a ``crash`` loses the record (and the rest of the
        batch), a ``torn_write`` leaves a partial record on disk, an
        ``io_error`` simulates the append syscall failing.
        """
        if not records:
            return
        if self.tracer.enabled:
            with self.tracer.span(
                "log.flush", "disk_append", records=len(records)
            ):
                self._append_log_records(records)
            return
        self._append_log_records(records)

    def _append_log_records(self, records: list[LogRecord]) -> None:
        # every frame is encoded before the first byte is written: a value
        # the codec refuses fails the group with the file untouched
        frames = list(map(encode_frame, records))
        handle = self._log_handle
        if handle is None:
            handle = self._log_handle = self.log_path.open("ab")
        try:
            for frame in frames:
                if self.fault_injector is not None:
                    self.fault_injector.fire(
                        "log.append",
                        handle=handle,
                        payload=frame,
                        path=self.log_path,
                    )
                handle.write(frame)
            # flushed => in the file: readers never wait for a close
            handle.flush()
            if self.fsync_log:
                os.fsync(handle.fileno())
        except BaseException:
            # the process "died" mid-group: leave exactly the bytes written
            # so far on disk and hold no handle on a file recovery may repair
            self.close_log()
            raise

    def close_log(self) -> None:
        """Flush and close the append handle (the next group reopens it)."""
        handle, self._log_handle = self._log_handle, None
        if handle is not None:
            handle.close()

    def log_size(self) -> int:
        """Bytes in ``command.log`` (0 before the first append)."""
        try:
            return self.log_path.stat().st_size
        except FileNotFoundError:
            return 0

    def scan_log(
        self, offset: int = 0, *, first_lsn: int = 0, repair: bool = True
    ) -> tuple[list[LogRecord], int]:
        """Read the durable log from byte ``offset``, tolerating a torn
        trailing frame.

        Returns ``(records, torn_records)`` for the records at or after
        ``offset``, which must start the frame of LSN ``first_lsn`` (a
        snapshot's ``log_offset`` and ``through_lsn``); the bytes before it
        are not read.  A file shorter than ``offset`` raises
        :class:`RecoveryError`.  A final frame the file ends inside is
        exactly what a crash mid-append leaves behind; it is dropped (and,
        with ``repair``, physically truncated off the file so later appends
        start clean).  A frame that fails its header check or its CRC —
        anywhere, the last one too — is real corruption, and so is an LSN
        other than the one before it plus one (a duplicated or reordered
        frame): both raise :class:`RecoveryError` naming the byte.
        """
        if repair:
            self.close_log()  # never truncate or patch under an open handle
        size = self.log_size()
        if size < offset:
            raise RecoveryError(
                f"{self.log_path} holds {size} bytes, but the snapshot's "
                f"replay suffix starts at byte {offset}"
            )
        if size == 0:
            return [], 0
        with self.log_path.open("rb") as handle:
            if handle.read(1) == b"{":
                raise RecoveryError(
                    f"{self.log_path} is a JSON-lines command log, a format "
                    f"this version does not read"
                )
            handle.seek(offset)
            raw = handle.read()

        records: list[LogRecord] = []
        append = records.append
        pos = 0  # just past the last intact frame, relative to offset
        expected = first_lsn
        while pos < len(raw):
            try:
                framed = decode_frame(raw, pos)
            except RecoveryError as exc:
                raise RecoveryError(
                    f"corrupt log record at {self.log_path} byte "
                    f"{offset + pos}: {exc}"
                ) from exc
            if framed is None:
                break
            record, end = framed
            if record.lsn != expected:
                raise RecoveryError(
                    f"log record at {self.log_path} byte {offset + pos} has "
                    f"LSN {record.lsn}, but LSN {expected} comes next"
                )
            append(record)
            expected += 1
            pos = end
        torn = int(pos < len(raw))
        if torn and repair:
            with self.log_path.open("r+b") as handle:
                handle.truncate(offset + pos)
        return records, torn

    def load_log_records(self) -> list[LogRecord]:
        """Read back every durable record, in LSN order (torn tail dropped)."""
        records, _torn = self.scan_log(repair=True)
        return records

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def write_snapshot(self, snapshot: Snapshot) -> pathlib.Path:
        """Persist one checkpoint, checksummed against later corruption.

        Fault seams: ``snapshot.write`` fires after the bytes land (a
        ``crash`` there tears the file, a ``corrupt`` silently damages it,
        an ``io_error`` deletes the never-landed file and raises);
        ``snapshot.fsync`` fires once the file is fully durable.
        """
        target = self.path / _SNAPSHOT_DIR / f"{snapshot.snapshot_id:08d}.json"
        payload = {
            "snapshot_id": snapshot.snapshot_id,
            "through_lsn": snapshot.through_lsn,
            "logical_time": snapshot.logical_time,
            "partition_state": _jsonable(snapshot.partition_state),
            "extra": _jsonable(snapshot.extra),
            "log_offset": snapshot.log_offset,
        }
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        # the envelope embeds the body as hashed: one encoding per snapshot
        checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
        envelope = _envelope_head(checksum) + body + "}"
        with self.tracer.span(
            "snapshot", "write_file", snapshot_id=snapshot.snapshot_id
        ):
            target.write_text(envelope)
            if self.fault_injector is not None:
                self.fault_injector.fire(
                    "snapshot.write", path=target, data=envelope
                )
                self.fault_injector.fire("snapshot.fsync", path=target)
        return target

    def load_snapshot_file(self, path: pathlib.Path) -> Snapshot:
        """Load and validate one snapshot file.

        Raises :class:`RecoveryError` with a clear message when the file is
        torn, unparseable, incomplete, or fails its checksum — the caller
        (:meth:`scan_snapshots`) falls back to an older checkpoint.
        """
        try:
            raw = path.read_bytes()
            data = json.loads(raw)
        except (OSError, ValueError) as exc:
            raise RecoveryError(f"unreadable snapshot {path.name}: {exc}") from exc
        if not isinstance(data, dict) or "payload" not in data:
            raise RecoveryError(
                f"malformed snapshot {path.name}: no checksummed payload"
            )
        payload = data["payload"]
        # the checksum covers the payload's bytes exactly as stored: any
        # changed byte, inside the payload or around it, fails
        head = _envelope_head(str(data.get("checksum"))).encode("utf-8")
        body = raw[len(head) : -1] if raw.startswith(head) else raw
        digest = hashlib.sha256(body).hexdigest()
        if digest != data.get("checksum"):
            raise RecoveryError(
                f"corrupt snapshot {path.name}: checksum mismatch "
                f"(stored {str(data.get('checksum'))[:12]}…, "
                f"computed {digest[:12]}…)"
            )
        try:
            partition_state = {
                int(partition_id): state
                for partition_id, state in payload["partition_state"].items()
            }
            return Snapshot(
                snapshot_id=int(payload["snapshot_id"]),
                through_lsn=int(payload["through_lsn"]),
                logical_time=int(payload["logical_time"]),
                partition_state=partition_state,
                extra=payload.get("extra", {}),
                log_offset=int(payload["log_offset"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise RecoveryError(
                f"malformed snapshot {path.name}: {exc}"
            ) from exc

    def scan_snapshots(self) -> tuple[Snapshot | None, list[pathlib.Path]]:
        """Newest *valid* snapshot, plus the invalid files skipped over.

        Walks checkpoints newest-first so a corrupt or torn latest snapshot
        degrades to the previous one (a longer log replay) instead of a
        failed recovery.
        """
        snapshot_dir = self.path / _SNAPSHOT_DIR
        skipped: list[pathlib.Path] = []
        for candidate in sorted(snapshot_dir.glob("*.json"), reverse=True):
            try:
                return self.load_snapshot_file(candidate), skipped
            except RecoveryError:
                skipped.append(candidate)
        return None, skipped

    def load_latest_snapshot(self) -> Snapshot | None:
        snapshot, _skipped = self.scan_snapshots()
        return snapshot

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Wipe the directory's contents (test helper)."""
        self.close_log()
        if self.log_path.exists():
            self.log_path.unlink()
        for snapshot_file in (self.path / _SNAPSHOT_DIR).glob("*.json"):
            snapshot_file.unlink()
