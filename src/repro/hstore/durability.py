"""File-backed durability: the command log and snapshots on disk.

Once attached to an engine this directory is the only copy of its durable
history (:class:`~repro.hstore.cmdlog.CommandLog` keeps just the pending
group, :class:`~repro.hstore.snapshot.SnapshotStore` keeps no checkpoint),
so the engine survives a full process restart:

* ``<dir>/command.log`` — one JSON object per durable log record,
  append-only, written at group-commit flush time through one kept append
  handle; every group ends with a ``flush()``, so a flushed record is in
  the file for any reader (a second process, a second engine restoring
  while the writer lives) and a forked child inherits no buffered bytes;
* ``<dir>/snapshots/<id>.json`` — one file per checkpoint, wrapped in a
  checksummed envelope so bit rot and torn writes are detected on load;
  each records ``log_offset``, the length of ``command.log`` when it was
  written, which is where the record at its ``through_lsn`` starts.

Usage::

    engine.enable_durability("/var/lib/sstore")   # start persisting
    ...                                            # run workload
    # --- process dies; later, a fresh process: ---
    engine = build_engine_with_same_schema_and_procedures()
    engine.restore_from_disk("/var/lib/sstore")    # snapshot + log replay

JSON is the wire format, so tuples round-trip as lists; every load path in
the engine re-normalizes (rowids via ``int()``, batch rows via ``tuple()``),
which the durability tests verify end to end.

Recovery reads the newest valid snapshot and the log from that snapshot's
``log_offset`` on: ``scan_log(offset)`` seeks past the checkpointed prefix,
which it never reads.  Offset 0 (no snapshot, or one written before
snapshots recorded the offset) scans the whole file through the same code.
The full-history readers (``scan_log()``, ``load_log_records``, the log's
``all_records`` / ``records_from``) still read and check every byte.

Crash hardening (exercised by :mod:`repro.faults` and ``tests/faults``),
stated for the bytes a scan reads — the whole file, or the suffix from the
offset:

* a *torn* final log record — the file truncated at an arbitrary byte
  offset within the last record, as a mid-append crash leaves it — is
  detected, dropped, and physically truncated away (at its absolute byte
  offset) by :meth:`scan_log`, with the drop count surfaced through
  ``RecoveryReport.torn_records``;
* an unreadable or checksum-mismatched snapshot file is skipped and
  recovery falls back to the previous snapshot, scanning from *its* offset
  (a longer replay), via :meth:`scan_snapshots`;
* a log shorter than the chosen snapshot's offset, or an offset that does
  not start the record at its ``through_lsn``, raises :class:`RecoveryError`;
* corruption anywhere *before* the final log record read is not survivable
  tearing but real damage, and still raises :class:`RecoveryError` loudly.
  Each line is decoded strictly, so a flipped byte that leaves invalid
  UTF-8 is caught.  A flip that stays valid UTF-8 *and* valid JSON is not:
  that would take a per-record checksum, about 16 bytes on a Voter record
  of 166, more than the log's size budget allows.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import IO, TYPE_CHECKING, Any

from repro.errors import RecoveryError
from repro.hstore.cmdlog import LogRecord
from repro.hstore.snapshot import Snapshot
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["DurabilityDirectory"]

_LOG_FILE = "command.log"
_SNAPSHOT_DIR = "snapshots"


#: one encoder for every log record (``json.dumps`` would build one per call)
_encode_record = json.JSONEncoder(separators=(",", ":")).encode


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
        self._log_handle: IO[str] | None = None

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
        handle = self._log_handle
        if handle is None:
            handle = self._log_handle = self.log_path.open("a", encoding="utf-8")
        try:
            for record in records:
                payload = (
                    _encode_record(
                        {
                            "lsn": record.lsn,
                            "txn_id": record.txn_id,
                            "procedure": record.procedure,
                            "params": _jsonable(record.params),
                            "partition": record.partition,
                            "logical_time": record.logical_time,
                            "meta": _jsonable(record.meta),
                        }
                    )
                    + "\n"
                )
                if self.fault_injector is not None:
                    self.fault_injector.fire(
                        "log.append",
                        handle=handle,
                        payload=payload,
                        path=self.log_path,
                    )
                handle.write(payload)
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
        self, offset: int = 0, *, repair: bool = True
    ) -> tuple[list[LogRecord], int]:
        """Read the durable log from byte ``offset``, tolerating a torn
        trailing record.

        Returns ``(records, torn_records)`` for the records at or after
        ``offset``, which must start a record (a snapshot's ``log_offset``);
        the bytes before it are not read.  A file shorter than ``offset``
        raises :class:`RecoveryError`.  A final line with no trailing
        newline that fails to parse is exactly what a crash mid-append
        leaves behind; it is dropped (and, with ``repair``, physically
        truncated off the file so later appends start clean).  An
        unparseable line anywhere else — or a *newline-terminated* garbage
        final line, which no torn write can produce — is real corruption
        and raises :class:`RecoveryError`.
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
            handle.seek(offset)
            raw = handle.read()
        segments = raw.split(b"\n")
        terminated_tail = segments and segments[-1] == b""
        if terminated_tail:
            segments.pop()

        records: list[LogRecord] = []
        torn = 0
        good_end = offset  # absolute byte offset just past the last intact record
        needs_newline = False
        for index, segment in enumerate(segments):
            is_last = index == len(segments) - 1
            has_newline = terminated_tail or not is_last
            if not segment.strip():
                good_end += len(segment) + (1 if has_newline else 0)
                continue
            try:
                # the bytes themselves: invalid UTF-8 is a ValueError here
                payload = json.loads(segment)
                record = LogRecord(
                    lsn=int(payload["lsn"]),
                    txn_id=int(payload["txn_id"]),
                    procedure=payload["procedure"],
                    params=tuple(payload["params"]),
                    partition=int(payload["partition"]),
                    logical_time=int(payload["logical_time"]),
                    meta=tuple(
                        (key, value) for key, value in payload.get("meta", [])
                    ),
                )
            except (KeyError, TypeError, ValueError) as exc:
                if is_last and not has_newline:
                    torn += 1
                    break
                raise RecoveryError(
                    f"corrupt log record at {self.log_path} byte {good_end}: {exc}"
                ) from exc
            records.append(record)
            good_end += len(segment) + (1 if has_newline else 0)
            needs_newline = not has_newline

        if repair:
            if torn:
                with self.log_path.open("r+b") as handle:
                    handle.truncate(good_end)
            elif needs_newline:
                # the final record is complete but lost its newline to a
                # crash between the payload and the terminator; restore it
                # so the next append does not concatenate onto it
                with self.log_path.open("a", encoding="utf-8") as handle:
                    handle.write("\n")

        records.sort(key=lambda record: record.lsn)
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
        if not isinstance(data, dict):
            raise RecoveryError(f"malformed snapshot {path.name}: not an object")
        if "payload" in data:
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
        else:
            # legacy pre-checksum format: the payload is the whole file
            payload = data
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
                log_offset=int(payload.get("log_offset", 0)),
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
