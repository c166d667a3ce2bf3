"""Crash-safe append-only segment-file event log.

Layout: ``<root>/segment-000001.log``, ``segment-000002.log``, ... where
each segment is a sequence of records::

    [4-byte LE length][4-byte LE CRC32 of payload]
    [4-byte LE CRC32 of the 8 bytes before it][payload bytes]

and the payload is the canonical JSON of ``{"seq", "hash", "event"}``.
The header's own CRC covers the length, so a damaged length is caught
before it can frame the bytes after it as something else.
Appends go to the last segment; a new segment starts when the current
one exceeds ``segment_max_bytes`` (the directory is fsynced when a
segment is created, matching the registry's fsync-before-rename
contract).  Every acked append has been flushed *and* fsynced — a
SIGKILL mid-append can only leave a torn tail, never lose an acked
record.

Reopen replays every segment to rebuild the in-memory state (dedup map,
per-entity indexes, last sequence number).  A record cut short at the
very end of the *last* segment is the expected crash artefact (a prefix
of the record reached the file) and is truncated away.  A damaged byte
anywhere in a record that is all there — length, either CRC or payload —
is real damage, as is a short record in an earlier segment, and
surfaces as a typed :class:`StoreIOError`.

Chaos points: ``store.append`` fires before any bytes are written (the
append fails cleanly); ``store.fsync`` fires after the write, in which
case the tail is rolled back (ftruncate) before the typed error
propagates so in-memory and on-disk state stay in step.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib

from repro import chaos
from repro.obs.metrics import REGISTRY
from repro.store.events import Event, StoredEvent, event_from_wire, event_hash

__all__ = ["EventLog", "StoreIOError"]

#: (payload length, payload CRC32, CRC32 of the first two fields).
_HEADER = struct.Struct("<III")
_FIELDS = struct.Struct("<II")

#: Events accepted into the log, by kind.
_EVENTS_TOTAL = REGISTRY.counter(
    "repro_store_events_total",
    "Events appended to the durable event log",
    labels=("kind",),
)
#: Appends answered from the content-hash dedup map (no new record).
_DEDUP_HITS = REGISTRY.counter(
    "repro_store_dedup_hits_total",
    "Appends deduplicated by content hash (idempotent resubmissions)",
)


class StoreIOError(OSError):
    """Typed failure of the event log's disk layer (surface as 503)."""

    code = "store_io"

    def __init__(self, message: str, *, path: str | None = None):
        super().__init__(message)
        self.path = path


def _segment_name(index: int) -> str:
    return f"segment-{index:06d}.log"


def _entity_keys(event: Event):
    """Index keys ``(entity_type, id)`` one event should appear under."""
    kind = event.kind
    if kind == "tweet":
        yield ("user", event.user_id)
        yield ("tweet", event.tweet_id)
        yield ("tag", event.hashtag)
    elif kind == "retweet":
        yield ("user", event.user_id)
        yield ("tweet", event.tweet_id)
    elif kind == "follow":
        yield ("user", event.followee)
        yield ("user", event.follower)
    elif kind == "hashtag":
        yield ("tag", event.tag)


class EventLog:
    """Durable append-only log with content-hash dedup and replay.

    One writer at a time: the serving engine appends under its lock (in
    a server, from the batcher's executor thread).  A lock still guards
    the in-memory state, because ``/v1/metrics`` reads :meth:`stats`
    from the event-loop thread while an ingest appends.
    """

    def __init__(self, root: str, *, segment_max_bytes: int = 4 << 20,
                 fsync: bool = True):
        self.root = root
        self.segment_max_bytes = int(segment_max_bytes)
        self._fsync_enabled = bool(fsync)
        self._lock = threading.RLock()
        self._records: list[StoredEvent] = []
        self._by_hash: dict[str, int] = {}        # hash -> seq
        self._entity_index: dict[tuple, list[int]] = {}
        self._dedup_hits = 0
        self._truncated_tail_bytes = 0
        self._fh = None
        self._segment_index = 0
        self._segment_bytes = 0
        try:
            os.makedirs(self.root, exist_ok=True)
            self._replay_from_disk()
            self._open_tail()
        except StoreIOError:
            raise
        except OSError as exc:
            raise StoreIOError(
                f"could not open event log at {self.root}: {exc}",
                path=self.root,
            ) from exc

    # ---------------------------------------------------------------- open
    def _segments(self) -> list[int]:
        out = []
        for name in os.listdir(self.root):
            if name.startswith("segment-") and name.endswith(".log"):
                try:
                    out.append(int(name[len("segment-"):-len(".log")]))
                except ValueError:
                    continue
        return sorted(out)

    def _replay_from_disk(self) -> None:
        segments = self._segments()
        for pos, index in enumerate(segments):
            path = os.path.join(self.root, _segment_name(index))
            last = pos == len(segments) - 1
            good = self._scan_segment(path, is_last=last)
            if last:
                self._segment_index = index
                self._segment_bytes = good
        if not segments:
            self._segment_index = 1

    def _scan_segment(self, path: str, *, is_last: bool) -> int:
        """Replay one segment; returns the byte offset of the good tail."""
        with open(path, "rb") as fh:
            data = fh.read()
        off = 0
        n = len(data)
        while off < n:
            # A crash can only cut the *physically final* record short:
            # every append fsyncs before acking, so nothing is ever written
            # after an unsynced record, and what did reach the file is a
            # prefix of the record.  Any other damage is raised.
            short = n - off < _HEADER.size
            if not short:
                length, crc, header_crc = _HEADER.unpack_from(data, off)
                if zlib.crc32(data[off: off + _FIELDS.size]) != header_crc:
                    raise StoreIOError(
                        f"corrupt record header at byte {off} of {path}",
                        path=path,
                    )
                end = off + _HEADER.size + length
                short = end > n
            if short:
                if not is_last:
                    raise StoreIOError(
                        f"short record at byte {off} of non-final "
                        f"segment {path}", path=path,
                    )
                # Crash artefact: drop the torn tail of the last segment.
                self._truncated_tail_bytes = n - off
                with open(path, "r+b") as fh:
                    fh.truncate(off)
                    fh.flush()
                    self._fsync(fh, path)
                return off
            payload = data[off + _HEADER.size: end]
            if zlib.crc32(payload) != crc:
                raise StoreIOError(
                    f"corrupt record at byte {off} of {path}", path=path,
                )
            try:
                rec = json.loads(payload)
                event = event_from_wire(rec["event"])
                stored = StoredEvent(int(rec["seq"]), str(rec["hash"]), event)
            except (ValueError, KeyError, TypeError) as exc:
                raise StoreIOError(
                    f"undecodable record at byte {off} of {path}: {exc}",
                    path=path,
                ) from exc
            if stored.seq != len(self._records) + 1:
                raise StoreIOError(
                    f"sequence gap in {path}: record {stored.seq} after "
                    f"{len(self._records)} events", path=path,
                )
            self._admit(stored)
            off = end
        return off

    def _admit(self, stored: StoredEvent) -> None:
        """Record one stored event in the in-memory indexes."""
        self._records.append(stored)
        self._by_hash[stored.hash] = stored.seq
        for key in _entity_keys(stored.event):
            self._entity_index.setdefault(key, []).append(stored.seq)

    def _open_tail(self) -> None:
        path = os.path.join(self.root, _segment_name(self._segment_index))
        existed = os.path.exists(path)
        self._fh = open(path, "ab")
        if not existed:
            self._fsync_dir()

    # -------------------------------------------------------------- append
    def _fsync(self, fh, path: str) -> None:
        if not self._fsync_enabled:
            return
        if chaos.should_fire("store.fsync"):
            err = chaos.io_error("store.fsync", path)
            raise StoreIOError(str(err), path=path) from err
        os.fsync(fh.fileno())

    def _fsync_dir(self) -> None:
        if not self._fsync_enabled:
            return
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _roll_segment(self) -> None:
        self._fh.close()
        self._segment_index += 1
        self._segment_bytes = 0
        self._open_tail()

    def append(self, event: Event, h: str | None = None) -> tuple[int, str, bool]:
        """Durably append one event; returns ``(seq, hash, deduped)``.

        A resubmission (same content hash) is a no-op returning the
        original sequence number with ``deduped=True`` — the property
        that makes ingest idempotent and therefore retryable.  ``h`` is
        the event's :func:`event_hash` when the caller already has it.
        """
        if h is None:
            h = event_hash(event)
        with self._lock:
            seq = self._by_hash.get(h)
            if seq is not None:
                self._dedup_hits += 1
                _DEDUP_HITS.inc()
                return seq, h, True
            if self._fh is None:
                raise StoreIOError("event log is closed", path=self.root)
            if chaos.should_fire("store.append"):
                # Fires before any bytes hit disk: clean, typed failure.
                raise StoreIOError(
                    f"chaos: injected append failure "
                    f"[chaos point store.append] at {self.root}",
                    path=self.root,
                )
            if self._segment_bytes >= self.segment_max_bytes:
                self._roll_segment()
            seq = len(self._records) + 1
            stored = StoredEvent(seq, h, event)
            payload = json.dumps(
                stored.to_wire(), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            fields = _FIELDS.pack(len(payload), zlib.crc32(payload))
            record = fields + zlib.crc32(fields).to_bytes(4, "little") + payload
            path = os.path.join(self.root, _segment_name(self._segment_index))
            start = self._segment_bytes
            try:
                self._fh.write(record)
                self._fh.flush()
                self._fsync(self._fh, path)
            except OSError as exc:
                # Roll the tail back so disk matches memory; if even the
                # rollback fails the next reopen's torn-tail scan fixes it.
                try:
                    self._fh.truncate(start)
                    self._fh.flush()
                except OSError:
                    pass
                if isinstance(exc, StoreIOError):
                    raise
                raise StoreIOError(
                    f"append to {path} failed: {exc}", path=path
                ) from exc
            self._segment_bytes = start + len(record)
            self._admit(stored)
            _EVENTS_TOTAL.inc(kind=event.kind)
            return seq, h, False

    # --------------------------------------------------------------- query
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 when empty)."""
        with self._lock:
            return len(self._records)

    def events(self, start_seq: int = 0) -> list[StoredEvent]:
        """Stored events with ``seq > start_seq``, in sequence order."""
        with self._lock:
            return self._records[max(0, int(start_seq)):]

    def get(self, seq: int) -> StoredEvent:
        with self._lock:
            if not 1 <= seq <= len(self._records):
                raise KeyError(seq)
            return self._records[seq - 1]

    def seq_for_hash(self, h: str) -> int | None:
        with self._lock:
            return self._by_hash.get(h)

    def entity_events(self, entity_type: str, entity_id) -> list[StoredEvent]:
        """Events touching one entity (``"user"``/``"tweet"``/``"tag"``)."""
        with self._lock:
            seqs = self._entity_index.get((entity_type, entity_id), ())
            return [self._records[s - 1] for s in seqs]

    def stats(self) -> dict:
        """JSON-ready counters for ``/v1/metrics``."""
        with self._lock:
            kinds: dict[str, int] = {}
            for rec in self._records:
                kinds[rec.event.kind] = kinds.get(rec.event.kind, 0) + 1
            return {
                "events": len(self._records),
                "last_seq": len(self._records),
                "by_kind": kinds,
                "dedup_hits": self._dedup_hits,
                "segments": self._segment_index,
                "segment_bytes": self._segment_bytes,
                "truncated_tail_bytes": self._truncated_tail_bytes,
                "indexed_entities": len(self._entity_index),
            }

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
