"""EventLog against a list oracle, driven by a hypothesis state machine.

The oracle is the list of distinct events in append order: an event's
seq is its 1-based position, and appending an event already in the list
acks its original seq without writing.  The machine interleaves:

- appends drawn from a small pool, so duplicates are common;
- reopens, which rebuild the log from its segment files;
- crashes, which cut k bytes off the final record and reopen — the torn
  tail is truncated away and the oracle forgets that one event;
- a flip of any byte of any whole record (its length, either CRC or its
  payload, the final record's too), which must make reopen raise
  :class:`StoreIOError` and truncate nothing (the byte is then restored);

over logs whose ``segment_max_bytes`` is small enough that segments roll.
"""

import os
import shutil
import struct
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
import pytest

from repro.store import (
    EventLog,
    FollowEvent,
    RetweetEvent,
    StoreIOError,
    TweetEvent,
    event_hash,
)

_HEADER = struct.Struct("<III")

EVENTS = st.one_of(
    st.builds(RetweetEvent, tweet_id=st.integers(0, 5), user_id=st.integers(0, 3),
              timestamp=st.sampled_from([0.0, 1.5])),
    st.builds(FollowEvent, followee=st.integers(0, 3), follower=st.integers(0, 3)),
    st.builds(TweetEvent, tweet_id=st.integers(0, 3), user_id=st.integers(0, 2),
              hashtag=st.just("#t"), text=st.sampled_from(["a", "hate ü"]),
              timestamp=st.just(2.0)),
)


def _records(path: str) -> list[tuple[int, int]]:
    """``(offset, size)`` of every whole record in one segment file."""
    with open(path, "rb") as fh:
        data = fh.read()
    out, off = [], 0
    while off + _HEADER.size <= len(data):
        length, _, _ = _HEADER.unpack_from(data, off)
        size = _HEADER.size + length
        if off + size > len(data):
            break
        out.append((off, size))
        off += size
    return out


class EventLogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="eventlog-machine-")
        self.oracle: list = []
        self.log: EventLog | None = None

    @initialize(segment_max_bytes=st.sampled_from([1, 150, 400, 4 << 20]))
    def open_log(self, segment_max_bytes):
        self.segment_max_bytes = segment_max_bytes
        self._open()

    def _open(self) -> None:
        self.log = EventLog(self.root, segment_max_bytes=self.segment_max_bytes,
                            fsync=False)

    def _reopen(self) -> None:
        self.log.close()
        self._open()

    def _segments(self) -> list[str]:
        names = sorted(n for n in os.listdir(self.root) if n.startswith("segment-"))
        return [os.path.join(self.root, n) for n in names]

    # ----------------------------------------------------------------- rules
    @rule(event=EVENTS)
    def append(self, event):
        seq, h, deduped = self.log.append(event)
        assert h == event_hash(event)
        if event in self.oracle:
            assert (seq, deduped) == (self.oracle.index(event) + 1, True)
        else:
            self.oracle.append(event)
            assert (seq, deduped) == (len(self.oracle), False)

    @rule()
    def reopen(self):
        self._reopen()
        assert self.log.stats()["truncated_tail_bytes"] == 0

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def crash(self, data):
        """A torn final record: only its first ``size - k`` bytes hit disk."""
        self.log.close()
        last = self._segments()[-1]
        records = _records(last)
        if not records:  # the final record sits in an earlier segment
            self._open()
            return
        off, size = records[-1]
        k = data.draw(st.integers(1, size), label="k")
        os.truncate(last, off + size - k)
        self.oracle.pop()
        self._open()
        assert self.log.stats()["truncated_tail_bytes"] == size - k
        assert os.path.getsize(last) == off

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def flip_any_byte(self, data):
        self.log.close()
        records = [
            (path, off, size)
            for path in self._segments()
            for off, size in _records(path)
        ]
        path, off, size = data.draw(st.sampled_from(records), label="record")
        at = off + data.draw(st.integers(0, size - 1), label="byte")
        mask = data.draw(st.integers(1, 255), label="mask")
        size_before = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(at)
            original = fh.read(1)
            fh.seek(at)
            fh.write(bytes([original[0] ^ mask]))
        with pytest.raises(StoreIOError):
            EventLog(self.root, segment_max_bytes=self.segment_max_bytes, fsync=False)
        assert os.path.getsize(path) == size_before
        with open(path, "r+b") as fh:
            fh.seek(at)
            fh.write(original)
        self._open()

    # ------------------------------------------------------------ invariants
    @invariant()
    def matches_oracle(self):
        if self.log is None:
            return
        assert self.log.last_seq == len(self.oracle)
        stored = self.log.events(0)
        assert [s.event for s in stored] == self.oracle
        assert [s.seq for s in stored] == list(range(1, len(self.oracle) + 1))
        for s in stored[-2:]:
            assert self.log.seq_for_hash(s.hash) == s.seq
            assert self.log.get(s.seq) == s

    def teardown(self):
        if self.log is not None:
            self.log.close()
        shutil.rmtree(self.root, ignore_errors=True)


EventLogMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestEventLogMachine = EventLogMachine.TestCase
