"""EventLog durability: append/dedup, reopen replay, torn tails, chaos."""

import os
import struct
import zlib

import pytest

from repro import chaos
from repro.chaos import ChaosPlan, ChaosRule
from repro.store import (
    EventLog,
    FollowEvent,
    RetweetEvent,
    StoreIOError,
    TweetEvent,
    event_hash,
)


@pytest.fixture(autouse=True)
def _no_chaos_leak():
    yield
    chaos.disable()


def _rt(i: int) -> RetweetEvent:
    return RetweetEvent(tweet_id=i, user_id=i + 1, timestamp=float(i))


def test_append_assigns_contiguous_seqs(tmp_path):
    with EventLog(str(tmp_path)) as log:
        seqs = [log.append(_rt(i))[0] for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert log.last_seq == 5


def test_dedup_returns_original_seq_without_new_record(tmp_path):
    with EventLog(str(tmp_path)) as log:
        seq1, h1, deduped1 = log.append(_rt(1))
        assert not deduped1
        before = log.stats()["segment_bytes"]
        seq2, h2, deduped2 = log.append(_rt(1))
        assert (seq2, h2, deduped2) == (seq1, h1, True)
        assert log.stats()["segment_bytes"] == before  # no bytes written
        assert log.stats()["dedup_hits"] == 1
        assert log.seq_for_hash(h1) == seq1


def test_reopen_replays_state(tmp_path):
    events = [_rt(i) for i in range(7)]
    with EventLog(str(tmp_path)) as log:
        for ev in events:
            log.append(ev)
    with EventLog(str(tmp_path)) as log:
        assert log.last_seq == 7
        assert [s.event for s in log.events(0)] == events
        assert [s.seq for s in log.events(4)] == [5, 6, 7]
        # dedup map survives the reopen
        seq, _, deduped = log.append(events[2])
        assert (seq, deduped) == (3, True)
        assert log.get(3).event == events[2]


def test_entity_index(tmp_path):
    with EventLog(str(tmp_path)) as log:
        log.append(TweetEvent(tweet_id=10, user_id=1, hashtag="#x",
                              text="t", timestamp=0.0))
        log.append(RetweetEvent(tweet_id=10, user_id=2, timestamp=1.0))
        log.append(FollowEvent(followee=1, follower=2))
        assert [s.seq for s in log.entity_events("tweet", 10)] == [1, 2]
        assert [s.seq for s in log.entity_events("user", 2)] == [2, 3]
        assert [s.seq for s in log.entity_events("tag", "#x")] == [1]
        assert log.entity_events("user", 99) == []


def test_segment_rollover_and_replay(tmp_path):
    with EventLog(str(tmp_path), segment_max_bytes=256) as log:
        for i in range(20):
            log.append(_rt(i))
        assert log.stats()["segments"] > 1
    with EventLog(str(tmp_path), segment_max_bytes=256) as log:
        assert log.last_seq == 20
        assert [s.seq for s in log.events(0)] == list(range(1, 21))


def test_torn_tail_of_last_segment_is_truncated(tmp_path):
    with EventLog(str(tmp_path)) as log:
        for i in range(3):
            log.append(_rt(i))
        path = os.path.join(log.root, "segment-000001.log")
        good = log.stats()["segment_bytes"]
    # Simulate a crash mid-append: the first bytes of a record at the tail.
    fields = struct.pack("<II", 9999, 0)
    with open(path, "ab") as fh:
        fh.write(fields + struct.pack("<I", zlib.crc32(fields)) + b"partial")
    with EventLog(str(tmp_path)) as log:
        assert log.last_seq == 3  # acked events all survive
        assert log.stats()["truncated_tail_bytes"] > 0
        assert os.path.getsize(path) == good  # tail physically removed
        seq, _, deduped = log.append(_rt(99))
        assert (seq, deduped) == (4, False)


def test_corruption_mid_file_is_a_typed_error(tmp_path):
    with EventLog(str(tmp_path)) as log:
        for i in range(4):
            log.append(_rt(i))
        path = os.path.join(log.root, "segment-000001.log")
    with open(path, "r+b") as fh:
        fh.seek(12)  # inside the first record's payload: CRC must catch it
        fh.write(b"\xff")
    with pytest.raises(StoreIOError) as err:
        EventLog(str(tmp_path))
    assert err.value.code == "store_io"


def test_crc_mismatch_on_final_record_is_a_typed_error(tmp_path):
    """Only a record cut short is a torn tail: a final record that is all
    there but fails its CRC is damage to an acked event."""
    with EventLog(str(tmp_path)) as log:
        for i in range(3):
            log.append(_rt(i))
        path = os.path.join(log.root, "segment-000001.log")
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.seek(size - 2)  # inside the final record's payload
        fh.write(b"\xff")
    with pytest.raises(StoreIOError):
        EventLog(str(tmp_path))
    assert os.path.getsize(path) == size  # nothing was truncated


@pytest.mark.parametrize("at", [0, 3, 4, 8])
def test_damaged_header_is_a_typed_error(tmp_path, at):
    """A damaged length (or either CRC) in the first record raises; it
    never frames the rest of the segment as one torn record."""
    with EventLog(str(tmp_path)) as log:
        for i in range(4):
            log.append(_rt(i))
        path = os.path.join(log.root, "segment-000001.log")
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.seek(at)
        byte = fh.read(1)
        fh.seek(at)
        fh.write(bytes([byte[0] ^ 0x40]))
    with pytest.raises(StoreIOError):
        EventLog(str(tmp_path))
    assert os.path.getsize(path) == size


def test_corrupt_non_final_segment_is_not_truncated(tmp_path):
    with EventLog(str(tmp_path), segment_max_bytes=128) as log:
        for i in range(10):
            log.append(_rt(i))
        assert log.stats()["segments"] > 1
    first = os.path.join(str(tmp_path), "segment-000001.log")
    size = os.path.getsize(first)
    os.truncate(first, size - 3)  # torn record NOT at the log's tail
    with pytest.raises(StoreIOError):
        EventLog(str(tmp_path), segment_max_bytes=128)


def test_closed_log_refuses_appends(tmp_path):
    log = EventLog(str(tmp_path))
    log.append(_rt(1))
    log.close()
    with pytest.raises(StoreIOError):
        log.append(_rt(2))


def test_chaos_append_point_fails_cleanly(tmp_path):
    with EventLog(str(tmp_path)) as log:
        log.append(_rt(1))
        chaos.enable(ChaosPlan(seed=0, rules={"store.append": ChaosRule(at=(0,))}))
        with pytest.raises(StoreIOError):
            log.append(_rt(2))
        chaos.disable()
        seq, _, deduped = log.append(_rt(2))  # clean retry succeeds
        assert (seq, deduped) == (2, False)
    with EventLog(str(tmp_path)) as log:
        assert log.last_seq == 2
        assert log.stats()["truncated_tail_bytes"] == 0


def test_chaos_fsync_point_rolls_back_the_write(tmp_path):
    with EventLog(str(tmp_path)) as log:
        log.append(_rt(1))
        before = log.stats()["segment_bytes"]
        chaos.enable(ChaosPlan(seed=0, rules={"store.fsync": ChaosRule(at=(0,))}))
        with pytest.raises(StoreIOError) as err:
            log.append(_rt(2))
        assert err.value.code == "store_io"
        chaos.disable()
        # The failed append left no bytes and no in-memory record behind.
        assert log.stats()["segment_bytes"] == before
        assert log.last_seq == 1
        assert log.seq_for_hash(event_hash(_rt(2))) is None
        seq, _, deduped = log.append(_rt(2))
        assert (seq, deduped) == (2, False)
    with EventLog(str(tmp_path)) as log:
        assert [s.seq for s in log.events(0)] == [1, 2]
        assert log.stats()["truncated_tail_bytes"] == 0
