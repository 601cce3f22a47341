"""Unit tests for the bounded-memory structured decision log."""

from __future__ import annotations

import pytest

from repro.obs.decisions import DecisionLog


def test_record_and_query():
    log = DecisionLog()
    log.record("frame-gated", "frame-filter-rejected", frame_id=7, subject="q1", model="m")
    log.record("frame-deferred", "stride-skip", frame_id=8)
    assert len(log) == 2
    assert log.count("frame-gated") == 1
    assert log.count("frame-gated", "frame-filter-rejected") == 1
    assert log.count("frame-gated", "other") == 0
    (gated,) = log.records("frame-gated")
    assert gated.frame_id == 7
    assert gated.subject == "q1"
    assert dict(gated.attrs) == {"model": "m"}


def test_records_filter_by_reason():
    log = DecisionLog()
    log.record("reid-unmatched", "empty-gallery")
    log.record("reid-unmatched", "below-threshold")
    assert len(log.records("reid-unmatched")) == 2
    assert len(log.records("reid-unmatched", "below-threshold")) == 1
    assert log.records("nope") == []


def test_summary_groups_by_action_then_reason():
    log = DecisionLog()
    for _ in range(3):
        log.record("frame-gated", "frame-filter-rejected")
    log.record("stride-raised", "stable-streak")
    assert log.summary() == {
        "frame-gated": {"frame-filter-rejected": 3},
        "stride-raised": {"stable-streak": 1},
    }


def test_bounded_memory_keeps_counts():
    log = DecisionLog(max_records=4)
    for i in range(10):
        log.record("frame-deferred", "stride-skip", frame_id=i)
    # the deque trims to the most recent records...
    assert len(log) == 4
    assert [d.frame_id for d in log.records()] == [6, 7, 8, 9]
    assert log.evicted == 6
    # ...but the counters never forget (100% accounting survives eviction)
    assert log.count("frame-deferred") == 10


def test_as_dict():
    log = DecisionLog()
    log.record("stream-retired", "answer-determined", frame_id=3, subject="q", extra=1)
    d = log.records()[0].as_dict()
    assert d == {
        "action": "stream-retired",
        "reason": "answer-determined",
        "frame_id": 3,
        "subject": "q",
        "extra": 1,
    }


def test_max_records_validation():
    with pytest.raises(ValueError):
        DecisionLog(max_records=0)


def test_pickle_round_trip():
    import pickle

    log = DecisionLog(max_records=2)
    for frame in range(3):
        log.record("frame-gated", "frame-filter-rejected", frame_id=frame)
    clone = pickle.loads(pickle.dumps(log))
    assert clone.records() == log.records()
    assert clone.summary() == log.summary()
    assert clone.evicted == log.evicted == 1
    clone.record("stride-raised", "stable-streak")  # the lock was recreated
    assert clone.count("stride-raised") == 1 and log.count("stride-raised") == 0


def test_extend_matches_one_shared_log():
    shared = DecisionLog(max_records=3)
    first, second = DecisionLog(max_records=3), DecisionLog(max_records=3)
    for log, frames in ((first, range(2)), (second, range(2, 6))):
        for frame in frames:
            log.record("frame-deferred", "stride-skip", frame_id=frame)
            shared.record("frame-deferred", "stride-skip", frame_id=frame)
    merged = DecisionLog(max_records=3)
    merged.extend(first)
    merged.extend(second)
    assert merged.records() == shared.records()
    assert merged.summary() == shared.summary()
    assert merged.evicted == shared.evicted == 3
