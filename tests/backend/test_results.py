"""Result records survive pickling: multi-camera feed workers ship them."""

from __future__ import annotations

import pickle

import pytest

from repro.backend.results import Event, MatchRecord, QueryResult
from repro.common.geometry import BBox


def test_records_are_slotted():
    record = MatchRecord(frame_id=3, binding=(("car", 1),))
    event = Event(start_frame=1, end_frame=4)
    for value in (record, event):
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize(
    "value",
    [
        MatchRecord(3, (("car", 1), ("person", "@4")), (1, BBox(0, 0, 2, 2)), True, True, (7,)),
        Event(10, 20, (("car", 2),), "red", (12, 13)),
    ],
)
def test_record_pickle_round_trip(value):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol=protocol)) == value


def test_query_result_pickle_round_trip_shares_frame_ids():
    frame = 1000  # above the small-int cache, so sharing is observable
    records = [MatchRecord(frame, (("car", 1),), (1,)), MatchRecord(frame, (("car", 2),), (2,))]
    result = QueryResult(
        query_name="q",
        num_frames_processed=1200,
        matched_frames=[frame],
        matches={frame: records},
        events=[Event(frame, frame, (("car", 1),))],
        per_frame_ms=[0.5, 1.25],
        total_ms=1.75,
        cost_breakdown={"yolox": 1.75},
    )
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    key = next(iter(clone.matches))
    assert all(record.frame_id is key for record in clone.matches[key])
    assert clone.matched_frames[0] is key
