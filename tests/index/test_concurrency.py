"""Index writes of multi-camera scans that run in worker processes.

A :class:`MultiCameraSession` shares ONE :class:`VideoIndexStore` across
all of its feeds.  Feeds scanned in worker processes journal their writes
and the parent replays the journals in feed order, so the resulting index
must be *identical* whatever ``max_workers`` was, and identical to the
bytes a serial run produces.
"""

from __future__ import annotations

import json

import pytest

from repro.backend.planner import PlannerConfig
from repro.backend.session import MultiCameraSession
from repro.frontend.builtin import Car, Person
from repro.frontend.query import Query
from repro.videosim.multicam import CameraPlacement, handoff_scenario


class CarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return self.car.score > 0.5

    def frame_output(self):
        return (self.car.track_id,)


class PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


FOUR_FEEDS = (
    CameraPlacement("cam_a", fps=10, start_offset_s=0.0),
    CameraPlacement("cam_b", fps=15, start_offset_s=2.0),
    CameraPlacement("cam_c", fps=10, start_offset_s=4.0),
    CameraPlacement("cam_d", fps=20, start_offset_s=6.0),
)


@pytest.fixture(scope="module")
def scenario():
    return handoff_scenario(
        cameras=FOUR_FEEDS,
        num_entities=3,
        background_pedestrians_per_minute=4.0,
        seed=0,
    )


def run_and_dump(scenario, max_workers):
    session = MultiCameraSession(
        scenario.videos,
        config=PlannerConfig(
            profile_plans=False,
            enable_cross_camera_reid=True,
            enable_video_index=True,
        ),
        max_workers=max_workers,
        start_offsets=scenario.start_offsets,
    )
    results = session.execute_many([CarQuery(), PersonQuery()])
    return session, results, session.index_store.to_json()


class TestConcurrentWrites:
    def test_index_is_identical_across_worker_counts(self, scenario):
        _, serial_results, serial_dump = run_and_dump(scenario, max_workers=1)
        for workers in (2, 4):
            _, results, dump = run_and_dump(scenario, max_workers=workers)
            assert dump == serial_dump, f"index diverged at max_workers={workers}"
            for got, want in zip(results, serial_results):
                assert got.per_camera == want.per_camera

    def test_concurrent_cold_scan_is_complete(self, scenario):
        # The interleaved writes must not lose entries: every feed's scanned
        # frames are present for its detector.
        session, _, dump = run_and_dump(scenario, max_workers=4)
        payload = json.loads(dump)
        for name, feed in session.sessions.items():
            from repro.index.schema import video_key

            kinds = payload["videos"][video_key(feed.video)]["kinds"]
            frames = set()
            for bucket in kinds["detections"].values():
                frames.update(int(f) for f in bucket["entries"])
            scanned = feed.last_context.scan_stats.frames_scanned
            seeded = len(feed.last_context.seeded_frames)
            assert len(frames) == scanned - seeded, f"feed {name} lost index writes"

    def test_warm_multicamera_run_skips_every_detector(self, scenario):
        session, cold_results, _ = run_and_dump(scenario, max_workers=4)
        cold_calls = {
            name: feed.last_context.clock.calls.get("yolox", 0)
            for name, feed in session.sessions.items()
        }
        assert sum(cold_calls.values()) > 0
        warm_results = session.execute_many([CarQuery(), PersonQuery()])
        for name, feed in session.sessions.items():
            assert feed.last_context.clock.calls.get("yolox", 0) == 0, name
        # The warm pass is cheaper (that is the point) but semantically
        # identical: same matches, same events, per feed and per query.
        for got, want in zip(warm_results, cold_results):
            assert set(got.per_camera) == set(want.per_camera)
            for name in got.per_camera:
                g, w = got.per_camera[name], want.per_camera[name]
                assert (g.matched_frames, g.matches, g.events, g.aggregates) == (
                    w.matched_frames,
                    w.matches,
                    w.events,
                    w.aggregates,
                ), name
