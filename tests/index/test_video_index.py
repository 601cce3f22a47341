"""Tests for the persistent video index (:mod:`repro.index`).

Covers the store primitives (versioned lookup/record, canonical
serialization, corruption recovery), the session-level contract (a re-query
over an indexed video serves detector outputs / filter verdicts / re-id
embeddings from the index with identical results, a stale model version
falls back to live invocation, seeded frames are never persisted, the
disabled path is byte-identical), the planner's consumption of observed
per-video statistics (``enable_video_index`` replacing the
``stride_stable_fraction`` prior), and the observability surface
(``index_hits``/``index_misses`` metrics, decisions, explain section).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backend.planner import Planner, PlannerConfig
from repro.backend.session import MultiCameraSession, QuerySession
from repro.common.config import IndexConfig
from repro.common.geometry import BBox
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.query import Query
from repro.index.schema import detection_key, model_version, video_key
from repro.index.store import VideoIndexStore
from repro.models.base import Detection
from repro.models.zoo import default_zoo
from repro.videosim.datasets import camera_clip
from repro.videosim.multicam import CameraPlacement, handoff_scenario


class RedCarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class PersonQuery(Query):
    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


class CarQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return self.car.score > 0.5

    def frame_output(self):
        return (self.car.track_id,)


class GatedRedCarQuery(Query):
    """RedCar VObj: carries the registered ``no_red_on_road`` frame filter."""

    def __init__(self):
        self.car = RedCar("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


@pytest.fixture(scope="module")
def video():
    return camera_clip("banff", duration_s=10, seed=1)


def indexed_config(**kw):
    return PlannerConfig(profile_plans=False, enable_video_index=True, **kw)


def detector_calls(session, model="yolox"):
    return session.last_context.clock.calls.get(model, 0)


def result_signature(result):
    return (result.matched_frames, result.matches, result.events, result.aggregates)


# ---------------------------------------------------------------------------
# Store primitives
# ---------------------------------------------------------------------------


class TestVideoIndexStore:
    def test_lookup_record_round_trip(self):
        store = VideoIndexStore()
        assert store.lookup("v", "detections", "yolox", "D@0", "3") == ("miss", None)
        store.record("v", "detections", "yolox", "D@0", "3", [1, 2])
        assert store.lookup("v", "detections", "yolox", "D@0", "3") == ("hit", [1, 2])

    def test_version_mismatch_is_stale_and_superseded_on_write(self):
        store = VideoIndexStore()
        store.record("v", "detections", "yolox", "D@0", "3", "old")
        assert store.lookup("v", "detections", "yolox", "D@1", "3")[0] == "stale"
        # A fresh-version write replaces the whole stale bucket.
        store.record("v", "detections", "yolox", "D@1", "4", "new")
        assert store.lookup("v", "detections", "yolox", "D@1", "3") == ("miss", None)
        assert store.lookup("v", "detections", "yolox", "D@1", "4") == ("hit", "new")

    def test_canonical_json_is_write_order_independent(self):
        a, b = VideoIndexStore(), VideoIndexStore()
        a.record("v", "filter", "m1", "V", "1", True)
        a.record("v", "filter", "m2", "V", "2", False)
        b.record("v", "filter", "m2", "V", "2", False)
        b.record("v", "filter", "m1", "V", "1", True)
        assert a.to_json() == b.to_json()

    def test_save_and_reload_round_trip(self, tmp_path):
        path = str(tmp_path / "index.json")
        store = VideoIndexStore(path)
        store.record("v", "detections", "yolox", "D@0", "3", [{"x": 1.5}])
        store.save()
        reloaded = VideoIndexStore(path)
        assert reloaded.to_json() == store.to_json()

    def test_corrupt_file_warns_and_starts_empty(self, tmp_path):
        path = str(tmp_path / "index.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"schema_version": 1, "videos": [truncated')
        with pytest.warns(UserWarning, match="unreadable"):
            store = VideoIndexStore(path)
        assert store.lookup("v", "detections", "yolox", "D@0", "0") == ("miss", None)
        # The rebuilt index saves over the corpse and reloads cleanly.
        store.record("v", "detections", "yolox", "D@0", "0", [])
        store.save()
        assert VideoIndexStore(path).lookup("v", "detections", "yolox", "D@0", "0") == ("hit", [])

    def test_wrong_schema_version_is_treated_as_corrupt(self, tmp_path):
        path = str(tmp_path / "index.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 999, "videos": {}}, fh)
        with pytest.warns(UserWarning, match="schema version"):
            VideoIndexStore(path)

    def test_pickle_round_trip(self):
        import pickle

        store = VideoIndexStore()
        store.record("v", "detections", "yolox", "D@0", "3", [1, 2])
        clone = pickle.loads(pickle.dumps(store))
        assert clone.to_json() == store.to_json()
        clone.record("v", "filter", "m", "V", "3", True)  # the lock was recreated
        assert clone.lookup("v", "filter", "m", "V", "3") == ("hit", True)
        assert store.lookup("v", "filter", "m", "V", "3") == ("miss", None)

    def test_replayed_journal_reproduces_the_writes(self, tmp_path):
        path = str(tmp_path / "index.json")
        store = VideoIndexStore(path)
        store.record("v", "detections", "yolox", "D@0", "1", [1])
        store.save()
        worker = VideoIndexStore(path)
        worker.start_journal()
        worker.record("v", "detections", "yolox", "D@0", "2", [2])
        worker.record_tracks("v", "kalman|yolox", "D@0", {"1": {"class_name": "car"}})
        worker.record_stats("v", {"frames_scanned": 2})
        worker.save()  # a journaling store leaves persisting to the replayer
        assert VideoIndexStore(path).to_json() == store.to_json()
        journal = worker.take_journal()
        assert [method for method, _ in journal] == ["record", "record_tracks", "record_stats"]
        store.replay(journal)
        assert store.to_json() == worker.to_json()
        assert worker.take_journal() == []  # journaling stopped

    def test_model_version_tracks_class_and_seed(self):
        zoo0, zoo5 = default_zoo(seed=0), default_zoo(seed=5)
        assert model_version(zoo0.get("yolox")) != model_version(zoo5.get("yolox"))
        assert model_version(zoo0.get("yolox")) == model_version(default_zoo(seed=0).get("yolox"))

    def test_detection_key_is_content_addressed(self):
        det = Detection("car", BBox(1.0, 2.0, 3.0, 4.0), 0.9, frame_id=7, track_id=3)
        relabeled = det.with_track(99)
        assert detection_key(det) == detection_key(relabeled)
        moved = Detection("car", BBox(1.0, 2.0, 3.0, 4.5), 0.9, frame_id=7)
        assert detection_key(det) != detection_key(moved)


# ---------------------------------------------------------------------------
# Session-level contract
# ---------------------------------------------------------------------------


class TestRequery:
    def test_warm_requery_serves_detections_from_index(self, video):
        store = VideoIndexStore()
        cold = QuerySession(video, config=indexed_config(), index_store=store)
        cold_result = cold.execute(RedCarQuery())
        cold_calls = detector_calls(cold)
        assert cold_calls > 0
        assert cold.last_context.index.counters["written"] > 0

        warm = QuerySession(video, config=indexed_config(), index_store=store)
        warm_result = warm.execute(RedCarQuery())
        # The warm scan re-invokes the detector on (far fewer than 5% of)
        # the cold invocations — here: zero — with identical results.
        assert detector_calls(warm) <= 0.05 * cold_calls
        assert result_signature(warm_result) == result_signature(cold_result)
        counters = warm.last_context.index.counters
        assert counters["hits"] > 0 and counters["misses"] == 0

    def test_warm_requery_with_different_query_still_hits(self, video):
        store = VideoIndexStore()
        cold = QuerySession(video, config=indexed_config(), index_store=store)
        cold.execute(CarQuery())
        cold_calls = detector_calls(cold)
        # A *different* query over the same video reuses the same detector
        # results: indexing is per (video, model), not per query.
        warm = QuerySession(video, config=indexed_config(), index_store=store)
        baseline = QuerySession(video, config=PlannerConfig(profile_plans=False))
        assert result_signature(warm.execute(RedCarQuery())) == result_signature(
            baseline.execute(RedCarQuery())
        )
        assert detector_calls(warm) <= 0.05 * cold_calls

    def test_disabled_mode_is_byte_identical_and_index_free(self, video):
        plain = QuerySession(video, config=PlannerConfig(profile_plans=False))
        plain_result = plain.execute(RedCarQuery())
        assert plain.last_context.index is None
        assert plain.index_store is None
        # Enabling the index changes nothing about a cold run but the
        # persistence side effect: identical results, identical clock.
        indexed = QuerySession(video, config=indexed_config())
        indexed_result = indexed.execute(RedCarQuery())
        assert result_signature(indexed_result) == result_signature(plain_result)
        assert indexed.last_context.clock.breakdown() == plain.last_context.clock.breakdown()
        # index_config alone (switch off) creates no index objects at all.
        off = QuerySession(
            video, config=PlannerConfig(profile_plans=False, index_config=IndexConfig())
        )
        off.execute(RedCarQuery())
        assert off.last_context.index is None

    def test_stale_model_version_falls_back_to_live_invocation(self, video):
        store = VideoIndexStore()
        cold = QuerySession(video, config=indexed_config(), index_store=store)
        cold.execute(RedCarQuery())
        assert detector_calls(cold) > 0

        # A retrained zoo (new seed => new model version) must not be served
        # the old version's entries: every lookup is stale, the models run
        # live, and results match an index-free session with the same zoo.
        retrained = default_zoo(seed=5)
        stale = QuerySession(
            video, zoo=retrained, config=indexed_config(enable_tracing=True), index_store=store
        )
        stale_result = stale.execute(RedCarQuery())
        assert detector_calls(stale) == detector_calls(cold)
        counters = stale.last_context.index.counters
        assert counters["stale"] > 0 and counters["hits"] == 0
        summary = stale.last_obs.decisions.summary()
        assert "model-version-mismatch" in summary.get("index-stale", {})

        reference = QuerySession(
            video, zoo=default_zoo(seed=5), config=PlannerConfig(profile_plans=False)
        )
        assert result_signature(stale_result) == result_signature(
            reference.execute(RedCarQuery())
        )

    def test_seeded_frames_are_never_persisted(self, video):
        config = indexed_config(enable_stride_sampling=True)
        store = VideoIndexStore()
        cold = QuerySession(video, config=config, index_store=store)
        cold_result = cold.execute(RedCarQuery())
        seeded = cold.last_context.seeded_frames
        assert seeded, "scenario must exercise stride interpolation"
        payload = json.loads(store.to_json())
        buckets = payload["videos"][video_key(video)]["kinds"]["detections"]
        recorded = {
            int(frame_id)
            for bucket in buckets.values()
            for frame_id in bucket["entries"]
        }
        assert recorded, "real detections must be persisted"
        assert not (recorded & seeded), "interpolation-seeded frames leaked into the index"
        # The warm stride run is still equivalent.
        warm = QuerySession(video, config=config, index_store=store)
        assert result_signature(warm.execute(RedCarQuery())) == result_signature(cold_result)

    def test_corrupted_index_file_triggers_full_rescan(self, tmp_path, video):
        path = str(tmp_path / "index.json")
        config = indexed_config(index_config=IndexConfig(path=path))
        cold = QuerySession(video, config=config)
        cold.execute(RedCarQuery())
        cold_calls = detector_calls(cold)

        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not an index at all")
        with pytest.warns(UserWarning, match="unreadable"):
            rebuilt = QuerySession(video, config=config)
        rebuilt.execute(RedCarQuery())
        assert detector_calls(rebuilt) == cold_calls, "corrupt index must rescan in full"
        # ... and the rescan rebuilt the file: the next session is warm again.
        warm = QuerySession(video, config=config)
        warm.execute(RedCarQuery())
        assert detector_calls(warm) == 0


class TestGateVerdicts:
    def test_filter_verdicts_served_from_index(self, video):
        store = VideoIndexStore()
        config = indexed_config()
        cold = QuerySession(video, config=config, index_store=store)
        cold_result = cold.execute(GatedRedCarQuery())
        cold_evals = cold.last_context.scan_stats.gate_evaluations
        assert cold_evals > 0, "GatedRedCarQuery must register a frame filter"

        warm = QuerySession(video, config=config, index_store=store)
        warm_result = warm.execute(GatedRedCarQuery())
        assert warm.last_context.scan_stats.gate_evaluations == 0
        assert result_signature(warm_result) == result_signature(cold_result)


class TestEmbeddings:
    @pytest.fixture(scope="class")
    def scenario(self):
        return handoff_scenario(
            cameras=(
                CameraPlacement("cam_a", fps=10, start_offset_s=0.0),
                CameraPlacement("cam_b", fps=15, start_offset_s=3.0),
            ),
            num_entities=3,
            seed=0,
        )

    def test_reid_embeddings_reused_across_executions(self, scenario):
        config = PlannerConfig(
            profile_plans=False,
            enable_cross_camera_reid=True,
            enable_video_index=True,
        )
        session = MultiCameraSession(
            scenario.videos, config=config, start_offsets=scenario.start_offsets
        )
        first = session.execute(CarQuery())
        cold_reid = session.link_clock.calls.get("reid_feature", 0)
        assert cold_reid > 0, "cold linking must embed at least one track"

        second = session.execute(CarQuery())
        # The second execution re-links from indexed embeddings: zero re-id
        # model invocations, identical identity assignment.
        assert session.link_clock.calls.get("reid_feature", 0) == 0
        assert second.global_tracks() == first.global_tracks()


# ---------------------------------------------------------------------------
# Planner consumption of observed statistics
# ---------------------------------------------------------------------------


class TestObservedStats:
    def test_stride_scan_records_stable_fraction_and_planner_consumes_it(self, video):
        store = VideoIndexStore()
        config = indexed_config(enable_stride_sampling=True)
        session = QuerySession(video, config=config, index_store=store)
        session.execute(RedCarQuery())

        observed = store.observed_stable_fraction(video_key(video), min_frames=1)
        assert observed is not None and 0.0 < observed <= 1.0
        stats = session.last_context.scan_stats
        assert observed == stats.frames_interpolated / stats.frames_scanned
        # The session's planner sees the same number through its store...
        assert session.planner._observed_stable_fraction(video) == observed
        # ...and an index-free planner keeps the configured prior.
        assert Planner(session.zoo, config)._observed_stable_fraction(video) is None

    def test_observed_fraction_shifts_the_stride_discount(self, video):
        store = VideoIndexStore()
        config = indexed_config(enable_stride_sampling=True, stride_stable_fraction=0.5)
        session = QuerySession(video, config=config, index_store=store)
        session.execute(RedCarQuery())
        observed = store.observed_stable_fraction(video_key(video), min_frames=1)
        assert observed != config.stride_stable_fraction

        planner = session.planner
        plan = planner.plan(RedCarQuery(), video)
        breakdown = {name: 100.0 for name in plan.detector_models()}
        with_prior = planner._stride_detector_discount_ms(plan, breakdown, video=None)
        with_observed = planner._stride_detector_discount_ms(plan, breakdown, video)
        assert with_observed == pytest.approx(with_prior * observed / 0.5)

    def test_unindexed_scan_never_records_stable_fraction(self, video):
        # Without stride sampling there is no stability observation: the
        # prior must survive (a recorded 0.0 would zero the discount).
        store = VideoIndexStore()
        session = QuerySession(video, config=indexed_config(), index_store=store)
        session.execute(RedCarQuery())
        assert store.observed_stable_fraction(video_key(video), min_frames=1) is None
        assert "frames_scanned" in store.video_stats(video_key(video))

    def test_noisy_short_observations_are_distrusted(self, video):
        store = VideoIndexStore()
        config = indexed_config(
            enable_stride_sampling=True,
            index_config=IndexConfig(stats_min_frames=10_000),
        )
        session = QuerySession(video, config=config, index_store=store)
        session.execute(RedCarQuery())
        assert session.planner._observed_stable_fraction(video) is None


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_metrics_decisions_and_explain_section(self, video):
        store = VideoIndexStore()
        config = indexed_config(enable_tracing=True)
        cold = QuerySession(video, config=config, index_store=store)
        cold.execute(RedCarQuery())
        cold_counters = cold.last_obs.metrics.snapshot()["counters"]
        assert any(key.startswith("index_misses") for key in cold_counters)
        assert any(key.startswith("index_writes") for key in cold_counters)

        warm = QuerySession(video, config=config, index_store=store)
        result = warm.execute(RedCarQuery())
        warm_counters = warm.last_obs.metrics.snapshot()["counters"]
        assert any(key.startswith("index_hits") for key in warm_counters)
        summary = warm.last_obs.decisions.summary()
        assert "index-hit" in summary
        text = result.explain()
        assert "Index:" in text and "hits=" in text

    def test_disabled_explain_has_no_index_section(self, video):
        session = QuerySession(
            video, config=PlannerConfig(profile_plans=False, enable_tracing=True)
        )
        result = session.execute(RedCarQuery())
        assert "Index:" not in result.explain()
