"""The persistent video index store and its per-execution views.

One :class:`VideoIndexStore` holds every indexed video, keyed by
:func:`~repro.index.schema.video_key`; under each video, per-frame model
results live in ``(model, version)`` buckets, so a retrained model (new
version) invalidates exactly its own entries and nothing else.  The store
is shared by every feed of a multi-camera session.  Feeds that scan in
worker processes write to their own copy of the store with a *journal*
on (:meth:`VideoIndexStore.start_journal`); the parent replays the
journals in feed order, so the tables end up exactly as a serial run
leaves them.  All mutation happens under one re-entrant lock, and the
canonical JSON serialization is deterministic regardless of write order
(``sort_keys=True``).

Sessions never touch the store directly during a scan; they go through an
:class:`IndexView` bound to one ``(video, zoo, obs)`` triple, which owns
the model-version resolution, the hit/miss/stale/written counters that
``explain()`` reports, and the observability hooks.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.index import schema
from repro.models.base import Detection

#: Lookup outcomes (the store's vocabulary; the view translates to obs).
_HIT = "hit"
_MISS = "miss"
_STALE = "stale"


class VideoIndexStore:
    """JSON-backed persistent store of per-frame model results.

    ``path=None`` keeps the index in memory only: it persists across
    executions within one process (every session handed the store shares
    it) but is not written to disk.  A readable-but-corrupt file — truncated
    write, foreign JSON, schema drift — is *not* an error: the store warns
    and starts empty, so the affected videos are simply rescanned in full
    and the index rebuilt.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._lock = threading.RLock()
        self._payload: Dict[str, Any] = schema.empty_payload()
        #: Writes since :meth:`start_journal` as ``(method, args)`` pairs;
        #: None when not journaling.
        self._journal: Optional[List[Tuple[str, tuple]]] = None
        if path is not None and os.path.exists(path):
            self._load(path)

    def __getstate__(self) -> Dict[str, Any]:
        """Everything but the lock; pickle a store no scan is writing to."""
        with self._lock:
            state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ---------------------------------------------------------------- journal --
    def start_journal(self) -> None:
        """Log every later write so another copy of the store can replay it.

        A journaling store never saves: its writes belong to whoever
        replays the journal (:meth:`replay`), and that store persists them.
        """
        with self._lock:
            self._journal = []

    def take_journal(self) -> List[Tuple[str, tuple]]:
        """The writes since :meth:`start_journal`; journaling stops."""
        with self._lock:
            journal, self._journal = self._journal or [], None
        return journal

    def replay(self, journal: List[Tuple[str, tuple]]) -> None:
        """Apply another store's journaled writes, in their order."""
        writers = {
            "record": self.record,
            "record_tracks": self.record_tracks,
            "record_stats": self.record_stats,
        }
        for method, args in journal:
            writers[method](*args)

    # ------------------------------------------------------------ persistence --
    def _load(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            defect = schema.validate_payload(payload)
        except (OSError, ValueError) as exc:
            defect = str(exc)
            payload = None
        if defect is not None:
            warnings.warn(
                f"video index at {path!r} is unreadable ({defect}); "
                "starting from an empty index — affected videos will be "
                "rescanned in full and the index rebuilt",
                stacklevel=3,
            )
            return
        self._payload = payload

    def save(self) -> None:
        """Atomically write the canonical serialization (no-op in memory
        or while journaling)."""
        if self.path is None or self._journal is not None:
            return
        data = self.to_json()
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, self.path)

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, so equal contents serialize equally."""
        with self._lock:
            return json.dumps(self._payload, sort_keys=True)

    # ------------------------------------------------------------------ views --
    def view(self, video: Any, zoo: Any, obs: Optional[Any] = None) -> "IndexView":
        """A per-execution view bound to one video's entries."""
        return IndexView(self, video, zoo, obs=obs)

    # ------------------------------------------------------------- raw access --
    def _video(self, video_key: str) -> Dict[str, Any]:
        """The video's bucket, created on demand.  Caller holds the lock."""
        return self._payload["videos"].setdefault(
            video_key, {"kinds": {}, "tracks": {}, "stats": {}}
        )

    def lookup(
        self, video_key: str, kind: str, model_name: str, version: str, entry_key: str
    ) -> Tuple[str, Any]:
        """``(status, value)`` for one entry; status is hit / miss / stale.

        Stale means the bucket exists but was recorded under a different
        model version: the caller must invoke the model live (its fresh
        result then supersedes the whole stale bucket on the next write).
        """
        with self._lock:
            bucket = (
                self._payload["videos"]
                .get(video_key, {})
                .get("kinds", {})
                .get(kind, {})
                .get(model_name)
            )
            if bucket is None:
                return _MISS, None
            if bucket.get("version") != version:
                return _STALE, None
            entries = bucket.get("entries", {})
            if entry_key not in entries:
                return _MISS, None
            return _HIT, entries[entry_key]

    def record(
        self, video_key: str, kind: str, model_name: str, version: str, entry_key: str, value: Any
    ) -> None:
        """Store one entry, replacing any stale (other-version) bucket."""
        with self._lock:
            if self._journal is not None:
                self._journal.append(
                    ("record", (video_key, kind, model_name, version, entry_key, value))
                )
            kinds = self._video(video_key)["kinds"].setdefault(kind, {})
            bucket = kinds.get(model_name)
            if bucket is None or bucket.get("version") != version:
                bucket = {"version": version, "entries": {}}
                kinds[model_name] = bucket
            bucket["entries"][entry_key] = value

    def record_tracks(
        self, video_key: str, pair_key: str, version: str, tracks: Dict[str, Any]
    ) -> None:
        """Merge one (tracker, detector) pair's track summaries."""
        with self._lock:
            if self._journal is not None:
                self._journal.append(("record_tracks", (video_key, pair_key, version, tracks)))
            table = self._video(video_key)["tracks"]
            bucket = table.get(pair_key)
            if bucket is None or bucket.get("version") != version:
                bucket = {"version": version, "tracks": {}}
                table[pair_key] = bucket
            bucket["tracks"].update(tracks)

    def record_stats(self, video_key: str, stats: Dict[str, Any]) -> None:
        """Merge observed per-video scan statistics."""
        with self._lock:
            if self._journal is not None:
                self._journal.append(("record_stats", (video_key, stats)))
            self._video(video_key)["stats"].update(stats)

    def video_stats(self, video_key: str) -> Dict[str, Any]:
        with self._lock:
            return dict(self._payload["videos"].get(video_key, {}).get("stats", {}))

    def tracks(self, video_key: str) -> Dict[str, Any]:
        with self._lock:
            table = self._payload["videos"].get(video_key, {}).get("tracks", {})
            return {pair: dict(bucket.get("tracks", {})) for pair, bucket in table.items()}

    def observed_stable_fraction(
        self, video_key: str, min_frames: int = 1
    ) -> Optional[float]:
        """The video's observed tracker-predictable fraction, if trustworthy.

        None until a stride-sampling scan observed at least ``min_frames``
        frames of the video — a short canary must not override the
        configured prior with a noisy measurement.
        """
        stats = self.video_stats(video_key)
        fraction = stats.get("stable_fraction")
        if fraction is None:
            return None
        if int(stats.get("frames_scanned", 0)) < min_frames:
            return None
        return float(fraction)

    def filter_selectivities(self, video_key: str) -> Dict[str, float]:
        """Per-filter keep rates computed from the stored verdicts."""
        with self._lock:
            kinds = self._payload["videos"].get(video_key, {}).get("kinds", {})
            out: Dict[str, float] = {}
            for model_name, bucket in kinds.get(schema.KIND_FILTER, {}).items():
                entries = bucket.get("entries", {})
                if entries:
                    kept = sum(1 for verdict in entries.values() if verdict)
                    out[model_name] = kept / len(entries)
            return out


class IndexView:
    """One execution's window onto the store, bound to a (video, zoo) pair.

    The view resolves model versions against the zoo it was created with,
    translates store lookups into the engine's vocabulary (decisions,
    metrics, explain counters), and owns the post-scan finalization that
    records track summaries and per-video statistics.
    """

    def __init__(self, store: VideoIndexStore, video: Any, zoo: Any, obs: Optional[Any] = None) -> None:
        self.store = store
        self.video_key = schema.video_key(video)
        self.zoo = zoo
        self.obs = obs
        #: Counters surfaced by ``explain()``'s Index section.
        self.counters: Dict[str, int] = {"hits": 0, "misses": 0, "stale": 0, "written": 0}
        self._versions: Dict[str, str] = {}
        #: (kind, model) pairs whose staleness was already logged — one
        #: decision record per stale bucket, not one per frame.
        self._stale_noted: set = set()

    # -------------------------------------------------------------- internals --
    def _version(self, model_name: str) -> str:
        version = self._versions.get(model_name)
        if version is None:
            version = schema.model_version(self.zoo.get(model_name))
            self._versions[model_name] = version
        return version

    def _lookup(self, kind: str, model_name: str, entry_key: str, frame_id: Optional[int]) -> Tuple[str, Any]:
        status, value = self.store.lookup(
            self.video_key, kind, model_name, self._version(model_name), entry_key
        )
        obs = self.obs
        if status == _HIT:
            self.counters["hits"] += 1
            if obs is not None:
                obs.decisions.record("index-hit", kind, model=model_name, frame_id=frame_id)
                obs.metrics.inc("index_hits", model=model_name, kind=kind)
        elif status == _STALE:
            self.counters["stale"] += 1
            if obs is not None:
                obs.metrics.inc("index_stale", model=model_name, kind=kind)
                if (kind, model_name) not in self._stale_noted:
                    self._stale_noted.add((kind, model_name))
                    obs.decisions.record(
                        "index-stale",
                        "model-version-mismatch",
                        model=model_name,
                        frame_id=frame_id,
                        expected=self._version(model_name),
                    )
        else:
            self.counters["misses"] += 1
            if obs is not None:
                obs.decisions.record("index-miss", kind, model=model_name, frame_id=frame_id)
                obs.metrics.inc("index_misses", model=model_name, kind=kind)
        return status, value

    def _record(self, kind: str, model_name: str, entry_key: str, value: Any, frame_id: Optional[int]) -> None:
        self.store.record(
            self.video_key, kind, model_name, self._version(model_name), entry_key, value
        )
        self.counters["written"] += 1
        if self.obs is not None:
            self.obs.decisions.record("index-written", kind, model=model_name, frame_id=frame_id)
            self.obs.metrics.inc("index_writes", model=model_name, kind=kind)

    # ------------------------------------------------------------- detections --
    def lookup_detections(self, model_name: str, frame_id: int) -> Optional[List[Detection]]:
        status, value = self._lookup(schema.KIND_DETECTIONS, model_name, str(frame_id), frame_id)
        if status != _HIT:
            return None
        return schema.detections_from_value(value)

    def record_detections(self, model_name: str, frame_id: int, detections: List[Detection]) -> None:
        self._record(
            schema.KIND_DETECTIONS,
            model_name,
            str(frame_id),
            schema.detections_to_value(detections),
            frame_id,
        )

    # -------------------------------------------------------- filter verdicts --
    def lookup_filter_verdict(self, model_name: str, frame_id: int) -> Optional[bool]:
        status, value = self._lookup(schema.KIND_FILTER, model_name, str(frame_id), frame_id)
        if status != _HIT:
            return None
        return bool(value)

    def record_filter_verdict(self, model_name: str, frame_id: int, verdict: bool) -> None:
        self._record(schema.KIND_FILTER, model_name, str(frame_id), bool(verdict), frame_id)

    # -------------------------------------------------------------- embeddings --
    def lookup_embedding(self, model_name: str, detection: Detection) -> Optional[np.ndarray]:
        status, value = self._lookup(
            schema.KIND_EMBEDDING, model_name, schema.detection_key(detection), detection.frame_id
        )
        if status != _HIT:
            return None
        return schema.embedding_from_value(value)

    def record_embedding(self, model_name: str, detection: Detection, embedding: Any) -> None:
        self._record(
            schema.KIND_EMBEDDING,
            model_name,
            schema.detection_key(detection),
            schema.embedding_to_value(embedding),
            detection.frame_id,
        )

    # ------------------------------------------------------------ finalization --
    def finalize(self, ctx: Any, observe_stability: bool = False) -> None:
        """Record the finished scan's track summaries and video statistics.

        ``observe_stability`` must be True only when stride sampling drove
        the scan: without sampling no frame is ever tracker-predicted, and
        recording the resulting 0.0 would poison the planner's stable-
        fraction prior for every later query over this video.
        """
        sources = ctx.track_sources()
        by_pair: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for track_id in sorted(sources):
            pair = ctx.track_pair(track_id)
            if pair is None:
                continue
            detection = sources[track_id]
            first = ctx.track_first_seen(track_id)
            by_pair.setdefault(pair, {})[str(track_id)] = {
                "class_name": detection.class_name,
                "first_frame": detection.frame_id if first is None else first,
                "last_frame": detection.frame_id,
            }
        for pair, tracks in by_pair.items():
            self.store.record_tracks(
                self.video_key, f"{pair[0]}|{pair[1]}", self._version(pair[1]), tracks
            )
            self.counters["written"] += len(tracks)

        stats = ctx.scan_stats
        payload: Dict[str, Any] = {}
        if stats is not None:
            scanned = int(getattr(stats, "frames_scanned", 0) or 0)
            payload["frames_scanned"] = scanned
            if observe_stability and scanned > 0:
                interpolated = int(getattr(stats, "frames_interpolated", 0) or 0)
                payload["stable_fraction"] = interpolated / scanned
        selectivities = self.store.filter_selectivities(self.video_key)
        if selectivities:
            payload["filter_selectivity"] = selectivities
        if payload:
            self.store.record_stats(self.video_key, payload)
            if self.obs is not None:
                self.obs.decisions.record(
                    "index-written", "video-stats", video=self.video_key
                )

    def summary(self) -> Dict[str, Any]:
        """The counters ``explain()`` renders in its Index section."""
        return {"video": self.video_key, **self.counters}
