"""Spans around calls into the engine's layers, recorded from outside.

:func:`instrument` wraps the public functions that mark each layer's
boundary (``SyntheticVideo.frame``, ``Planner.plan``,
``ScanScheduler.step``, ``ExecutionContext.detect`` …) for the duration
of a ``with`` block; the engine source is untouched.  Every call records a
span — name, start, end, parent, thread — into a :class:`SpanRecorder`
kept in memory; :func:`layer_times` turns the spans into per-name call
counts and self times (a span's duration minus the part of it its
children cover), and :func:`write_chrome_trace` writes them out once the
run is over.

Each thread has its own span stack.  A span opened on a thread whose
stack is empty (a ``MultiCameraSession`` pool worker) is parented under
the innermost open *batch* span, so per-feed scans nest under the batch
that launched them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.backend import session as session_module
from repro.backend.crosscamera import ReidMatcher
from repro.backend.live import LiveSession
from repro.backend.planner import Planner
from repro.backend.runtime import ExecutionContext
from repro.backend.scheduler import ScanScheduler
from repro.backend.session import MultiCameraSession, QuerySession
from repro.backend.streaming import PlanStream
from repro.index.store import IndexView, VideoIndexStore
from repro.models.detector import BinaryClassifier, GeneralObjectDetector
from repro.models.framefilters import MotionFrameFilter, TextureFrameFilter
from repro.models.interaction import ActionClassifier
from repro.models.properties import (
    DirectionEstimator,
    FeatureVectorModel,
    PropertyModel,
    SpeedEstimator,
)
from repro.models.tracker import IoUTracker, KalmanTracker
from repro.videosim.livefeed import LiveFeed
from repro.videosim.video import SyntheticVideo

#: Span names that open a batch: pool threads parent their spans here.
BATCH_SPANS = ("session.multicam_batch",)

#: (owner, attribute, span name) of every wrapped function.  Names start
#: with the layer's metric prefix.
WRAPPED: Tuple[Tuple[Any, str, str], ...] = (
    (SyntheticVideo, "frame", "videosim.frame"),
    (LiveFeed, "poll", "videosim.poll"),
    (Planner, "plan", "planner.plan"),
    (ScanScheduler, "step", "scheduler.step"),
    (PlanStream, "process_frame", "streaming.process_frame"),
    (ExecutionContext, "detect", "runtime.detect"),
    (ExecutionContext, "track", "runtime.track"),
    (GeneralObjectDetector, "detect", "models.detector"),
    (KalmanTracker, "update", "models.tracker"),
    (IoUTracker, "update", "models.tracker"),
    (PropertyModel, "predict", "models.property"),
    (PropertyModel, "predict_batch", "models.property"),
    (FeatureVectorModel, "predict", "models.property"),
    (FeatureVectorModel, "predict_batch", "models.property"),
    (DirectionEstimator, "predict", "models.property"),
    (SpeedEstimator, "predict", "models.property"),
    (ActionClassifier, "predict", "models.property"),
    (ActionClassifier, "predict_batch", "models.property"),
    (BinaryClassifier, "predict", "models.filter"),
    (MotionFrameFilter, "keep", "models.filter"),
    (TextureFrameFilter, "keep", "models.filter"),
    (IndexView, "lookup_detections", "index.lookup"),
    (IndexView, "lookup_filter_verdict", "index.lookup"),
    (IndexView, "lookup_embedding", "index.lookup"),
    (IndexView, "record_detections", "index.record"),
    (IndexView, "record_filter_verdict", "index.record"),
    (IndexView, "record_embedding", "index.record"),
    (VideoIndexStore, "save", "index.save"),
    (session_module, "build_track_profiles", "crosscamera.link"),
    (ReidMatcher, "link", "crosscamera.link"),
    (QuerySession, "execute_many", "session.feed_scan"),
    (LiveSession, "run", "live.run"),
    (MultiCameraSession, "execute_many", "session.multicam_batch"),
)

#: Span names whose non-None results count as cache hits.
HIT_SPANS = ("index.lookup",)


class SpanRecorder:
    """In-memory span store: ``[name, start, end, parent, thread]`` rows."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.hits: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._batches: List[int] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs):
        stack = self._stack()
        if stack and self.spans[stack[-1]][0] == name:
            # Re-entry into the same layer (predict_batch -> predict): one span.
            return fn(*args, **kwargs)
        if stack:
            parent = stack[-1]
        else:
            parent = self._batches[-1] if self._batches else None
        row = [name, 0.0, 0.0, parent, threading.get_ident()]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(row)
        batch = name in BATCH_SPANS
        if batch:
            self._batches.append(sid)
        stack.append(sid)
        row[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            stack.pop()
            if batch:
                self._batches.remove(sid)
        if name in HIT_SPANS and out is not None:
            with self._lock:
                self.hits[name] = self.hits.get(name, 0) + 1
        return out


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer boundary in :data:`WRAPPED` for the block's duration."""
    originals = []
    try:
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_times(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s`` (children removed)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            p = spans[parent]
            children.setdefault(parent, []).append((max(start, p[1]), min(end, p[2])))
    out: Dict[str, Dict[str, float]] = {}
    for sid, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - _covered(children.get(sid, []))
    return out


def covered_s(spans: List[list]) -> float:
    """Wall seconds during which some span was open on some thread."""
    return _covered([(start, end) for _, start, end, _, _ in spans])


def concurrency(spans: List[list], name: str) -> float:
    """Summed durations of ``name`` spans over the wall time they cover."""
    intervals = [(s, e) for n, s, e, _, _ in spans if n == name]
    covered = _covered(intervals)
    return sum(e - s for s, e in intervals) / covered if covered > 0 else 1.0


def write_chrome_trace(spans: List[list], path: str) -> None:
    """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
    origin = min((s for _, s, _, _, _ in spans), default=0.0)
    events = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": {"id": sid, "parent": parent},
        }
        for sid, (name, start, end, parent, tid) in enumerate(spans)
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
