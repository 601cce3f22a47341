"""The benchmark's four workloads, driven through the public session API.

Each workload turns a seed into inputs (:meth:`Workload.build`), constructs
its sessions (:meth:`Workload.sessions`, the part ``setup_s`` times) and
runs one *pass* — every operation of the workload once — returning a
:class:`PassResult`.  A pass never raises: a batch that fails counts all
of its queries as failed operations and the pass carries on.

Only the engine's public entry points are called (``QuerySession``,
``MultiCameraSession``, ``LiveSession`` and the result/clock objects they
expose); ground truth comes from the simulator and is scored here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import LiveSession, MultiCameraSession, PlannerConfig, QuerySession
from repro.backend.crosscamera import reid_identity_scores
from repro.common.config import FaultConfig
from repro.frontend.builtin import Car, Person, RedCar
from repro.frontend.higher_order import DurationQuery, SequentialQuery
from repro.frontend.query import Query
from repro.experiments.eva_comparison import SpeedingCarQuery
from repro.models.zoo import ModelZoo
from repro.videosim.datasets import camera_clip
from repro.videosim.livefeed import LiveFeed
from repro.videosim.multicam import CameraPlacement, handoff_scenario
from repro.videosim.video import SyntheticVideo


# ------------------------------------------------------------------ queries --
# ``gt`` names the (class, colour) ground truth that decides a query per
# frame; queries without it (speed, duration, sequence) are not scored.
class RedCarPlates(Query):
    gt = ("car", "red")

    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.license_plate, self.car.bbox)


class RedCarQuery(Query):
    gt = ("car", "red")

    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class GatedRedCarQuery(Query):
    """``RedCar`` VObj: its ``no_red_on_road`` frame filter is hoisted."""

    gt = ("car", "red")

    def __init__(self):
        self.car = RedCar("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class CarQuery(Query):
    gt = ("car", None)

    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return self.car.score > 0.5

    def frame_output(self):
        return (self.car.track_id,)


class PersonQuery(Query):
    gt = ("person", None)

    def __init__(self):
        self.person = Person("person")

    def frame_constraint(self):
        return self.person.score > 0.5

    def frame_output(self):
        return (self.person.track_id,)


# ------------------------------------------------------------------- inputs --
#: Mean (vehicles, pedestrians) per minute of the camera presets.
PRESET_TRAFFIC = {"southampton": (20, 3), "banff": (8, 6), "jackson": (14, 8)}
VEHICLE_CLASSES = ("car", "bus", "truck")


def preset_clip(camera: str, duration_s: float, seed: int) -> SyntheticVideo:
    """A camera-preset clip that holds exactly the preset's mean traffic.

    ``camera_clip`` draws a Poisson number of arrivals.  Clips of a couple
    of minutes therefore differ from seed to seed by tens of percent in
    objects, and in host cost per frame.  Here the objects of a few
    seed-derived clips are pooled, and the mean count of each kind is drawn
    from the pool.  The seed changes the scene but not its size.
    """
    per_minute = PRESET_TRAFFIC[camera]
    targets = [round(rate * duration_s / 60.0) for rate in per_minute]
    pools: List[List[Any]] = [[], []]
    base = None
    for i in range(16):
        clip = camera_clip(camera, duration_s, seed=seed * 1009 + i)
        base = base or clip
        for obj in clip.objects:
            pools[0 if obj.class_name in VEHICLE_CLASSES else 1].append(obj)
        if all(len(pool) >= 2 * target for pool, target in zip(pools, targets)):
            break
    rng = np.random.default_rng(seed)
    chosen = []
    for pool, target in zip(pools, targets):
        picks = sorted(rng.choice(len(pool), size=min(target, len(pool)), replace=False))
        chosen += [pool[i] for i in picks]
    objects = [replace(obj, object_id=i + 1) for i, obj in enumerate(chosen)]
    return SyntheticVideo(base.spec, objects, scene_attributes=base.scene_attributes, seed=seed)


# ------------------------------------------------------------------ scoring --
def truth_frames(video: SyntheticVideo, gts) -> Dict[Tuple[str, Optional[str]], Set[int]]:
    """Per (class, colour): frames on which some visible object has both."""
    out: Dict[Tuple[str, Optional[str]], Set[int]] = {gt: set() for gt in gts}
    for frame in video.frames():
        for inst in frame.instances:
            for cls, color in out:
                if inst.class_name == cls and (color is None or inst.attributes.get("color") == color):
                    out[(cls, color)].add(frame.frame_id)
    return out


@dataclass
class Confusion:
    """Micro-averaged (query, frame) pair counts."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def add(self, predicted: Set[int], actual: Set[int]) -> None:
        self.tp += len(predicted & actual)
        self.fp += len(predicted - actual)
        self.fn += len(actual - predicted)

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 1.0


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[rank - 1])


def clock_total(breakdown: Dict[str, float], exclude: Sequence[str] = ()) -> float:
    return sum(ms for account, ms in breakdown.items() if account not in exclude)


# -------------------------------------------------------------------- passes --
@dataclass
class PassResult:
    """One pass over a workload's operations."""

    #: Host seconds spent inside engine calls (execute / run).
    wall_s: float = 0.0
    #: Source frames of the batches (or live deliveries) that completed.
    frames: int = 0
    #: SimClock model work of those batches, in virtual ms.
    virtual_ms: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Deterministic outputs: accuracy, latency, counters.  Two passes over
    #: one seed must produce equal dicts.
    det: Dict[str, Any] = field(default_factory=dict)
    #: Clock accounts summed over the pass's completed scans.
    breakdown: Dict[str, float] = field(default_factory=dict)
    #: Per-scan engine counters (ScanStats dicts) of the completed scans.
    scan_stats: List[Dict[str, Any]] = field(default_factory=list)
    #: Largest ``len(ctx.track_sources())`` left by any scan of the pass.
    retained_tracks: int = 0
    #: Property computations avoided by intrinsic reuse, summed over scans.
    reuse_hits: int = 0
    #: Failures seen, as "operation: error" strings.
    errors: List[str] = field(default_factory=list)
    #: Correctness violations found while scoring (empty = correct).
    violations: List[str] = field(default_factory=list)

    def add_breakdown(self, breakdown: Dict[str, float]) -> None:
        for account, ms in breakdown.items():
            self.breakdown[account] = self.breakdown.get(account, 0.0) + ms

    def add_scan(self, scan_stats: Optional[Dict[str, Any]], ctx: Any) -> None:
        """Keep a finished scan's counters, not its context (memory stays flat)."""
        self.scan_stats.append(scan_stats)
        self.retained_tracks = max(self.retained_tracks, len(ctx.track_sources()))
        self.reuse_hits += ctx.reuse_stats.total_hits


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float, Optional[Exception]]:
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # one failed batch must not abort the run
        return None, time.perf_counter() - start, exc
    return out, time.perf_counter() - start, None


def _run_batch(
    result: PassResult,
    label: str,
    session: QuerySession,
    queries: Sequence[Query],
    truth: Optional[Dict[Tuple[str, Optional[str]], Set[int]]],
    confusion: Confusion,
) -> Optional[list]:
    """One single-feed batch: time it, account for it, score it (``truth``
    None = not scored)."""
    out, wall, exc = _timed(lambda: session.execute_many(queries))
    result.wall_s += wall
    result.attempted += len(queries)
    if exc is not None:
        result.failed += len(queries)
        result.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None
    breakdown = session.cost_breakdown()
    total = clock_total(breakdown)
    if not math.isclose(total, session.last_context.clock.elapsed_ms, rel_tol=1e-9, abs_tol=1e-6):
        result.violations.append(f"{label}: clock accounts {total} != clock total")
    result.frames += session.video.num_frames
    result.virtual_ms += total
    result.add_breakdown(breakdown)
    result.add_scan(session.last_scan_stats, session.last_context)
    for query, res in zip(queries, out):
        gt = getattr(query, "gt", None)
        if truth is not None and gt is not None:
            confusion.add(set(res.matched_frames), truth[gt])
    return out


class Workload:
    """A named load: inputs from a seed, sessions, and one pass."""

    name = ""

    def build(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def sessions(self, inputs: Dict[str, Any], zoo: ModelZoo, config: Optional[PlannerConfig] = None) -> Dict[str, Any]:
        raise NotImplementedError

    def run_pass(self, inputs: Dict[str, Any], zoo: ModelZoo, config: Optional[PlannerConfig] = None) -> PassResult:
        raise NotImplementedError

    def config(self) -> PlannerConfig:
        """The workload's engine configuration (the traced run toggles
        ``enable_tracing`` on it to measure the cost of observing)."""
        return PlannerConfig()


# ------------------------------------------------------------ offline_dense --
class OfflineDense(Workload):
    """Southampton, five queries in one shared scan, default planner."""

    name = "offline_dense"
    DURATION_S = 120.0

    def queries(self) -> List[Query]:
        return [
            RedCarPlates(),
            SpeedingCarQuery(),
            PersonQuery(),
            DurationQuery(RedCarQuery(), duration_s=2.0),
            SequentialQuery(RedCarQuery(), PersonQuery()),
        ]

    def build(self, seed):
        video = preset_clip("southampton", self.DURATION_S, seed)
        return {"video": video, "truth": _truth_for(video, self.queries())}

    def sessions(self, inputs, zoo, config=None):
        return {"main": QuerySession(inputs["video"], zoo=zoo, config=config or self.config())}

    def run_pass(self, inputs, zoo, config=None):
        result = PassResult()
        confusion = Confusion()
        session = self.sessions(inputs, zoo, config)["main"]
        out = _run_batch(result, "offline batch", session, self.queries(), inputs["truth"], confusion)
        result.det["match_f1"] = confusion.f1
        if out is not None:
            result.det["matched_frames"] = [len(r.matched_frames) for r in out]
            result.det["events"] = [len(r.events) for r in out]
        return result


# ----------------------------------------------------------- requery_sparse --
class RequerySparse(Workload):
    """Banff with stride sampling and an in-memory index: cold, warm, probe."""

    name = "requery_sparse"
    DURATION_S = 360.0
    #: The mixed-tracker stride probe runs on a short clip so it stays a
    #: small share of the workload's frames.
    PROBE_DURATION_S = 30.0

    def config(self):
        return PlannerConfig(enable_stride_sampling=True, enable_video_index=True)

    def cold_queries(self):
        return [GatedRedCarQuery(), DurationQuery(GatedRedCarQuery(), duration_s=2.0)]

    def warm_queries(self):
        return [GatedRedCarQuery(), CarQuery()]

    def probe_queries(self):
        # One detector, two trackers (kalman for Car, norfair for the EVA car).
        return [CarQuery(), SpeedingCarQuery()]

    def build(self, seed):
        video = preset_clip("banff", self.DURATION_S, seed)
        probe = camera_clip("banff", self.PROBE_DURATION_S, seed=seed + 7919)
        queries = self.cold_queries() + self.warm_queries()
        return {"video": video, "probe": probe, "truth": _truth_for(video, queries)}

    def sessions(self, inputs, zoo, config=None):
        config = config or self.config()
        cold = QuerySession(inputs["video"], zoo=zoo, config=config)
        warm = QuerySession(inputs["video"], zoo=zoo, config=config, index_store=cold.index_store)
        probe = QuerySession(inputs["probe"], zoo=zoo, config=config)
        return {"cold": cold, "warm": warm, "probe": probe}

    def run_pass(self, inputs, zoo, config=None):
        result = PassResult()
        confusion = Confusion()
        sessions = self.sessions(inputs, zoo, config)
        _run_batch(result, "cold batch", sessions["cold"], self.cold_queries(), inputs["truth"], confusion)
        warm = sessions["warm"]
        _run_batch(result, "warm batch", warm, self.warm_queries(), inputs["truth"], confusion)
        result.det["match_f1"] = confusion.f1
        # The probe counts as operations only: whether it completes must
        # not move the rates, accuracy or virtual cost of the workload.
        probe = PassResult()
        _run_batch(probe, "mixed-tracker probe", sessions["probe"], self.probe_queries(), None, Confusion())
        result.attempted += probe.attempted
        result.failed += probe.failed
        result.errors += probe.errors
        result.violations += probe.violations
        result.det["index_counters"] = (
            dict(warm.last_context.index.counters) if warm.last_context is not None else None
        )
        return result


# ------------------------------------------------------------ multicam_reid --
class MulticamReid(Workload):
    """Four feeds on the session thread pool, cross-camera re-id on."""

    name = "multicam_reid"
    CAMERAS = (
        CameraPlacement("cam_a", fps=10, start_offset_s=0.0),
        CameraPlacement("cam_b", fps=15, start_offset_s=3.0),
        CameraPlacement("cam_c", fps=20, start_offset_s=6.0),
        CameraPlacement("cam_d", fps=15, start_offset_s=9.0),
    )
    ENTITIES = 72

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def config(self):
        return PlannerConfig(enable_cross_camera_reid=True)

    def queries(self):
        return [CarQuery(), RedCarQuery()]

    def build(self, seed):
        scenario = handoff_scenario(
            cameras=self.CAMERAS,
            num_entities=self.ENTITIES,
            dwell_s=6.0,
            travel_gap_s=4.0,
            stagger_s=1.5,
            background_vehicles_per_minute=4.0,
            seed=seed,
        )
        truth = {name: _truth_for(video, self.queries()) for name, video in scenario.videos.items()}
        return {"scenario": scenario, "truth": truth}

    def sessions(self, inputs, zoo, config=None):
        scenario = inputs["scenario"]
        return {
            "multi": MultiCameraSession(
                scenario.videos,
                zoo=zoo,
                config=config or self.config(),
                max_workers=self.max_workers,
                start_offsets=scenario.start_offsets,
            )
        }

    def run_pass(self, inputs, zoo, config=None):
        result = PassResult()
        confusion = Confusion()
        multi = self.sessions(inputs, zoo, config)["multi"]
        queries = self.queries()
        feeds = multi.cameras
        out, wall, exc = _timed(lambda: multi.execute_many(queries))
        result.wall_s += wall
        result.attempted += len(queries) * len(feeds)
        if exc is not None:
            result.failed += len(queries) * len(feeds)
            result.errors.append(f"multicam batch: {type(exc).__name__}: {exc}")
            result.det["match_f1"] = confusion.f1
            result.det["identity_f1"] = 0.0
            return result
        total = 0.0
        for name, breakdown in multi.cost_breakdown().items():
            result.add_breakdown(breakdown)
            total += clock_total(breakdown)
        clocks = sum(s.last_context.clock.elapsed_ms for n, s in multi.sessions.items() if n not in multi.last_feed_failures)
        if not math.isclose(total, clocks + multi.link_clock.elapsed_ms, rel_tol=1e-9, abs_tol=1e-6):
            result.violations.append(f"multicam: clock accounts {total} != feed + link clocks")
        result.virtual_ms += total
        for name in feeds:
            if name in multi.last_feed_failures:
                result.failed += len(queries)
                result.errors.append(f"feed {name}: {multi.last_feed_failures[name].error}")
                continue
            session = multi.sessions[name]
            result.frames += session.video.num_frames
            result.add_scan(session.last_scan_stats, session.last_context)
            for query, merged in zip(queries, out):
                confusion.add(set(merged.per_camera[name].matched_frames), inputs["truth"][name][query.gt])
        scores = reid_identity_scores(multi.last_links)
        result.det["match_f1"] = confusion.f1
        result.det["identity_f1"] = scores.f1
        result.det["identities"] = multi.last_links.num_identities
        result.det["reid_calls"] = multi.link_clock.calls.get("reid_feature", 0)
        result.det["link_virtual_ms"] = multi.link_clock.elapsed_ms
        return result


# ------------------------------------------------------------ live_overload --
class LiveOverload(Workload):
    """Jackson replayed live at each rung of a pace ladder, with chaos."""

    name = "live_overload"
    DURATION_S = 120.0
    PACES = (1.0, 1.5, 2.0, 3.0)
    #: The rung whose alert latency and accuracy are reported.
    REPORT_PACE = 1.5
    #: A rung is sustainable when nothing is shed and alert p90 stays
    #: within this many virtual ms.
    P90_LIMIT_MS = 1000.0
    #: Frames an open run waits without a match before its event closes
    #: (the streams' default ``max_gap``) — a fixed wait, not engine lag.
    CLOSE_GAP_FRAMES = 5 + 1
    OUTAGE_MS = 500.0

    def config(self):
        return PlannerConfig(
            enable_live=True,
            enable_stride_sampling=True,
            enable_fault_tolerance=True,
            fault_config=FaultConfig(transient_rate=0.02),
        )

    def queries(self):
        return [RedCarQuery(), PersonQuery(), CarQuery()]

    def build(self, seed):
        video = preset_clip("jackson", self.DURATION_S, seed)
        return {"video": video, "seed": seed, "truth": _truth_for(video, self.queries())}

    def feed(self, inputs, pace: float) -> LiveFeed:
        video = inputs["video"]
        interval_ms = 1000.0 / (video.fps * pace)
        # A 0.5 s outage 40 % into the feed: its frames are lost and
        # labelled, the feed never stalls out, and the runs it holds open
        # close well inside the p90 limit, so the limit measures the
        # engine's lag rather than the outage's length.
        outage_start = 0.4 * video.num_frames * interval_ms
        return LiveFeed(
            video,
            fps=video.fps * pace,
            seed=inputs["seed"],
            jitter_ms=5.0,
            reorder_rate=0.02,
            duplicate_rate=0.01,
            disconnects=[(outage_start, outage_start + self.OUTAGE_MS)],
        )

    def session(self, inputs, zoo, pace: float, config=None) -> LiveSession:
        config = config or self.config()
        config = replace(config, fault_config=replace(config.fault_config, seed=inputs["seed"]))
        return LiveSession(self.feed(inputs, pace), zoo=zoo, config=config)

    def sessions(self, inputs, zoo, config=None):
        return {pace: self.session(inputs, zoo, pace, config) for pace in self.PACES}

    def run_pass(self, inputs, zoo, config=None):
        result = PassResult()
        video = inputs["video"]
        sustainable = 0.0
        live_counts: Dict[str, int] = {}
        for pace in self.PACES:
            # One rung's session at a time: finished rungs' state is dropped
            # rather than kept alive through the rest of the pass.
            session = self.session(inputs, zoo, pace, config)
            stats, wall, exc = _timed(lambda: session.run(self.queries()))
            result.wall_s += wall
            if exc is not None:
                # The feed's frames never got an answer: all of them failed.
                result.attempted += video.num_frames
                result.failed += video.num_frames
                result.errors.append(f"live run at {pace}x: {type(exc).__name__}: {exc}")
                continue
            unique = stats.frames_delivered - stats.duplicates_delivered
            result.attempted += unique
            result.failed += unique - stats.frames_processed
            if stats.accounted() != stats.frames_delivered:
                result.violations.append(f"live {pace}x: accounting {stats.accounted()} != {stats.frames_delivered}")
            breakdown = session.clock.breakdown()
            total = clock_total(breakdown, exclude=("live-idle",))
            if not math.isclose(total, session.clock.elapsed_ms - breakdown.get("live-idle", 0.0), rel_tol=1e-9, abs_tol=1e-6):
                result.violations.append(f"live {pace}x: clock accounts {total} != clock total")
            result.frames += stats.frames_delivered
            result.virtual_ms += total
            result.add_breakdown({k: v for k, v in breakdown.items() if k != "live-idle"})
            result.add_scan(session.last_scan_stats, session.last_context)
            for key, value in stats.as_dict().items():
                if key.startswith("peak_"):
                    live_counts[key] = max(live_counts.get(key, 0), value)
                else:
                    live_counts[key] = live_counts.get(key, 0) + value
            alerts = session.alerts()
            latencies = self._latencies(alerts, session.feed.interval_ms, video.num_frames)
            p90 = percentile(latencies, 0.90)
            if stats.frames_shed == 0 and latencies and p90 <= self.P90_LIMIT_MS:
                sustainable = max(sustainable, pace)
            if pace == self.REPORT_PACE:
                confusion = Confusion()
                by_query: Dict[str, Set[int]] = {}
                for alert in alerts:
                    frames = by_query.setdefault(alert.query_name, set())
                    frames.update(range(alert.event.start_frame, alert.event.end_frame + 1))
                for query in self.queries():
                    confusion.add(by_query.get(query.query_name, set()), inputs["truth"][query.gt])
                result.det["match_f1"] = confusion.f1
                result.det["alert_latency_p50_ms"] = percentile(latencies, 0.50)
                result.det["alert_latency_p90_ms"] = p90
                result.det["alert_latency_samples"] = len(latencies)
        result.det["sustainable_pace_x"] = sustainable
        result.det["live"] = live_counts
        return result

    def _latencies(self, alerts, interval_ms: float, num_frames: int) -> List[float]:
        """Emission time minus capture of the frame that closed the event.

        Events flushed at shutdown never closed by the gap rule and are
        left out.
        """
        out = []
        for alert in alerts:
            closing = alert.event.end_frame + self.CLOSE_GAP_FRAMES
            if closing < num_frames:
                out.append(alert.emitted_at_ms - closing * interval_ms)
        return sorted(out)


def _truth_for(video: SyntheticVideo, queries: Sequence[Query]) -> Dict[Tuple[str, Optional[str]], Set[int]]:
    return truth_frames(video, {getattr(q, "gt", None) for q in queries} - {None})


def all_workloads(max_workers: Optional[int] = None) -> Dict[str, Workload]:
    return {
        w.name: w
        for w in (OfflineDense(), RequerySparse(), MulticamReid(max_workers), LiveOverload())
    }

