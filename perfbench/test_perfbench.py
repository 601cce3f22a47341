"""Checks of the benchmark's own accounting, on short inputs.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro import QuerySession  # noqa: E402
from repro.frontend.registry import get_library_zoo  # noqa: E402
from repro.backend.scheduler import ScanScheduler  # noqa: E402
from repro.videosim.video import SyntheticVideo  # noqa: E402


@pytest.fixture(scope="module")
def zoo():
    return get_library_zoo()


def _short(workload, **sizes):
    for name, value in sizes.items():
        setattr(workload, name, value)
    return workload


def test_offline_virtual_cost_is_the_clock_total(zoo):
    workload = _short(workloads.OfflineDense(), DURATION_S=4.0)
    inputs = workload.build(3)
    result = workload.run_pass(inputs, zoo)
    session = QuerySession(inputs["video"], zoo=zoo)
    batch = session.execute_many(workload.queries())
    assert result.failed == 0
    assert math.isclose(result.virtual_ms, session.last_context.clock.elapsed_ms, rel_tol=1e-12)
    # Every result's breakdown repeats the whole batch's, so summing them
    # would count the batch once per query; the benchmark never does.
    per_result = sum(sum(r.cost_breakdown.values()) for r in batch)
    assert per_result > 1.5 * result.virtual_ms


def test_multicam_virtual_cost_counts_every_feed_and_the_link(zoo):
    workload = workloads.MulticamReid(max_workers=2)
    workload.ENTITIES = 3
    inputs = workload.build(3)
    result = workload.run_pass(inputs, zoo)
    multi = workload.sessions(inputs, zoo)["multi"]
    multi.execute_many(workload.queries())
    feeds = sum(s.last_context.clock.elapsed_ms for s in multi.sessions.values())
    assert multi.link_clock.elapsed_ms > 0
    assert math.isclose(result.virtual_ms, feeds + multi.link_clock.elapsed_ms, rel_tol=1e-12)
    assert result.det["identity_f1"] > 0


def test_live_virtual_cost_leaves_out_idle_time(zoo):
    workload = _short(workloads.LiveOverload(), DURATION_S=6.0, PACES=(1.0,), REPORT_PACE=1.0)
    inputs = workload.build(3)
    result = workload.run_pass(inputs, zoo)
    session = workload.session(inputs, zoo, 1.0)
    session.run(workload.queries())
    idle = session.clock.breakdown().get("live-idle", 0.0)
    assert idle > 0
    assert math.isclose(result.virtual_ms, session.clock.elapsed_ms - idle, rel_tol=1e-12)
    assert result.attempted == result.frames - session.stats.duplicates_delivered


def test_a_failing_batch_fails_its_queries_and_the_pass_goes_on(zoo):
    class Broken:
        video = None

        def execute_many(self, queries):
            raise RuntimeError("boom")

    result = workloads.PassResult()
    queries = [workloads.CarQuery(), workloads.PersonQuery()]
    out = workloads._run_batch(result, "broken", Broken(), queries, {}, workloads.Confusion())
    assert out is None
    assert (result.attempted, result.failed) == (2, 2)
    assert result.errors == ["broken: RuntimeError: boom"]


def test_percentile_is_nearest_rank():
    values = sorted(float(v) for v in range(1, 101))
    assert workloads.percentile(values, 0.5) == 50.0
    assert workloads.percentile(values, 0.9) == 90.0
    assert workloads.percentile([], 0.9) == 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["outer", 0.0, 10.0, None, 1],
        ["inner", 1.0, 4.0, 0, 1],
        ["inner", 3.0, 6.0, 0, 2],  # overlaps its sibling (another thread)
        ["leaf", 2.0, 3.0, 1, 1],
    ]
    times = tracing.layer_times(spans)
    assert times["outer"]["self_s"] == pytest.approx(5.0)
    assert times["inner"]["self_s"] == pytest.approx(2.0 + 3.0)
    assert times["inner"]["calls"] == 2
    assert tracing.covered_s(spans) == pytest.approx(10.0)
    assert tracing.concurrency(spans, "inner") == pytest.approx(6.0 / 5.0)


def test_instrument_records_spans_and_restores_the_engine(zoo):
    original = SyntheticVideo.__dict__["frame"]
    workload = _short(workloads.OfflineDense(), DURATION_S=2.0)
    inputs = workload.build(3)
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder):
        traced = workload.run_pass(inputs, zoo)
    assert SyntheticVideo.__dict__["frame"] is original
    times = tracing.layer_times(recorder.spans)
    assert times["videosim.frame"]["calls"] >= inputs["video"].num_frames
    assert times["models.detector"]["calls"] >= inputs["video"].num_frames
    assert traced.det == workload.run_pass(inputs, zoo).det


def test_host_speed_samples_during_the_scan_and_scales_the_rate(zoo):
    original = ScanScheduler.__dict__["step"]
    workload = _short(workloads.OfflineDense(), DURATION_S=3.0)
    inputs = workload.build(3)
    host = hostspeed.HostSpeed()
    with host.sampling():
        result = workload.run_pass(inputs, zoo)
    assert ScanScheduler.__dict__["step"] is original
    assert len(host.samples) == result.frames // host.EVERY
    busy = result.wall_s - sum(host.samples)
    ratio = statistics.median(host.samples) / host.NOMINAL_S
    assert host.scaled_rate(result.frames, result.wall_s) == pytest.approx(result.frames / busy * ratio)
    assert hostspeed.HostSpeed().scaled_rate(100, 2.0) == 50.0
