"""Unit tests for the labeled metrics registry and the ScanStats view."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backend.scheduler import ScanStats
from repro.obs.metrics import MetricsRegistry, format_key


def test_counters_with_labels():
    reg = MetricsRegistry()
    reg.inc("detector_invocations", model="yolox")
    reg.inc("detector_invocations", model="yolox")
    reg.inc("detector_invocations", model="reid_feature", value=3)
    assert reg.counter("detector_invocations", model="yolox") == 2
    assert reg.counter("detector_invocations", model="reid_feature") == 3
    assert reg.counter("detector_invocations", model="nope") == 0


def test_gauges():
    reg = MetricsRegistry()
    assert reg.gauge("stride") is None
    assert reg.gauge("stride", default=1) == 1
    reg.set_gauge("stride", 4)
    assert reg.gauge("stride") == 4


def test_histograms():
    reg = MetricsRegistry()
    for v in (1.0, 3.0, 2.0):
        reg.observe("gate_eval_ms", v, model="no_red_on_road")
    h = reg.histogram("gate_eval_ms", model="no_red_on_road")
    assert h.count == 3
    assert h.total == 6.0
    assert h.min == 1.0 and h.max == 3.0
    assert h.mean == 2.0


def test_snapshot_is_sorted_and_formatted():
    reg = MetricsRegistry()
    reg.inc("b_counter", tag="z")
    reg.inc("a_counter")
    reg.set_gauge("g", 1)
    reg.observe("h", 2.0)
    snap = reg.snapshot()
    assert list(snap) == ["counters", "gauges", "histograms"]
    assert list(snap["counters"]) == ["a_counter", "b_counter{tag=z}"]
    assert snap["histograms"]["h"]["count"] == 1


def test_format_key_orders_labels():
    assert format_key(("m", (("a", "1"), ("b", "2")))) == "m{a=1,b=2}"
    assert format_key(("m", ())) == "m"


def test_counter_aggregation_is_thread_order_independent():
    reg = MetricsRegistry()
    def bump(_):
        for _ in range(100):
            reg.inc("hits", worker="any")
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(bump, range(8)))
    assert reg.counter("hits", worker="any") == 800


# -- ScanStats as a registry view -------------------------------------------------


def test_scan_stats_fields_live_in_the_registry():
    stats = ScanStats()
    stats.frames_scanned += 5
    stats.peak_stride = 4
    assert stats.frames_scanned == 5
    assert stats.registry.gauge("frames_scanned") == 5
    assert stats.registry.gauge("peak_stride") == 4


def test_scan_stats_as_dict_compatibility_view():
    stats = ScanStats(frames_scanned=3, leaf_frames_gated=2)
    d = stats.as_dict()
    assert d["frames_scanned"] == 3
    assert d["leaf_frames_gated"] == 2
    assert d["early_exit_frame"] is None
    assert ScanStats.from_dict(d) == stats
    assert ScanStats(**d) == stats


def test_scan_stats_shared_registry():
    reg = MetricsRegistry()
    stats = ScanStats(registry=reg)
    stats.frames_deferred += 2
    assert reg.gauge("frames_deferred") == 2


# -- pickling and merging -----------------------------------------------------------


def test_registry_pickle_round_trip():
    import pickle

    reg = MetricsRegistry()
    reg.inc("detector_invocations", model="yolox", value=2)
    reg.set_gauge("stride", 4)
    reg.observe("gate_eval_ms", 1.5, model="m")
    clone = pickle.loads(pickle.dumps(reg))
    assert clone.snapshot() == reg.snapshot()
    clone.inc("detector_invocations", model="yolox")  # the lock was recreated
    assert clone.counter("detector_invocations", model="yolox") == 3
    assert reg.counter("detector_invocations", model="yolox") == 2


def test_registry_merge_sums_counters_and_combines_histograms():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.inc("calls", model="x", value=2)
    b.inc("calls", model="x", value=3)
    b.inc("calls", model="y")
    a.set_gauge("stride", 2)
    b.set_gauge("stride", 8)
    a.observe("ms", 1.0)
    b.observe("ms", 5.0)
    b.observe("ms", 0.5)
    a.merge(b)
    assert a.counter("calls", model="x") == 5
    assert a.counter("calls", model="y") == 1
    assert a.gauge("stride") == 8
    h = a.histogram("ms")
    assert (h.count, h.total, h.min, h.max) == (3, 6.5, 0.5, 5.0)
