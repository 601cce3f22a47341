"""The engine's benchmark: one workload, end to end or layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline_dense --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time in fresh interpreters, then repeated passes over the workload for
``--seconds`` (at least two, so every deterministic output is checked to
repeat exactly).  Pass rates are scaled to a nominal host speed sampled
during each pass (``hostspeed.py``).  ``--trace 1`` measures the per-layer metrics: untraced
and traced passes alternate, the traced ones with spans around every layer
boundary (see ``tracing.py``), and the spans of the last traced pass are
written to ``.perfbench/trace-<workload>.json``.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when the run completed, whether or not it
was correct; it is 2 when the engine's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 3
#: Passes per run are capped so a fast machine does not run forever.
MAX_PASSES = 50

#: Floors the outputs must reach to count as correct.  The simulator's
#: ground truth decides them; a seed-independent regression fails them.
MATCH_F1_FLOOR = 0.8
IDENTITY_F1_FLOOR = 0.9

MODEL_KINDS = {
    "detector": "detector",
    "tracker": "tracker",
    "property": "property",
    "frame_filter": "filter",
    "binary_classifier": "filter",
}


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: engine source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def worker_count() -> int:
    """Thread-pool width for multi-feed workloads: min(4, usable CPUs)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


# ------------------------------------------------------------------ set-up --
def measure_setup(workload: str, seed: int) -> float:
    """Median set-up seconds over :data:`SETUP_PROBES` fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(worker_count())],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ checks --
def fingerprint(result) -> Dict[str, Any]:
    """Everything about a pass that must repeat exactly for one seed."""
    return {
        "det": result.det,
        "virtual_ms": result.virtual_ms,
        "frames": result.frames,
        "attempted": result.attempted,
        "failed": result.failed,
        "breakdown": result.breakdown,
        "scan_stats": result.scan_stats,
        "retained_tracks": result.retained_tracks,
        "reuse_hits": result.reuse_hits,
        "errors": result.errors,
    }


def check_passes(passes: List[Any]) -> List[str]:
    """Correctness problems across the passes of one run (empty = correct)."""
    problems: List[str] = []
    for i, result in enumerate(passes):
        problems += [f"pass {i}: {v}" for v in result.violations]
    first = fingerprint(passes[0])
    for i, result in enumerate(passes[1:], start=1):
        other = fingerprint(result)
        for key in first:
            if other[key] != first[key]:
                problems.append(f"pass {i} differs from pass 0 in {key}")
    det = passes[0].det
    if det.get("match_f1", 0.0) < MATCH_F1_FLOOR:
        problems.append(f"match_f1 {det.get('match_f1')} below {MATCH_F1_FLOOR}")
    if "identity_f1" in det and det["identity_f1"] < IDENTITY_F1_FLOOR:
        problems.append(f"identity_f1 {det['identity_f1']} below {IDENTITY_F1_FLOOR}")
    if passes[0].frames <= 0:
        problems.append("no frames completed")
    return problems


# ---------------------------------------------------------------- end to end --
def end_to_end(workload, inputs, zoo, seed: int, seconds: float) -> Tuple[Dict[str, float], List[Any]]:
    setup_s = measure_setup(workload.name, seed)
    from hostspeed import HostSpeed

    passes, rates = [], []
    start = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - start < seconds and len(passes) < MAX_PASSES):
        host = HostSpeed()
        with host.sampling():
            result = workload.run_pass(inputs, zoo)
        passes.append(result)
        rates.append(host.scaled_rate(result.frames, result.wall_s))
    first = passes[0]
    metrics = {
        "setup_s": setup_s,
        "frames_per_s": statistics.median(rates),
        "virtual_ms_per_frame": first.virtual_ms / first.frames if first.frames else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "match_f1": first.det.get("match_f1", 0.0),
    }
    return metrics, passes


# ----------------------------------------------------------------- per layer --
def _virtual_by_kind(breakdown: Dict[str, float], zoo) -> Dict[str, float]:
    out = {kind: 0.0 for kind in set(MODEL_KINDS.values())}
    for account, ms in breakdown.items():
        if account in zoo.names():
            kind = MODEL_KINDS.get(zoo.metadata(account).get("kind"))
            if kind is not None:
                out[kind] += ms
    return out


def _scan_totals(scan_stats: List[Optional[Dict[str, Any]]]) -> Dict[str, float]:
    stats = [s for s in scan_stats if s]
    total = lambda key: sum(s[key] for s in stats)
    deferred = total("frames_deferred") + total("partial_deferrals")
    probes = total("gate_evaluations") + total("gate_cache_hits")
    return {
        "scheduler.leaf_frames_gated": total("leaf_frames_gated"),
        "scheduler.gate_cache_hit_ratio": total("gate_cache_hits") / probes if probes else 0.0,
        "scheduler.frames_interpolated": total("frames_interpolated"),
        "scheduler.frames_rescanned": total("frames_rescanned"),
        "scheduler.stride_useful_ratio": total("frames_interpolated") / deferred if deferred else 0.0,
        "scheduler.peak_stride": max((s["peak_stride"] for s in stats), default=1),
        "faults.model_retries": total("model_retries"),
    }


def per_layer(workload, inputs, zoo, out_dir: Path) -> Tuple[Dict[str, float], List[Any]]:
    import tracing

    untraced, traced, recorders = [], [], []
    for _ in range(2):
        untraced.append(workload.run_pass(inputs, zoo))
        recorder = tracing.SpanRecorder()
        with tracing.instrument(recorder):
            traced.append(workload.run_pass(inputs, zoo))
        recorders.append(recorder)

    obs_frac = 0.0
    if workload.name == "offline_dense":
        observed = replace(workload.config(), enable_tracing=True)
        plain_wall = sum(workload.run_pass(inputs, zoo).wall_s for _ in range(2))
        observed_wall = sum(workload.run_pass(inputs, zoo, observed).wall_s for _ in range(2))
        obs_frac = observed_wall / plain_wall - 1.0

    base = untraced[0]
    frames = base.frames
    per_frame_us = lambda seconds: seconds * 1e6 / frames if frames else 0.0
    layers = [tracing.layer_times(r.spans) for r in recorders]
    # Counts must repeat across the traced passes; times are their mean.
    get = lambda name, key: sum(l.get(name, {}).get(key, 0.0) for l in layers) / len(layers)
    calls = lambda name: int(layers[-1].get(name, {}).get("calls", 0))
    spans = recorders[-1].spans
    lookups = calls("index.lookup")
    hits = recorders[-1].hits.get("index.lookup", 0)
    det = base.det
    live = det.get("live", {})
    virtual = _virtual_by_kind(base.breakdown, zoo)
    traced_wall = sum(p.wall_s for p in traced)
    untraced_wall = sum(p.wall_s for p in untraced)
    covered = sum(tracing.covered_s(r.spans) for r in recorders)

    metrics: Dict[str, float] = {
        "error_rate": base.failed / base.attempted if base.attempted else 0.0,
        "identity_f1": det.get("identity_f1", 0.0),
        "alert_latency_p50_ms": det.get("alert_latency_p50_ms", 0.0),
        "alert_latency_p90_ms": det.get("alert_latency_p90_ms", 0.0),
        "alert_latency_samples": det.get("alert_latency_samples", 0),
        "sustainable_pace_x": det.get("sustainable_pace_x", 0.0),
        "videosim.frame.calls": calls("videosim.frame"),
        "videosim.frame.self_us_per_frame": per_frame_us(get("videosim.frame", "self_s")),
        "videosim.poll.self_us_per_frame": per_frame_us(get("videosim.poll", "self_s")),
        "planner.plan.calls": calls("planner.plan"),
        "planner.plan.self_ms": get("planner.plan", "self_s") * 1e3,
        "scheduler.step.self_us_per_frame": per_frame_us(get("scheduler.step", "self_s")),
        "streaming.process_frame.calls": calls("streaming.process_frame"),
        "streaming.process_frame.self_us_per_frame": per_frame_us(get("streaming.process_frame", "self_s")),
        "runtime.detect.self_us_per_frame": per_frame_us(get("runtime.detect", "self_s")),
        "runtime.track.self_us_per_frame": per_frame_us(get("runtime.track", "self_s")),
        "runtime.reuse_hits": base.reuse_hits,
        "runtime.retained_tracks": base.retained_tracks,
    }
    scan = _scan_totals(base.scan_stats)
    metrics.update({k: v for k, v in scan.items() if k.startswith("scheduler.")})
    for kind in ("detector", "tracker", "property", "filter"):
        name = f"models.{kind}"
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_us_per_frame"] = per_frame_us(get(name, "self_s"))
        metrics[f"{name}.virtual_ms_per_frame"] = virtual[kind] / frames if frames else 0.0
    metrics.update({
        "index.lookups": lookups,
        "index.hit_ratio": hits / lookups if lookups else 0.0,
        "index.writes": calls("index.record"),
        "index.save_ms": get("index.save", "total_s") * 1e3,
        "crosscamera.link.self_ms": get("crosscamera.link", "self_s") * 1e3,
        "crosscamera.reid.calls": det.get("reid_calls", 0),
        "crosscamera.link.virtual_ms": det.get("link_virtual_ms", 0.0),
        "session.feed_scan.wall_ms": (get("session.feed_scan", "total_s") + get("live.run", "total_s")) * 1e3,
        "session.concurrency": tracing.concurrency(spans, "session.feed_scan") if calls("session.feed_scan") else 1.0,
        "live.frames_shed": live.get("frames_shed", 0),
        "live.frames_late_dropped": live.get("frames_late_dropped", 0),
        "live.peak_buffered": live.get("peak_buffered", 0),
        "live.pressure_raises": live.get("pressure_raises", 0),
        "live.alerts": live.get("alerts_emitted", 0),
        "live.run.self_us_per_frame": per_frame_us(get("live.run", "self_s")),
        "faults.model_retries": scan["faults.model_retries"],
        "faults.backoff_virtual_ms": base.breakdown.get("fault-backoff", 0.0),
        "obs.tracing_overhead_frac": obs_frac,
        "bench.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "bench.unattributed_frac": max(0.0, 1.0 - covered / traced_wall),
    })

    out_dir.mkdir(exist_ok=True)
    tracing.write_chrome_trace(spans, str(out_dir / f"trace-{workload.name}.json"))
    # Counts a traced pass must reproduce: the untraced outputs, and the
    # other traced pass's span counts.
    for result in traced:
        if fingerprint(result) != fingerprint(base):
            base.violations.append("a traced pass differs from the untraced pass")
    counts = [{n: int(v["calls"]) for n, v in l.items()} for l in layers]
    if counts[0] != counts[1] or recorders[0].hits != recorders[1].hits:
        base.violations.append("span counts differ between the two traced passes")
    return metrics, untraced + traced


# ---------------------------------------------------------------------- main --
def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_source()
    import workloads

    catalogue = workloads.all_workloads(worker_count())
    if args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(catalogue)}")
    workload = catalogue[args.workload]
    inputs = workload.build(args.seed)
    from repro.frontend.registry import get_library_zoo

    zoo = get_library_zoo()
    if args.trace:
        metrics, passes = per_layer(workload, inputs, zoo, ROOT / ".perfbench")
    else:
        metrics, passes = end_to_end(workload, inputs, zoo, args.seed, args.seconds)
    problems = check_passes(passes)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    for error in sorted(set(e for p in passes for e in p.errors)):
        print(f"operation failed: {error}", file=sys.stderr)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value} {units.get(name, '?')}")
    print(json.dumps({
        "correct": not problems,
        "attempted": passes[0].attempted,
        "failed": passes[0].failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
