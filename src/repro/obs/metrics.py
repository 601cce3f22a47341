"""Labeled counter/gauge/histogram registry.

The registry is the single numeric surface for engine observability:
``ScanStats`` exposes its counters as registry gauges (keeping the legacy
``as_dict()`` view), while tracing-mode instrumentation adds labeled
counters (``detector_invocations{model=...}``) and bounded histogram
summaries (``gate_eval_ms{model=...}``, ``stride_level``).

Histograms store only ``(count, total, min, max)`` aggregates, so memory
stays O(label cardinality) regardless of how many samples arrive, and
snapshots are deterministic under concurrent recording (sums and extrema
are order-independent).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> LabelKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(key: LabelKey) -> str:
    """Render ``(name, labels)`` as ``name{k=v,...}`` (Prometheus-style)."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class HistogramStat:
    """Bounded summary of an observed value series."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Thread-safe registry of labeled counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[LabelKey, float] = {}
        self._gauges: Dict[LabelKey, object] = {}
        self._histograms: Dict[LabelKey, HistogramStat] = {}

    # -- counters ---------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def counter(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0)

    # -- gauges -----------------------------------------------------------

    def set_gauge(self, name: str, value: object, **labels: object) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = value

    def gauge(self, name: str, default: object = None, **labels: object) -> object:
        with self._lock:
            return self._gauges.get(_key(name, labels), default)

    # -- histograms -------------------------------------------------------

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = _key(name, labels)
        with self._lock:
            stat = self._histograms.get(key)
            if stat is None:
                stat = self._histograms[key] = HistogramStat()
            stat.observe(value)

    def histogram(self, name: str, **labels: object) -> Optional[HistogramStat]:
        with self._lock:
            return self._histograms.get(_key(name, labels))

    # -- copying and merging ----------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """The metric maps without the lock (locks neither copy nor pickle).

        Scan checkpointing deep-copies the scheduler's ``ScanStats`` (whose
        counters live in a registry), and multi-camera feed workers ship
        their registries back to the parent process; ``copy.deepcopy`` and
        ``pickle`` both go through this pair.
        """
        with self._lock:
            return {
                "_counters": dict(self._counters),
                "_gauges": dict(self._gauges),
                "_histograms": dict(self._histograms),
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` in: counters add, ``other``'s gauges win, and
        histogram summaries combine."""
        state = other.__getstate__()
        with self._lock:
            for key, value in state["_counters"].items():
                self._counters[key] = self._counters.get(key, 0) + value
            self._gauges.update(state["_gauges"])
            for key, stat in state["_histograms"].items():
                mine = self._histograms.setdefault(key, HistogramStat())
                mine.count += stat.count
                mine.total += stat.total
                mine.min = min(mine.min, stat.min)
                mine.max = max(mine.max, stat.max)

    # -- snapshot ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metrics keyed ``name{label=value,...}``, sorted for stability."""
        with self._lock:
            return {
                "counters": {
                    format_key(k): v for k, v in sorted(self._counters.items())
                },
                "gauges": {
                    format_key(k): v for k, v in sorted(self._gauges.items())
                },
                "histograms": {
                    format_key(k): v.as_dict()
                    for k, v in sorted(self._histograms.items())
                },
            }


class RegistryField:
    """Descriptor exposing an attribute as an unlabeled registry gauge.

    Lets a stats object keep plain ``obj.field`` read/write semantics
    (including ``+=``) while every value lives in the owner's
    ``MetricsRegistry``, so ``registry.snapshot()`` is the source of truth
    and legacy dict views are derived from it.
    """

    def __init__(self, default: object = 0) -> None:
        self.default = default
        self.name = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj.registry.gauge(self.name, default=self.default)

    def __set__(self, obj, value) -> None:
        obj.registry.set_gauge(self.name, value)
