"""The ``Obs`` bundle: one tracer + metrics registry + decision log.

A single ``Obs`` instance is shared across every layer of one execution
(session → executor → scheduler → context → re-id), so a multi-feed batch
produces one coherent trace with parallel feed lanes and one decision log.
Feeds that run in worker processes trace into bundles of their own, which
the parent folds in with :meth:`Obs.merge`.

``Obs.from_config`` returns ``None`` when tracing is disabled; hot paths
guard on ``if obs is not None`` so the disabled mode costs one attribute
check and allocates nothing — that, plus spans never charging the
``SimClock``, is the byte-identity guarantee.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import ObsConfig
from repro.obs.decisions import DecisionLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer


class Obs:
    """Bundle of observability sinks for one execution."""

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config if config is not None else ObsConfig(enabled=True)
        self.tracer = Tracer(max_spans=self.config.max_spans)
        self.metrics = MetricsRegistry()
        self.decisions = DecisionLog(max_records=self.config.max_decision_records)

    @classmethod
    def from_config(cls, config: Optional[ObsConfig]) -> Optional["Obs"]:
        """``Obs`` when the config enables tracing, else ``None``."""
        if config is None or not config.enabled:
            return None
        return cls(config)

    def merge(self, other: "Obs", parent: Optional[Span] = None) -> None:
        """Fold another bundle in (a feed traced in a worker process): its
        spans are adopted under ``parent``, metrics summed, decisions
        appended."""
        self.tracer.adopt(other.tracer, parent=parent)
        self.metrics.merge(other.metrics)
        self.decisions.extend(other.decisions)
