"""Host-speed probe: a fixed numpy kernel, independent of sdnlw, timed
throughout the run so that the program's timings can be scaled to one host
speed.

The reference host is shared with other tenants and runs for seconds to
minutes at a time up to about 1.6x slower than when it is quiet; the
slowdown shows in CPU time as much as in wall time.  Contention slows the
probe and the program alike: over twenty 15 s runs of ``couple``, the
unscaled ``step_ms_p50`` ranged from 0.73 to 1.30 of its median and the
scaled one from 0.94 to 1.04 (``girsanov``: 0.90-1.15 and 0.94-1.04).
A timing ``t`` is therefore reported as ``t * REF_MS / m``, where ``m`` is
the mean probe time around ``t``: the time the same work takes when the
probe reads ``REF_MS``.
"""

from __future__ import annotations

import time

import numpy as np

# about the probe's time on the reference host (2-core x86-64, numpy 2.4)
# when no other tenant slows it
REF_MS = 1.0
# probe calls this close to a timed interval count as "around" it
PAD_S = 0.5


class Probe:
    """Runs the kernel when ``every_s`` has passed since its last call and
    keeps every call's start time and duration in ms."""

    def __init__(self, every_s: float = 0.04):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((4, 32, 32)) + 0j
        self._large = rng.standard_normal((16, 32, 32)) + 0j
        self.every_s = every_s
        self.starts: list[float] = []
        self.ms: list[float] = []
        self._last = -float("inf")
        for _ in range(3):  # fills numpy's FFT plan cache
            self._kernel()

    def _kernel(self) -> None:
        # small transforms, where per-call overhead counts, and one batch
        # large enough to leave the L2 cache, like the program's two shapes
        y = self._small
        for _ in range(4):
            y = np.fft.ifft2(np.fft.fft2(y) * 0.5) + y.real * 0.01
        np.fft.ifft2(np.fft.fft2(self._large) * 0.5)

    def call(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ms.append((t1 - t0) * 1e3)
        self._last = t1

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.call()

    def mean_around(self, t0, t1) -> np.ndarray:
        """Mean time in ms of the probe calls that started within PAD_S of
        each interval ``[t0, t1]`` (arrays of perf_counter times); NaN
        where there was none."""
        ts = np.asarray(self.starts)
        cum = np.r_[0.0, np.cumsum(self.ms)]
        i0 = np.searchsorted(ts, np.asarray(t0) - PAD_S)
        i1 = np.searchsorted(ts, np.asarray(t1) + PAD_S)
        n = i1 - i0
        return np.where(n > 0, (cum[i1] - cum[i0]) / np.maximum(n, 1), np.nan)
