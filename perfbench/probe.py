"""Host-speed probe for a shared, noisy CPU.

On the shared 2-vCPU reference VM each vCPU switches between a fast and a
slow state every few seconds, independently of the other, and the slow
state costs about 1.5x.  Run-level wall times therefore spread far more than any
change worth detecting.  The probe samples the speed of the CPU the
benchmark runs on while it runs: a daemon thread wakes every 50 ms and
times a fixed kernel of small matmuls and a Python loop - the same mix as
socsim's training epochs - in its own CPU time, so time spent waiting for
the GIL or the scheduler does not count.  A measured interval divided by
the mean probe time over that interval, times ``REFERENCE_S``, is the
interval at the reference speed.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# Mean probe time on the reference host (2-vCPU VM, numpy 2.4.6 with
# scipy-openblas 0.3.31, 1 BLAS thread) in its fast state.
REFERENCE_S = 5.0e-4

INTERVAL_S = 0.05


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._g = rng.random((200, 200))
        self._h = rng.random((200, 32))
        self._w = rng.random((32, 32))
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _kernel(self) -> None:
        for _ in range(5):
            np.maximum((self._g @ self._h) @ self._w, 0.0)
            total = 0
            for i in range(300):
                total += i

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.thread_time()
            self._kernel()
            self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self.samples)

    def scale_since(self, mark: int) -> float:
        """REFERENCE_S over the mean probe time since ``mark``: multiply a
        time measured over the same interval by this to get reference-speed
        seconds.  1.0 when no sample fell in the interval."""
        window = self.samples[mark:]
        return REFERENCE_S / statistics.mean(window) if window else 1.0
