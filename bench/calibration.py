"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by 10 to 30
percent within a minute: the same pass of `monitor-chains` took 4.4 s
in one run and 6.4 s two minutes later. The drift is common to all code
in the process. So ``Meter`` times a fixed piece of graph code (four
breadth-first searches, about 4 ms) between operations, and every
SAMPLE_INTERVAL seconds during them through an interval timer. Each
operation's wall time, minus the samples taken inside it, is multiplied
by ``REFERENCE_S`` over the mean of the samples from just before it to
just after it. Reported times are then seconds at the speed at which
one sample takes ``REFERENCE_S``. The drift is taken out; the program's
own work still shows.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

# Median sample time on the shared 2-core x86-64 machine where the benchmark
# was defined (Python 3.11.7).
REFERENCE_S = 0.0040
SAMPLE_INTERVAL = 0.1

_N = 3000
# A ring with chords: degree 4, diameter in the tens, so the search
# touches lists, a deque and a visited array as graph code does.
_ADJ = [((v - 1) % _N, (v + 1) % _N, (v * 7 + 3) % _N, (v * 13 + 5) % _N) for v in range(_N)]


def _bfs(source: int) -> int:
    dist = [-1] * _N
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in _ADJ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return max(dist)


def calibrate() -> float:
    """Seconds four fixed breadth-first searches take right now."""
    start = time.perf_counter()
    for source in (0, 750, 1500, 2250):
        _bfs(source)
    return time.perf_counter() - start


class Meter:
    """Speed samples for one stretch of timed work.

    Inside ``with meter:`` a SIGALRM timer takes a sample every
    SAMPLE_INTERVAL seconds; ``sample()`` takes one between operations.
    ``spent`` is the wall time all samples took, to be left out of the
    work they interrupted."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start
        self._busy = False

    def scale(self, first: int, stop: int | None = None) -> float:
        """Factor from wall time to reference-speed time over the samples
        first..stop-1 (to the last one when stop is None)."""
        return REFERENCE_S / statistics.fmean(self.samples[first:stop])

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

