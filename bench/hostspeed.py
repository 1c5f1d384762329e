"""Host-speed-corrected timing on a machine shared with other load.

The host this benchmark was built on changes speed by up to 1.7x for
seconds to minutes at a time, in CPU time as well as in wall time, so raw
times of identical code drift between runs by 20-30%. HostSpeed pins the
process to one CPU, then starts a background thread that runs a fixed
reference chunk every few milliseconds and records the CPU time each chunk
takes. It shares the main thread's CPU a few milliseconds apart, so the
chunk's mean CPU time over an interval measures the speed the main thread
saw in that interval. Dividing by it turns main-thread CPU
seconds into seconds on a reference host that runs the chunk in REF_CHUNK_S.
The chunk calls no glitchbench code, so no change to glitchbench moves it.
The thread takes about 1% of the core.
"""

from __future__ import annotations

import os
import threading
import time

REF_CHUNK_S = 100e-6
_PAUSE_S = 0.004


def _chunk() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(400):
        table[i & 255] = (i * 2654435761) & 0xFFFFFFFF
        acc ^= table.get((i * 7) & 255, 0)
    return acc


class HostSpeed:
    def __init__(self):
        if hasattr(os, "sched_setaffinity"):
            # the calling thread, and the threads and processes it starts
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.totals = (0, 0.0)  # chunks run, their CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.is_set():
            t0 = time.thread_time()
            _chunk()
            dt = time.thread_time() - t0
            n, cpu = self.totals
            self.totals = (n + 1, cpu + dt)  # one store: readers see a pair
            self._stop.wait(_PAUSE_S)

    def factor(self, since: tuple[int, float]) -> float:
        """Reference seconds per host CPU second since a `totals` snapshot."""

        while self.totals[0] == since[0]:  # interval too short to sample
            time.sleep(_PAUSE_S)
        n, cpu = self.totals
        return REF_CHUNK_S * (n - since[0]) / (cpu - since[1])

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
