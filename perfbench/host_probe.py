"""Host-speed sampling: small fixed slices of work that use no library code.

The benchmark's host is a shared 2-CPU virtual machine. Its speed drifts by
up to ~2x over minutes and switches between fast and slow spells within
seconds, while CPU time stays equal to wall time (the CPUs themselves run
slower; steal time stays near zero). A probe timed before or after the
measured work samples other seconds than the work ran in, so it tracks
the slow drift but adds the fast swings as noise (README.md).

``HostSampler`` instead interleaves the probe with the work: every
``SLICE_INTERVAL_S`` of wall time a ``SIGALRM`` handler times one slice of
an interpreter-bound event loop (heap, tuples, dict updates, like the
event engine and the Python loops around the batched cores and the attack
estimator), with the garbage collector off. The slices land uniformly in
time, so their mean speed is the host's mean speed over the very seconds
the work ran in. Host times measured over a window are rescaled by
``SLICE_REFERENCE_S x mean slice speed`` over that window: they read as
seconds on a host where one slice takes ``SLICE_REFERENCE_S``.

No library code runs in a slice, so a real speed-up or slow-down of the
program shows in full in the rescaled times. The time spent in the
handler (about 3.5% of the wall time) is left out of every interval
measured with ``HostSampler.clock``.
"""

import gc
import heapq
import random
import signal
import time

#: Size of one slice and the wall-clock interval between slices.
SLICE_HEAP_ITEMS = 4_096
SLICE_EVENTS = 3_000
SLICE_INTERVAL_S = 0.2
#: Seconds of one slice on the reference host.
SLICE_REFERENCE_S = 0.006


def _event_loop() -> int:
    rng = random.Random(2018)
    heap = [(rng.random(), i, "arrive") for i in range(SLICE_HEAP_ITEMS)]
    heapq.heapify(heap)
    served = {}
    for _ in range(SLICE_EVENTS):
        cycle, item, tag = heapq.heappop(heap)
        served[item] = served.get(item, 0) + 1
        heapq.heappush(heap, (cycle + rng.random(),
                              item, "reply" if tag == "arrive" else "arrive"))
    return len(served)


class HostSampler:
    """Times one slice every ``SLICE_INTERVAL_S`` from a ``SIGALRM``
    handler, and keeps a clock that leaves the handler's time out."""

    def __init__(self):
        self.speeds = []  # 1 / slice seconds, in order
        self.overhead_s = 0.0
        self._busy = False
        self._marked = 0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S,
                         SLICE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """``time.perf_counter()`` minus the seconds spent sampling."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter() - self.overhead_s
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def mark(self) -> int:
        """The number of slices so far, to delimit a window for
        ``scale``. Takes a slice first if none landed since the previous
        mark, so every window holds at least one."""
        if len(self.speeds) == self._marked:
            self._sample(signal.SIGALRM, None)
        self._marked = len(self.speeds)
        return self._marked

    def scale(self, first: int, last: int) -> float:
        """Factor that rescales host seconds measured between two marks
        to the reference host: mean slice speed over reference speed."""
        speeds = self.speeds[first:last]
        if not speeds:
            raise RuntimeError("no host-speed slice in the window")
        return SLICE_REFERENCE_S * sum(speeds) / len(speeds)

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            _event_loop()
            self.speeds.append(1.0 / (time.perf_counter() - entered))
        finally:
            if was_enabled:
                gc.enable()
            self.overhead_s += time.perf_counter() - entered
            self._busy = False
