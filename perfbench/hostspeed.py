"""Host-speed calibration, so a slow phase of a shared host is its own number.

On a shared VM the speed of the same single-threaded Python code drifts by
tens of percent for minutes at a time, and CPU time drifts with it: the
slowdown is not steal time, which the guest would leave out of its process
time, but fewer instructions per second.  The benchmark therefore times a
fixed calibration kernel that uses none of the program's code, in the same
process and between the jobs it measures, and rescales every host time to
the speed at which the kernel takes :data:`REFERENCE_KERNEL_S`.  A change
to the program moves its own times and leaves the kernel alone; a host
phase moves both, and the ratio cancels it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Callable

#: Kernel loop length: one kernel run takes about 11 ms on the baseline host.
KERNEL_ITERATIONS = 10_000

#: Kernel runs per sample; the sample is the fastest, because interference
#: only ever adds time and the sample should show the sustained speed.
RUNS_PER_SAMPLE = 3

#: Fastest kernel run on the baseline host (2-core Xeon VM, Python 3.11.7)
#: in a quiet phase.  It only fixes the unit: reported times are seconds at
#: the speed at which the kernel takes this long.
REFERENCE_KERNEL_S = 0.0105


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def kernel() -> float:
    """Interpreter-bound work like the simulator's: objects, dicts, a heap, floats."""
    table: dict[int, _Slot] = {}
    heap: list[tuple[float, int]] = []
    total = 0.0
    for i in range(KERNEL_ITERATIONS):
        slot = _Slot(i & 1023, i * 0.5)
        table[slot.key] = slot
        heapq.heappush(heap, (slot.value % 97.0, i))
        if len(heap) > 256:
            total += heapq.heappop(heap)[0]
        total += table.get((i * 7) & 1023, slot).value
    return total


class HostSpeed:
    """Samples the kernel and turns host seconds into reference seconds.

    The kernel is estimated the way the benchmark estimates its jobs.  The
    timed phase repeats the same passes, and each pass takes its samples at
    the same job counts, so sample ``k`` of every pass (a row) is a repeat
    of one measurement, as job ``k`` is.  A point's estimate is its fastest
    repeat, and the host's speed is the median point.  A sustained slow
    phase slows jobs and kernel alike and cancels out; a short burst is
    filtered out of both by the fastest repeat.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Rows of samples; each sample is the fastest of RUNS_PER_SAMPLE runs.
        self.rows: list[list[float]] = [[]]
        #: Host seconds spent sampling, so callers can leave them out.
        self.spent_s = 0.0

    def new_row(self) -> None:
        """Start the samples of the next repeat (pass)."""
        if self.rows[-1]:
            self.rows.append([])

    def sample(self, count: int = 1) -> None:
        """Take ``count`` samples now, in the current row."""
        began = self.clock()
        for _ in range(count):
            runs = []
            for _ in range(RUNS_PER_SAMPLE):
                t0 = self.clock()
                kernel()
                runs.append(self.clock() - t0)
            self.rows[-1].append(min(runs))
        self.spent_s += self.clock() - began

    def kernel_s(self) -> float:
        """The median over points of each point's fastest repeat."""
        return statistics.median(min(repeats) for repeats in zip(*self.rows))

    def factor(self) -> float:
        """Reference seconds per host second."""
        return REFERENCE_KERNEL_S / self.kernel_s()
