"""Host-speed probe: rescales measured seconds to a reference CPU speed.

On a shared host the CPU a worker gets runs at different speeds from one
second to the next, and the slow stretches last from seconds to minutes, so
plain seconds spread more than any useful bound.  The probe times a fixed
exact-arithmetic kernel (stdlib ``Fraction`` work, nothing from the package)
on the same CPU at the same moments as the measured code:

- during an operation, from a ``SIGPROF`` handler every ``OP_INTERVAL_S`` of
  process CPU time, so the samples interleave with the operation itself;
- after set-up, ``SETUP_SAMPLES`` kernel runs in a row, since set-up is too
  short to sample from a timer.

``scaled`` turns measured seconds into seconds at the reference speed, the
speed at which one kernel run takes ``REF_KERNEL_S``.  The mean, not the
median, of the samples is used: the host alternates between a fast and a
slow state, and the mean follows the share of time spent in each.  Samples
more than ``OUTLIER`` times the median (a sample that was descheduled) are
left out.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# One kernel run on an idle core of an Intel Xeon 2-vCPU virtual machine,
# CPython 3.11.
REF_KERNEL_S = 150e-6
OP_INTERVAL_S = 0.02
SETUP_SAMPLES = 200
MIN_SAMPLES = 50  # fewest samples behind one operation's scaling
OUTLIER = 4.0


def kernel() -> Fraction:
    """Fixed exact-arithmetic work, about 150 microseconds."""
    a = Fraction(1, 3)
    s = Fraction(0)
    for i in range(1, 40):
        s += a * Fraction(i, i + 1)
        if s > 7:
            s -= 7
    return s


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def calibrate(n: int = SETUP_SAMPLES) -> list[float]:
    return [time_kernel() for _ in range(n)]


class Sampler:
    """Times the kernel from a SIGPROF handler while the main thread runs."""

    def __init__(self, interval: float = OP_INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        self.samples.append(time_kernel())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return self.samples


def kernel_mean(samples: list[float]) -> float:
    """Mean kernel time, leaving out descheduled samples."""
    cap = OUTLIER * statistics.median(samples)
    return statistics.fmean(s for s in samples if s <= cap)


def scaled(seconds: float, samples: list[float]) -> float:
    """`seconds` measured while the kernel took `samples`, at the reference
    speed."""
    return seconds * REF_KERNEL_S / kernel_mean(samples)
