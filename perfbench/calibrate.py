"""Reference seconds: wall time corrected for how fast the host runs right now.

On a shared host the speed of a vCPU drifts by up to a factor of two, over
tenths of a second as well as over minutes, and CPU time drifts with it, so
neither wall time nor CPU time of one command repeats from run to run.  The
two vCPUs drift independently, so a sampler on the other vCPU cannot see it.

``Probe`` samples the speed of the measured process itself: while a region
runs, a ``SIGALRM`` handler fires every ``INTERVAL_S`` and times a small
fixed kernel in the same thread.  The region's reference time is its wall
time minus the time spent in the handler, multiplied by
``REFERENCE_KERNEL_S`` over the mean kernel time seen during the region: the
time the region would have taken at the speed at which the kernel takes
``REFERENCE_KERNEL_S``.

The kernel mixes a pure-Python loop with small numpy calls, like the
per-turn recurrence and per-row work of the program.  Its code never
changes, so a change to the program moves the reference time, and a change
in host speed does not.  The handler adds about 5% of wall time, which is
taken back out; what stays is the cache traffic of the kernel.
"""

import signal
import statistics
from time import perf_counter

# Typical kernel time on the recording machine (see provenance.json): the
# median, over the commands of three 25 s paper-default runs, of the mean
# kernel time during a command.  A reference second is close to a wall
# second there.
REFERENCE_KERNEL_S = 0.00058
INTERVAL_S = 0.01


def _kernel():
    # numpy is imported here, not at load time, so that run.py can pin the
    # BLAS thread count before numpy first loads
    import numpy

    total = 0
    for i in range(4_000):
        total += i * i
    v = numpy.linspace(-1.0, 1.0, 64)
    for _ in range(60):
        v = numpy.tanh(v * 0.5) + 0.1
    return total, v


def _timed_kernel():
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class Probe:
    """Times a ``with`` block in reference seconds (see the module docstring)."""

    def __init__(self):
        self.samples = []  # kernel seconds, one per SIGALRM
        self.wall = 0.0  # wall seconds of the block, handler time included

    def _on_alarm(self, signum, frame):
        self.samples.append(_timed_kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self):
        """Wall seconds of the block, without the handler's time."""
        return self.wall - sum(self.samples)

    def reference_seconds(self):
        # a block shorter than one interval gets one sample, taken after it
        samples = self.samples or [_timed_kernel()]
        return self.seconds() * REFERENCE_KERNEL_S / statistics.mean(samples)


class WallClock:
    """Times a ``with`` block in wall seconds, for the traced run."""

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self._start

    def seconds(self):
        return self.wall

    reference_seconds = seconds
