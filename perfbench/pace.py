"""The host's pace, sampled while operations run, and timings scaled by it.

The benchmark gets a few cores of a shared host.  How fast those cores run
pure Python drifts by up to ~2.5x, in stretches of a second to minutes, as
other tenants load the host; thread CPU time drifts with wall time, so this
is contention for the cores, not time stolen from the process.  A run that
lands in a slow stretch then reads slower than one in a fast stretch, by
more than the bounds in ``BENCHMARK.json`` allow.

:class:`PaceSampler` measures that drift in the owner process: an interval
timer interrupts it every :data:`INTERVAL` seconds, and the handler times
one :func:`unit` of fixed work: integer and small-dict bytecode, and
HMAC-SHA256 as in every F2 cipher.  Over 100 s of drift, the time of a
verified select on 8k rows, divided by the unit time, spread by 8% (quartile
distance over 2-second windows) where the select alone spread by 36%.
Lookups in a dict larger than the core's caches were tried in the unit too:
they tracked the program better in one stretch and worse in another, so the
unit leaves them out.  :meth:`PaceSampler.scaled`
turns an operation's wall time into the time it would take at the
:data:`REFERENCE` pace, dividing by the median unit time sampled during the
operation.  The unit is the benchmark's own code, so a change to the
program moves scaled times exactly as it moves wall times.

The provider runs on the other core, whose pace drifts apart from the
owner's at times, and does most of a discovery's work.  It serves requests
on a handler thread, where a timer's handler would compete for the GIL, so
it times one unit right before and one right after each request instead
(``provider.py``).  The provider's busy time within an operation is scaled
by those units, the rest by the owner's.  Both processes read
``time.perf_counter``, the system-wide monotonic clock, so their times
compare.
"""

from __future__ import annotations

import bisect
import hmac
import signal
import statistics
import time

#: Seconds between two samples.
INTERVAL = 0.02
#: Seconds one unit takes at the reference pace (a quiet 2-vCPU Xeon VM).
REFERENCE = 200e-6
#: Fewest samples a scaled timing rests on; short operations borrow the
#: samples nearest to them.
MIN_SAMPLES = 9

# Built once, so that a unit allocates no container and never triggers a
# garbage collection.
_TABLE = dict.fromkeys(range(64), 0)
_HMAC_KEY = bytes(32)
_MESSAGES = [i.to_bytes(32, "big") for i in range(30)]


def unit() -> float:
    """Seconds one fixed unit of work takes right now."""
    start = time.perf_counter()
    table = _TABLE
    total = 0
    for i in range(500):
        table[i & 63] = total
        total += i * 7 % 13
    for message in _MESSAGES:
        hmac.digest(_HMAC_KEY, message, "sha256")
    return time.perf_counter() - start


class PaceSampler:
    """Samples :func:`unit` on ``SIGALRM``; ``spent`` is the handler's total time.

    The handler interrupts the process wherever it is, so a caller timing an
    operation subtracts the growth of ``spent`` over it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.units: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        took = unit()
        self.times.append(start)
        self.units.append(took)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pace(self, start: float, end: float) -> float:
        """Median unit time sampled in ``[start, end]``, widened to at least
        :data:`MIN_SAMPLES` samples."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        while high - low < MIN_SAMPLES and (low > 0 or high < len(self.times)):
            low = max(0, low - 1)
            high = min(len(self.times), high + 1)
        if low == high:
            return REFERENCE
        return statistics.median(self.units[low:high])

    def scaled(self, start: float, end: float, seconds: float, requests: list[tuple]) -> float:
        """``seconds`` measured over ``[start, end]``, at the reference pace.

        ``requests`` are the provider's ``(start, end, unit_before,
        unit_after)`` records, sorted; those inside the window are scaled by
        their units (widened to :data:`MIN_SAMPLES` units from neighbouring
        requests), and the rest of ``seconds`` by the owner's samples.
        """
        low = bisect.bisect_left(requests, (start,))
        high = bisect.bisect_left(requests, (end,))
        busy = overhead = 0.0
        for request_start, request_end, before, after in requests[low:high]:
            overhead += before + after
            busy += request_end - request_start - before - after
        while 2 * (high - low) < MIN_SAMPLES and (low > 0 or high < len(requests)):
            low = max(0, low - 1)
            high = min(len(requests), high + 1)
        units = [unit for request in requests[low:high] for unit in request[2:]]
        own = max(0.0, seconds - busy - overhead)
        scaled = own * REFERENCE / self.pace(start, end)
        if units:
            scaled += busy * REFERENCE / statistics.median(units)
        return scaled
