"""Host-speed meter: scales measured seconds to a reference host speed.

Every time the benchmark reports is CPU time of the process that did
the work (:data:`clock`, user plus system), so time the host gives to
other processes, or takes back from this virtual machine, is not
counted.  CPU time still follows the host: a shared core runs the same
instructions up to twice as slowly when its neighbours are busy.  A
fixed pure-Python probe, run in the same thread as the work it meters
and interleaved with it, slows down and speeds up with the core; every
interval the benchmark reports is scaled by ``REFERENCE_PROBE_S`` over
the probe's time at that moment.  That takes the host's swings out and
leaves a change in the program's own cost in full.

A child process wraps its work in a :class:`Meter`, which runs the
probe from a ``SIGALRM`` timer between the program's bytecodes, and in
bursts when the work begins and ends.  (A ``SIGPROF`` timer would count
CPU time, but while one is armed Linux reads the process's CPU clock
only to the last scheduler tick.)  Probes and intervals are readings
of one process's CPU clock, so :class:`Speed` scales intervals of the
process that took the probes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: The clock of every timed interval and probe: this process's CPU time.
clock = time.process_time
#: Probe time, in seconds, on the reference host: scaled seconds are
#: seconds on a host where one probe takes this long ...
REFERENCE_PROBE_S = 0.0045
#: ... or, scaled by the probe's loop alone, where the loop takes this.
REFERENCE_LOOP_S = 0.00225
#: A meter probes this often while the metered work runs.
PERIOD_S = 0.06
#: Probes in one burst.
BURST = 5
#: A probe's speed is the median of itself and this many probes on
#: either side, which keeps one unlucky probe from setting it.
SMOOTH = 3
#: Iterations of the probe's integer loop and of its walk of the chain.
_INT_STEPS = 20000
_WALK_STEPS = 6000
#: Entries of the chain: about 5 MiB of list and integers, more than a
#: core's own caches hold.
_CHAIN_LEN = 1 << 17
_chain = []
#: Resident memory the chain added, in MiB.
_chain_mb = 0.0


def _rss_mb() -> float:
    """Resident memory of this process now, in MiB (0 where unknown).
    A peak would not do: a fresh process's peak starts at its parent's."""
    import os
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def _build_chain() -> None:
    """The chain the probe walks: ``j -> chain[j]`` visits every entry
    in a scattered order (a full-period linear congruential step)."""
    global _chain_mb
    if not _chain:
        before = _rss_mb()
        _chain.extend((40501 * i + 12345) % _CHAIN_LEN
                      for i in range(_CHAIN_LEN))
        _chain_mb = max(0.0, _rss_mb() - before)


def resident_overhead_mb() -> float:
    """Peak resident memory the meter added to this process, in MiB."""
    return _chain_mb


def _loop() -> int:
    total = 0
    for step in range(_INT_STEPS):
        total += step * step % 7
    return total


def _walk() -> int:
    j = 0
    chain = _chain
    for _ in range(_WALK_STEPS):
        j = chain[j]
    return j


def probe() -> tuple:
    """Run the probe once; returns its (start, end of the loop, end).

    The probe is a fixed integer loop, then a walk of a chain larger
    than the core's caches.  As the host's speed swings, the loop's
    time tracks the simulator's while neighbours compete for the core,
    and the walk's while they compete for the shared caches and memory;
    on a slow host the loop alone slowed less than the simulator.
    Imports, short and with little data, slow as the loop does, and the
    whole probe over-corrected them.  The probe allocates no container,
    so it never starts the garbage collector on the metered program's
    heap."""
    start = clock()
    _loop()
    split = clock()
    _walk()
    return (start, split, clock())


def burst() -> list:
    return [probe() for _ in range(BURST)]


class Meter:
    """Probes every :data:`PERIOD_S` seconds while the ``with`` block
    runs, in the main thread, between bytecodes of the metered work.
    A meter made with ``enabled=False`` takes no probes."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples = []
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(probe())
        finally:
            self._busy = False

    def __enter__(self) -> "Meter":
        if not self.enabled:
            return self
        _build_chain()
        self.samples.extend(burst())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        if not self.enabled:
            return False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(burst())
        return False


class Speed:
    """The host's speed over one process's life, from its probes: the
    whole probe's, or with ``loop_only`` its loop's."""

    def __init__(self, samples, loop_only: bool = False) -> None:
        if not samples:
            raise ValueError("no probes: the run's speed is unknown")
        samples = sorted(tuple(s) for s in samples)
        self.samples = [(start, end) for start, _split, end in samples]
        self._starts = [start for start, _end in self.samples]
        self._mids = [(start + end) / 2 for start, end in self.samples]
        if loop_only:
            reference = REFERENCE_LOOP_S
            times = [split - start for start, split, _end in samples]
        else:
            reference = REFERENCE_PROBE_S
            times = [end - start for start, end in self.samples]
        self._factors = [
            reference / statistics.median(
                times[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(times))]

    def factor_at(self, t: float) -> float:
        """Reference seconds per measured second at time ``t``."""
        i = bisect.bisect_left(self._mids, t)
        if i == len(self._mids) or (
                i > 0 and t - self._mids[i - 1] < self._mids[i] - t):
            i -= 1
        return self._factors[i]

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at the reference speed, without
        the probes that ran inside it."""
        total, t = 0.0, start
        for p_start, p_end in self.samples[
                max(0, bisect.bisect_left(self._starts, start) - 1):]:
            if p_start >= end:
                break
            if p_end <= t:
                continue
            if p_start > t:
                total += (p_start - t) * self.factor_at((p_start + t) / 2)
            t = p_end
        if t < end:
            total += (end - t) * self.factor_at((end + t) / 2)
        return total
