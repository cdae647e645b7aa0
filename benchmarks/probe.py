"""Interpreter speed probe, used to adjust timings for CPU speed swings."""

import signal
import statistics
import time

# Reference duration of one timed probe pass, within the range of its
# median (0.03-0.08 ms) on the machine the README's figures come from;
# it fixes the unit of the adjusted times.
P_REF = 6.0e-5


class _Slot:
    __slots__ = ("a",)


class SpeedProbe:
    """Samples the interpreter's speed while timed operations run.

    On a shared machine the CPU speed a process gets swings by up to
    50% within seconds, and CPU time swings with it. So every 10 ms a
    SIGALRM handler times a fixed loop of the operations the package's
    Python code is made of: list and dict lookups, attribute stores,
    integer adds and tuple builds. The loop runs twice and only the
    second pass is timed: the first brings the probe's own data back
    into cache, so the sample does not depend on how much memory the
    program touched since the last probe. An operation's adjusted time
    is its wall time minus the probes' own time, scaled by P_REF over
    the median probe time seen during the operation: the time it would
    have taken at the reference speed.
    """

    INTERVAL = 0.01

    def __init__(self):
        self.samples = []    # timed second passes
        self.costs = []      # whole handler times
        self._list = list(range(500))
        self._dict = {i: i for i in range(500)}

    def _loop(self):
        lst, dct, obj, s = self._list, self._dict, _Slot(), 0
        for i in range(500):
            obj.a = dct[lst[i]]
            s += obj.a
            pair = (i, s)
        return pair

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        self._loop()
        t1 = time.perf_counter()
        self._loop()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.costs.append(t2 - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return time.perf_counter(), len(self.samples)

    def since(self, mark):
        """(wall time without probes, probe times) since `mark`."""
        t0, k = mark
        wall = time.perf_counter() - t0
        return wall - sum(self.costs[k:]), self.samples[k:]


def adjust(work, probes):
    """`work` seconds at the speed the probes saw, in reference seconds;
    `work` itself if no probe ran."""
    return work * P_REF / statistics.median(probes) if probes else work
