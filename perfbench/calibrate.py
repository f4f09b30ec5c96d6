"""Host-speed calibration.

A virtual machine shares its cores and caches with its neighbours; on
a 2-core KVM guest, wall time of the same memory-bound Python code was
seen to drift by up to 2x within seconds.  A tight arithmetic loop
barely sees that drift, so the probe here is a fixed pure-Python
random walk over a pool larger than the L2 cache, which slows down the
way the interpreter-heavy workload does.

The probe runs ``EDGE_PROBES`` times before and after every measured
pass, and from a ``SIGALRM`` handler every ``PERIOD_S`` during it.  A
pass's speed-normalized seconds are its work seconds (wall seconds
minus the time spent in probes) times the trimmed mean of
``REFERENCE_S`` over each probe's time, so each stretch of the pass is
scaled by the speed the host had while it ran.  Every probe's
interval is kept in ``Calibrator.probes``, so the tracer can take
probe time out of the layer spans it lands in.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time

POOL_SIZE = 200_000
STEPS = 2_000
PERIOD_S = 0.05
EDGE_PROBES = 5
# median probe time on the 2-core x86-64 KVM guest the reference
# figures were taken on (CPython 3.11), in its faster mode
REFERENCE_S = 0.00070


class Calibrator:
    """Owns the probe's pool; one per process."""

    def __init__(self):
        # (start, end) perf_counter seconds of every probe, in order
        self.probes: list[tuple[float, float]] = []
        before = _rss_kb()
        self._pool = [(i, str(i)) for i in range(POOL_SIZE)]
        # resident for the process's whole life, so it raises every
        # peak-RSS reading by the same amount; callers subtract it
        self.pool_kb = max(_rss_kb() - before, 0)

    def probe(self) -> float:
        """CPU seconds one random walk over the pool takes right now.

        CPU time, not wall time: while fleet workers share the cores, a
        probe preempted halfway would otherwise read as a slow host.
        """
        pool, size = self._pool, POOL_SIZE
        started = time.thread_time()
        acc = index = 0
        for _ in range(STEPS):
            index = (index * 1103515245 + 12345) % size
            number, text = pool[index]
            acc += number + len(text)
        return time.thread_time() - started

    def sampling(self) -> "Sampling":
        return Sampling(self)

    def measure(self, fn):
        """Run ``fn`` under sampling.

        Returns ``(result, work_s, normalized_s, probe samples)``.
        """
        with self.sampling() as sampling:
            started = sampling.clock()
            result = fn()
            work = sampling.clock() - started
        return result, work, work * sampling.speed, sampling.samples


class Sampling:
    """Probes before, during (on ``SIGALRM``) and after a pass."""

    def __init__(self, calibrator: Calibrator):
        self._calibrator = calibrator
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None
        self.speed = 1.0

    def _probe(self) -> None:
        started = time.perf_counter()
        self.samples.append(self._calibrator.probe())
        ended = time.perf_counter()
        self._calibrator.probes.append((started, ended))
        self._spent += ended - started

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def clock(self) -> float:
        """Wall seconds minus the time spent probing."""
        return time.perf_counter() - self._spent

    def __enter__(self) -> "Sampling":
        for _ in range(EDGE_PROBES):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_PROBES):
            self._probe()
        self.speed = speed(self.samples)


def speed(samples: list[float]) -> float:
    """Factor turning work seconds into speed-normalized seconds.

    The mean over the middle 60% of probe speeds: a probe that took a
    page fault or a cache miss storm reads as a very slow host, and
    the trim keeps such outliers from shifting the whole pass.
    """
    speeds = sorted(REFERENCE_S / sample for sample in samples)
    cut = len(speeds) // 5
    return statistics.fmean(speeds[cut:len(speeds) - cut])


def _rss_kb() -> int:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() // 1024
