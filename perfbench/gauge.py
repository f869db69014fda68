"""A speed gauge that puts times taken at different moments on one scale.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to a factor of two over seconds to minutes,
far more than the changes the benchmark must detect. So the benchmark
times a fixed reference routine (pure Python, none of it from latmult:
combinatorics, object building, calls; their times' geometric mean is the
sample) between the calls it times and, in untraced runs, every few tens
of milliseconds inside them. Each timed interval loses the time the
samples inside it took and is scaled by NOMINAL_S over the median
reference time sampled in and around it:

    reported = (measured - samples inside) * NOMINAL_S / nearby reference time

A reported time is therefore the time the work would take on a machine
running the reference routine in NOMINAL_S. The run prints the raw wall
times alongside.

The package must not be able to slow the reference, or it would read
faster than it is. So no sample runs while work of the package can run
beside it: a sample inside a call is taken only while the process has one
thread and no child processes (otherwise it is skipped and counted, and
the samples between calls judge that call); the garbage collector is
paused while a sample runs, so the package's objects do not lengthen it;
and the reference reads no large table, so the package's use of the CPU
caches matters as little as it can. The reference keeps nothing between
samples.
"""

import bisect
import gc
import math
import os
import signal
import statistics
import time
from dataclasses import dataclass

import oracles

# median reference time of a sample on the 2-vCPU x86-64 VM with CPython 3.11
# where the bounds in BENCHMARK.json were set
NOMINAL_S = 0.00023
WORD = (5, 12, 3, 9, 14, 1, 8, 11, 2, 15, 7, 4, 13, 10, 6, 16)
INTERVAL_S = 0.04  # least time between samples
WINDOW_S = 0.15  # a short interval is judged by the samples this close to it
STEP_S = 0.2  # a group between calls gets one more sample per STEP_S since the last
MAX_GROUP = 12


@dataclass(frozen=True)
class _Segment:
    moves: str

    def __post_init__(self) -> None:
        if self.moves.count("R") != self.moves.count("U"):
            raise ValueError(self.moves)


def _combinatorics() -> None:
    oracles.TableauCounts().square_sums(10, 4)
    oracles.recording_tableau(WORD)
    oracles.lds(WORD)


def _objects() -> None:
    swap = str.maketrans("RU", "UR")
    segments = []
    for i in range(40):
        half = "".join("RU"[(i >> b) & 1] for b in range(8))
        segments.append(_Segment(half + half[::-1].translate(swap)))
    segments.sort(key=lambda seg: seg.moves)
    {seg.moves: n for n, seg in enumerate(segments)}


def _calls(n: int = 15) -> int:
    return n if n < 2 else _calls(n - 1) + _calls(n - 2)


PARTS = (_combinatorics, _objects, _calls)


def _alone() -> bool:
    """Whether this process has one thread and no child processes (Linux;
    elsewhere it never counts as alone)."""
    try:
        tasks = os.listdir("/proc/self/task")
        if len(tasks) != 1:
            return False
        with open(f"/proc/self/task/{tasks[0]}/children") as fh:
            return not fh.read().strip()
    except OSError:
        return False


class SpeedGauge:
    """Call `tick` between timed calls. It takes a group of samples when
    INTERVAL_S has gone by since the last one: one sample, plus one more for
    each further STEP_S of the gap, up to MAX_GROUP. With mid_call, used as
    a context manager, an interval timer also takes one sample every
    INTERVAL_S inside a call, but only while the process is alone: one
    thread and no child processes, so no work of the package runs while
    the sample does. Otherwise that sample is skipped."""

    def __init__(self, mid_call: bool) -> None:
        self.mid_call = mid_call
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []
        self.group_first: list[int] = []  # per sample: index of its group's first sample
        self.group_last: list[int] = []  # per sample: index of its group's last sample
        self.skipped = 0
        self._sampling = False
        self._previous = None

    def __enter__(self) -> "SpeedGauge":
        if self.mid_call:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.mid_call:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling:  # the timer fired inside a sample: no sample in a sample
            return
        if _alone():
            self._group(1)
        else:
            self.skipped += 1

    def tick(self) -> None:
        gap = time.perf_counter() - self.ends[-1] if self.ends else STEP_S * MAX_GROUP
        if gap >= INTERVAL_S:
            self._group(min(1 + int(gap / STEP_S), MAX_GROUP))

    def _group(self, n: int) -> None:
        first = len(self.starts)
        self._sampling = True
        try:
            for _ in range(n):
                self._sample()
        finally:
            self._sampling = False
        self.group_first += [first] * n
        self.group_last += [first + n - 1] * n

    def _sample(self) -> None:
        """Time each part of the reference routine; a sample's reference
        time is their geometric mean, so no one kind of work dominates."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            log_sum = 0.0
            for part in PARTS:
                t = time.perf_counter()
                part()
                log_sum += math.log(time.perf_counter() - t)
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.refs.append(math.exp(log_sum / len(PARTS)))

    @property
    def samples(self) -> int:
        return len(self.starts)

    def median_ref(self) -> float:
        return statistics.median(self.refs)

    def scaled(self, start: float, end: float) -> float:
        """The reported duration of the interval [start, end]."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        inside = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        # judge an interval by the samples it spans and those within WINDOW_S
        # of it (less for a long one), and always by the whole group of
        # samples just before it and just after it
        reach = max(WINDOW_S - (end - start) / 2, 0)
        lo = bisect.bisect_left(self.starts, start - reach)
        if first > 0:
            lo = min(lo, self.group_first[first - 1])
        hi = bisect.bisect_left(self.starts, end + reach)
        if last < len(self.starts):
            hi = max(hi, self.group_last[last] + 1)
        ref = statistics.median(self.refs[lo:hi])
        return (end - start - inside) * NOMINAL_S / ref

    def scaled_all(self, spans: list[tuple[float, float]]) -> list[float]:
        return [self.scaled(start, end) for start, end in spans]
