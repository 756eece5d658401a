"""The host's current speed, from a fixed block of plain Python.

On a host whose cores are shared, CPU speed drifts: on a 2-vCPU shared
virtual machine the same code took up to about 1.7 times as long, in CPU
time as much as in wall time, and the host switched between a fast and a
slow state within seconds as well as for minutes at a time, so raw times
of one commit spread by 10-35% across runs.  So while the benchmark times
mvdl, a ``Sampler`` times a reference block that does not touch mvdl,
every INTERVAL_S of wall time (from a SIGALRM handler, so samples fall
inside long calls too, in proportion to the time spent in each state), and
the benchmark reports its times scaled to the reference speed:

    scaled = raw * mean(REF_S / sample)

that is, the seconds the work would have taken on a host where one block
always takes REF_S.  The handler's own time is taken out of the raw times.
A change to mvdl moves the raw times and leaves the samples alone, so it
moves the scaled times by the same factor.

The block does what mvdl's sweeps and requests do most: it composes small
functions given as tuples and memoises the results in a dict keyed by
tuples, and it sorts and filters short lists.  Its slowdown on a slow host
follows mvdl's more closely than a tight loop's does (a tight loop slows by
about 2x when mvdl slows by about 1.6x).  The garbage collector is off
while it runs, so its time does not depend on the size of the heap mvdl
has built.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from itertools import product

REF_S = 0.001  # nominal seconds of one reference block
INTERVAL_S = 0.05  # wall time between two samples

_FUNCTIONS = list(product(range(3), repeat=3))
_LISTS = [[random.Random(i).random() for _ in range(50)] for i in range(100)]


def _block() -> int:
    memo: dict = {}
    for f in _FUNCTIONS:
        for g in _FUNCTIONS:
            h = tuple(g[f[i]] for i in range(3))
            memo[h] = memo.get(h, 0) + 1
    picked = []
    for xs in _LISTS:
        s = sorted(xs)
        picked.append((s[0], s[-1], len(s)))
        picked.append(tuple(x for x in xs if x > 0.5))
    return len(memo) + len(picked)


class Sampler:
    """Samples of the reference block's time, taken every INTERVAL_S while
    the sampler is entered, and once on entry and once on exit.

    ``busy`` is the wall time spent sampling while entered; callers
    subtract the part that fell inside a timed call.  An inactive sampler
    takes no samples and scales by 1."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.busy = 0.0
        self._previous = None

    def sample(self) -> None:
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = clock()
            _block()
            self.samples.append(clock() - t)
        finally:
            if enabled:
                gc.enable()

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.sample()
        self.busy += time.perf_counter() - t

    def __enter__(self) -> Sampler:
        if not self.active:
            return self
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self) -> float:
        """Factor from raw seconds to reference-speed seconds for the work
        done while the sampler was entered."""
        if not self.active:
            return 1.0
        return statistics.fmean(REF_S / t for t in self.samples)
