"""Host-speed probe: how fast the core that runs a pass was while it ran.

On a shared host the speed of one core swings by up to 2x within seconds,
and the two cores swing apart: a probe in another process, on the other
core, does not follow the pass (see README.md).  So `SpeedProbe` samples
in the pass's own main thread, from a timer signal, and each sample is the
CPU time, not the wall time, of a fixed computation.  Time the sample
waits for a core or for the interpreter lock, because the program keeps
the second core busy, is therefore not in it.
"""

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1

_POLY = {((i, 1), (j, 2)): Fraction(i + 1, j + 2)
         for i in range(4) for j in range(4)}


def reference() -> float:
    """CPU time of a fixed sparse product of Fraction polynomials, the kind
    of work geoalg does; about 1 ms on a quiet host.

    The garbage collector is held off while it runs: a collection started
    by its allocations would traverse the pass's heap, and a program that
    keeps more objects alive would then look like a slower host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        out = {}
        for m1, c1 in _POLY.items():
            for m2, c2 in _POLY.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def reference_mean(samples: int = 3) -> float:
    return sum(reference() for _ in range(samples)) / samples


class SpeedProbe:
    """Times `reference()` every 0.1 s of wall time while the block runs.

    The sample is taken by a SIGALRM handler, so it runs in the main
    thread when the interpreter next executes bytecode; a long call into C
    only delays it.
    """

    def __enter__(self):
        self.samples = [reference()]
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        self.samples.append(reference())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(reference())

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)
