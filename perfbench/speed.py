"""Host speed sampling, so that timings do not move with the host's load.

On a shared host a core runs the same code up to about 1.6 times slower
while another tenant's work shares it, and this switches on and off from
milliseconds to minutes.  CPU time slows with it, so neither wall nor CPU
time of a query is steady from one run to the next.

The benchmark therefore times a fixed reference computation (``reference``)
next to every query: between the queries of a pair-stream session, and from
a ``SIGALRM`` handler every SAMPLE_INTERVAL_S while a CLI query runs.  A
query's times are scaled by ``REFERENCE_S / mean(reference times)``, leaving
out reference times over OUTLIER times their median (see ``scale``): they
are the seconds the query would take on a core that runs the reference
computation in REFERENCE_S, a free core of the 2-vCPU x86-64 host the
benchmark was defined on.  The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 250e-6
SAMPLE_INTERVAL_S = 0.02
OUTLIER = 2.5


def reference() -> dict:
    """A fixed product of two dict-of-monomials polynomials, like the package's."""
    a = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(6) for j in range(6)}
    out: dict = {}
    for (i, j), x in a.items():
        for (k, m), y in a.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return out


def sample() -> float:
    """Seconds one ``reference()`` call takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scale(samples: list) -> float:
    """The factor that turns times taken during ``samples`` into reference seconds.

    A sample during which the core was taken away altogether (over
    OUTLIER times the median; a shared core is at most about 1.6 times
    slower) says nothing about the core's speed, so it is left out.
    """
    limit = OUTLIER * statistics.median(samples)
    kept = [t for t in samples if t <= limit]
    return REFERENCE_S * len(kept) / sum(kept)


class Sampler:
    """Samples the host speed every SAMPLE_INTERVAL_S of wall time.

    The handler runs in the main thread between bytecodes, so it pauses the
    query for one ``reference()`` call (about 1% of its time).
    """

    def __init__(self) -> None:
        self.samples: list = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def start(self) -> None:
        self.samples.append(sample())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(sample())
        return self.samples
